//! The scenario-search service behind `POST /search`.
//!
//! A [`SearchService`] pairs a [`tsdx_index::VectorIndex`] with the
//! scenarios it was built from, so a hit comes back as `(id, similarity,
//! canonical SDL text)` rather than a bare row number. The service is
//! immutable once handed to the server — queries are read-only and safe to
//! answer from any connection thread concurrently.

use std::convert::Infallible;
use std::fmt::Display;

use tsdx_index::VectorIndex;
use tsdx_sdl::Scenario;

use crate::json;

/// Most hits one query may request; past this the request is shed as a
/// `400` before any scan work.
pub const MAX_SEARCH_K: usize = 1000;

/// One search answer: a stored scenario and how similar it is to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Dense insertion-order id of the stored scenario.
    pub id: u64,
    /// Cosine similarity to the query (embeddings are unit-norm, so this
    /// is the plain dot product).
    pub similarity: f32,
    /// Canonical SDL text of the stored scenario.
    pub sdl: String,
}

/// A searchable corpus: the vector index plus the scenarios behind the ids.
#[derive(Debug, Default, Clone)]
pub struct SearchService {
    index: VectorIndex,
    scenarios: Vec<Scenario>,
}

impl SearchService {
    /// Builds a service over `scenarios`, embedding each in insertion
    /// order (ids are dense from 0).
    ///
    /// # Panics
    ///
    /// As [`Self::insert`].
    pub fn build(scenarios: impl IntoIterator<Item = Scenario>) -> SearchService {
        let mut svc = SearchService::default();
        for s in scenarios {
            svc.insert(s);
        }
        svc
    }

    /// Adds one scenario, returning its id.
    ///
    /// # Panics
    ///
    /// Panics when `scenario` is not taxonomy-valid
    /// ([`Scenario::validate`]): a corpus is built server-side from valid
    /// scenarios, so an invalid one is a bug, not input.
    pub fn insert(&mut self, scenario: Scenario) -> u64 {
        let id = self.index.push_scenario(&scenario).expect("corpus scenarios are taxonomy-valid");
        self.scenarios.push(scenario);
        id
    }

    /// Number of indexed scenarios.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The `k` most similar stored scenarios to `query`, best first.
    ///
    /// # Errors
    ///
    /// None: every scenario is a query, taxonomy-valid or not.
    pub fn query(&self, query: &Scenario, k: usize) -> Result<Vec<Hit>, Infallible> {
        let hits = self.index.query_scenario(query, k)?;
        Ok(hits
            .into_iter()
            .map(|(id, similarity)| Hit {
                id,
                similarity,
                sdl: self.scenarios[id as usize].to_string(),
            })
            .collect())
    }
}

/// Renders hits as a JSON array, defensively mapping a non-finite
/// similarity (impossible for unit-norm embeddings, but the wire format
/// must never emit invalid JSON) to `null`.
pub(crate) fn hits_to_json(hits: &[Hit]) -> String {
    json::array(hits.iter().map(|h| {
        let similarity: &dyn Display =
            if h.similarity.is_finite() { &h.similarity } else { &"null" };
        json::Object::new().raw("id", h.id).raw("similarity", similarity).string("sdl", &h.sdl)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_sdl::parse_scenario;

    fn svc() -> SearchService {
        SearchService::build(
            [
                "ego cruise; vehicle leading ahead; road straight",
                "ego decelerate-to-stop; pedestrian crossing; road intersection",
                "ego turn-left; road intersection",
            ]
            .iter()
            .map(|t| parse_scenario(t).expect("valid SDL")),
        )
    }

    #[test]
    fn query_returns_self_first_with_sdl_text() {
        let svc = svc();
        let q = parse_scenario("ego turn-left; road intersection").expect("valid SDL");
        let hits = svc.query(&q, 2).expect("query");
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].similarity - 1.0).abs() < 1e-5);
        assert_eq!(hits[0].sdl, "ego turn-left; road intersection");
    }

    #[test]
    fn hits_serialize_to_valid_json() {
        let rendered = hits_to_json(&[
            Hit { id: 0, similarity: 0.5, sdl: "ego cruise; road straight".into() },
            Hit { id: 1, similarity: f32::NAN, sdl: "quote \" here".into() },
        ]);
        let parsed = json::parse(rendered.as_bytes()).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("similarity"), Some(&json::Json::Null));
    }

    #[test]
    fn empty_service_answers_empty() {
        let svc = SearchService::default();
        let q = parse_scenario("ego cruise; road straight").expect("valid SDL");
        assert!(svc.query(&q, 5).expect("query").is_empty());
        assert!(svc.is_empty());
        assert_eq!(svc.len(), 0);
    }
}
