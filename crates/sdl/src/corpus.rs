//! Scenario corpus: an in-memory index of SDL descriptions supporting
//! attribute filtering and similarity search.
//!
//! This is the downstream consumer of automated extraction: once every clip
//! in a fleet log has an SDL description, validation engineers query the
//! corpus — "all clips where a pedestrian crosses while the ego turns" —
//! or retrieve nearest neighbors of an interesting scenario.

use std::fmt;
use std::str::FromStr;

use crate::ast::{ActorAction, ActorKind, EgoManeuver, Position, RoadKind, Scenario};
use crate::embed::{dot, embed, is_unit_norm, EMBED_DIM};
use crate::rank::TopK;

/// An attribute filter over scenarios (conjunctive; `None` = wildcard).
///
/// # Examples
///
/// ```
/// use tsdx_sdl::{ScenarioFilter, parse_scenario};
///
/// let filter: ScenarioFilter = "road=intersection actor=pedestrian".parse()?;
/// let s = parse_scenario("ego decelerate-to-stop; pedestrian crossing right; road intersection")?;
/// assert!(filter.matches(&s));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioFilter {
    /// Required ego maneuver.
    pub ego: Option<EgoManeuver>,
    /// Required road kind.
    pub road: Option<RoadKind>,
    /// Required actor kind (any clause).
    pub actor: Option<ActorKind>,
    /// Required actor action (any clause; combined with `actor` it must be
    /// the *same* clause).
    pub action: Option<ActorAction>,
    /// Required actor position (same clause as `actor`/`action` when set).
    pub position: Option<Position>,
}

/// Error from parsing a [`ScenarioFilter`] query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFilterError {
    token: String,
    reason: String,
}

impl fmt::Display for ParseFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter term `{}`: {}", self.token, self.reason)
    }
}

impl std::error::Error for ParseFilterError {}

impl ScenarioFilter {
    /// The match-everything filter.
    pub fn any() -> Self {
        ScenarioFilter::default()
    }

    /// Builder: require an ego maneuver.
    #[must_use]
    pub fn with_ego(mut self, ego: EgoManeuver) -> Self {
        self.ego = Some(ego);
        self
    }

    /// Builder: require a road kind.
    #[must_use]
    pub fn with_road(mut self, road: RoadKind) -> Self {
        self.road = Some(road);
        self
    }

    /// Builder: require an actor kind.
    #[must_use]
    pub fn with_actor(mut self, actor: ActorKind) -> Self {
        self.actor = Some(actor);
        self
    }

    /// Builder: require an actor action.
    #[must_use]
    pub fn with_action(mut self, action: ActorAction) -> Self {
        self.action = Some(action);
        self
    }

    /// Builder: require an actor position.
    #[must_use]
    pub fn with_position(mut self, position: Position) -> Self {
        self.position = Some(position);
        self
    }

    /// True when `scenario` satisfies every set constraint. Actor
    /// constraints must all hold on a *single* clause.
    pub fn matches(&self, scenario: &Scenario) -> bool {
        if let Some(e) = self.ego {
            if scenario.ego != e {
                return false;
            }
        }
        if let Some(r) = self.road {
            if scenario.road != r {
                return false;
            }
        }
        if self.actor.is_none() && self.action.is_none() && self.position.is_none() {
            return true;
        }
        scenario.actors.iter().any(|c| {
            self.actor.is_none_or(|k| c.kind == k)
                && self.action.is_none_or(|a| c.action == a)
                && self.position.is_none_or(|p| c.position == Some(p))
        })
    }
}

impl FromStr for ScenarioFilter {
    type Err = ParseFilterError;

    /// Parses a whitespace-separated list of `key=value` terms; keys are
    /// `ego`, `road`, `actor`, `action`, `position`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut filter = ScenarioFilter::default();
        for term in s.split_whitespace() {
            let (key, value) = term.split_once('=').ok_or_else(|| ParseFilterError {
                token: term.to_string(),
                reason: "expected key=value".to_string(),
            })?;
            let bad = |reason: String| ParseFilterError { token: term.to_string(), reason };
            match key {
                "ego" => filter.ego = Some(value.parse().map_err(|e| bad(format!("{e}")))?),
                "road" => filter.road = Some(value.parse().map_err(|e| bad(format!("{e}")))?),
                "actor" => filter.actor = Some(value.parse().map_err(|e| bad(format!("{e}")))?),
                "action" => filter.action = Some(value.parse().map_err(|e| bad(format!("{e}")))?),
                "position" => {
                    filter.position = Some(value.parse().map_err(|e| bad(format!("{e}")))?)
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        Ok(filter)
    }
}

impl fmt::Display for ScenarioFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms = Vec::new();
        if let Some(e) = self.ego {
            terms.push(format!("ego={e}"));
        }
        if let Some(r) = self.road {
            terms.push(format!("road={r}"));
        }
        if let Some(k) = self.actor {
            terms.push(format!("actor={k}"));
        }
        if let Some(a) = self.action {
            terms.push(format!("action={a}"));
        }
        if let Some(p) = self.position {
            terms.push(format!("position={p}"));
        }
        if terms.is_empty() {
            write!(f, "(any)")
        } else {
            write!(f, "{}", terms.join(" "))
        }
    }
}

/// An indexed collection of scenarios with precomputed embeddings.
///
/// # Examples
///
/// ```
/// use tsdx_sdl::{parse_scenario, ScenarioCorpus};
///
/// let mut corpus = ScenarioCorpus::new();
/// corpus.insert(parse_scenario("ego cruise; vehicle leading ahead; road straight")?);
/// corpus.insert(parse_scenario("ego turn-left; road intersection")?);
/// let query = parse_scenario("ego cruise; vehicle leading ahead; road curve-left")?;
/// let hits = corpus.query_similar(&query, 1);
/// assert_eq!(hits[0].0, 0); // the cruise scenario is the nearest neighbor
/// # Ok::<(), tsdx_sdl::ParseScenarioError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioCorpus {
    entries: Vec<Scenario>,
    embeddings: Vec<[f32; EMBED_DIM]>,
}

impl ScenarioCorpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        ScenarioCorpus::default()
    }

    /// Adds a scenario, returning its id (dense, insertion-ordered).
    pub fn insert(&mut self, scenario: Scenario) -> usize {
        self.embeddings.push(embed(&scenario));
        self.entries.push(scenario);
        self.entries.len() - 1
    }

    /// Number of indexed scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scenario with id `id`.
    pub fn get(&self, id: usize) -> Option<&Scenario> {
        self.entries.get(id)
    }

    /// Iterates over `(id, scenario)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Scenario)> {
        self.entries.iter().enumerate()
    }

    /// Ids of all scenarios matching `filter`, in insertion order.
    pub fn filter(&self, filter: &ScenarioFilter) -> Vec<usize> {
        self.iter().filter(|(_, s)| filter.matches(s)).map(|(i, _)| i).collect()
    }

    /// The `k` nearest scenarios to `query` by embedding cosine similarity,
    /// most similar first. Returns `(id, similarity)` pairs.
    ///
    /// Stored embeddings are unit-norm ([`embed`] guarantees it), so the
    /// similarity is a plain dot product, and scores stream into the total
    /// [`TopK`] order (score descending by `f32::total_cmp`, ascending-id
    /// tie-break): O(n + k log k) time, O(k) memory, never a panic,
    /// deterministic for any input — including adversarial non-finite
    /// scores.
    pub fn query_similar(&self, query: &Scenario, k: usize) -> Vec<(usize, f32)> {
        self.rank(&embed(query), 0..self.len(), k)
    }

    /// Combined query: filter first, then rank the survivors by similarity
    /// to `query`. Same ordering contract as [`Self::query_similar`].
    pub fn search(&self, filter: &ScenarioFilter, query: &Scenario, k: usize) -> Vec<(usize, f32)> {
        self.rank(&embed(query), self.filter(filter), k)
    }

    fn rank(
        &self,
        qe: &[f32],
        ids: impl IntoIterator<Item = usize>,
        k: usize,
    ) -> Vec<(usize, f32)> {
        let mut best = TopK::new(k);
        for i in ids {
            best.push(i, self.score(qe, &self.embeddings[i]));
        }
        best.into_sorted()
    }

    /// Similarity of a query embedding against one stored entry: the
    /// unit-norm dot-product fast path, with the invariant checked in
    /// debug builds.
    fn score(&self, query: &[f32], stored: &[f32]) -> f32 {
        debug_assert!(is_unit_norm(stored), "corpus embeddings must be unit-norm");
        dot(query, stored)
    }
}

impl FromIterator<Scenario> for ScenarioCorpus {
    fn from_iter<I: IntoIterator<Item = Scenario>>(iter: I) -> Self {
        let mut corpus = ScenarioCorpus::new();
        for s in iter {
            corpus.insert(s);
        }
        corpus
    }
}

impl Extend<Scenario> for ScenarioCorpus {
    fn extend<I: IntoIterator<Item = Scenario>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ActorClause;

    fn corpus() -> ScenarioCorpus {
        [
            "ego cruise; vehicle leading ahead; road straight",
            "ego decelerate-to-stop; pedestrian crossing right; road intersection",
            "ego turn-left; vehicle oncoming ahead; road intersection",
            "ego cruise; road curve-left",
            "ego lane-change-left; vehicle overtaking left; road straight",
        ]
        .iter()
        .map(|t| crate::parse_scenario(t).unwrap())
        .collect()
    }

    #[test]
    fn filter_matches_attributes_conjunctively() {
        let c = corpus();
        let f: ScenarioFilter = "road=intersection".parse().unwrap();
        assert_eq!(c.filter(&f), vec![1, 2]);
        let f: ScenarioFilter = "road=intersection actor=pedestrian".parse().unwrap();
        assert_eq!(c.filter(&f), vec![1]);
        let f: ScenarioFilter = "ego=cruise".parse().unwrap();
        assert_eq!(c.filter(&f), vec![0, 3]);
        assert_eq!(c.filter(&ScenarioFilter::any()).len(), 5);
    }

    #[test]
    fn actor_constraints_bind_to_a_single_clause() {
        // Scenario has a leading vehicle and a crossing pedestrian; a filter
        // for a *crossing vehicle* must not match across clauses.
        let s = Scenario::new(EgoManeuver::Cruise, RoadKind::Intersection)
            .with_actor(ActorClause::new(ActorKind::Vehicle, ActorAction::Leading))
            .with_actor(ActorClause::new(ActorKind::Pedestrian, ActorAction::Crossing));
        let f: ScenarioFilter = "actor=vehicle action=crossing".parse().unwrap();
        assert!(!f.matches(&s));
        let f: ScenarioFilter = "actor=pedestrian action=crossing".parse().unwrap();
        assert!(f.matches(&s));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!("bogus".parse::<ScenarioFilter>().is_err());
        assert!("ego=warp".parse::<ScenarioFilter>().is_err());
        assert!("color=red".parse::<ScenarioFilter>().is_err());
        let err = "ego".parse::<ScenarioFilter>().unwrap_err();
        assert!(err.to_string().contains("key=value"));
    }

    #[test]
    fn filter_display_roundtrips() {
        let f: ScenarioFilter = "ego=turn-left road=intersection actor=cyclist".parse().unwrap();
        let text = f.to_string();
        assert_eq!(text.parse::<ScenarioFilter>().unwrap(), f);
        assert_eq!(ScenarioFilter::any().to_string(), "(any)");
    }

    #[test]
    fn similarity_query_finds_self_first() {
        let c = corpus();
        for (i, s) in c.iter() {
            let hits = c.query_similar(s, 1);
            assert_eq!(hits[0].0, i, "self must be nearest for entry {i}");
            assert!((hits[0].1 - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn search_combines_filter_and_ranking() {
        let c = corpus();
        let f: ScenarioFilter = "road=intersection".parse().unwrap();
        let query = crate::parse_scenario("ego turn-left; road intersection").unwrap();
        let hits = c.search(&f, &query, 5);
        // Only the two intersection scenarios survive; the turn-left one wins.
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn builder_and_extend() {
        let f = ScenarioFilter::any()
            .with_ego(EgoManeuver::Cruise)
            .with_road(RoadKind::Straight)
            .with_actor(ActorKind::Vehicle)
            .with_action(ActorAction::Leading)
            .with_position(Position::Ahead);
        let mut c = ScenarioCorpus::new();
        c.extend(corpus().iter().map(|(_, s)| s.clone()));
        assert_eq!(c.len(), 5);
        assert_eq!(c.filter(&f), vec![0]);
        assert!(c.get(0).is_some());
        assert!(c.get(99).is_none());
    }
}
