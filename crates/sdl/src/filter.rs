//! Attribute filters over scenarios.
//!
//! This is the downstream consumer of automated extraction: once every clip
//! in a fleet log has an SDL description, validation engineers select
//! clips — "all clips where a pedestrian crosses while the ego turns" — and
//! rank what they selected with the `tsdx-index` similarity search.

use std::fmt;
use std::str::FromStr;

use crate::ast::{ActorAction, ActorKind, EgoManeuver, Position, RoadKind, Scenario};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ActorClause;

    fn corpus() -> Vec<Scenario> {
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

    /// Indices of the scenarios `f` matches.
    fn matching(f: &ScenarioFilter) -> Vec<usize> {
        corpus().iter().enumerate().filter(|(_, s)| f.matches(s)).map(|(i, _)| i).collect()
    }

    #[test]
    fn filter_matches_attributes_conjunctively() {
        let f: ScenarioFilter = "road=intersection".parse().unwrap();
        assert_eq!(matching(&f), vec![1, 2]);
        let f: ScenarioFilter = "road=intersection actor=pedestrian".parse().unwrap();
        assert_eq!(matching(&f), vec![1]);
        let f: ScenarioFilter = "ego=cruise".parse().unwrap();
        assert_eq!(matching(&f), vec![0, 3]);
        let f: ScenarioFilter =
            "ego=cruise road=straight actor=vehicle action=leading position=ahead".parse().unwrap();
        assert_eq!(matching(&f), vec![0]);
        assert_eq!(matching(&ScenarioFilter::any()).len(), 5);
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
}
