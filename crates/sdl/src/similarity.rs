//! Scenario-to-scenario similarity.
//!
//! Two complementary measures are provided:
//!
//! * [`slot_similarity`] — interpretable weighted agreement of the ego,
//!   road, and actor slots (Jaccard over actor clauses);
//! * the cosine of [`crate::embed`] vectors ([`crate::embedding_similarity`]),
//!   the Scenario2Vector approach used for retrieval.

use std::collections::BTreeSet;

use crate::ast::Scenario;

/// Weights of the three slot families in [`slot_similarity`].
///
/// Weights need not sum to one; they are normalized internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityWeights {
    /// Weight of ego-maneuver agreement.
    pub ego: f32,
    /// Weight of road-kind agreement.
    pub road: f32,
    /// Weight of actor-clause Jaccard overlap.
    pub actors: f32,
}

impl Default for SimilarityWeights {
    /// The weighting used throughout the evaluation: actors and ego dominate
    /// (they carry the safety-relevant content), road context breaks ties.
    fn default() -> Self {
        SimilarityWeights { ego: 0.4, road: 0.2, actors: 0.4 }
    }
}

/// Weighted slot agreement in `[0, 1]`; `1` iff the scenarios are
/// semantically identical up to actor ordering.
///
/// Actor clauses are compared as *sets* (order is salience only) with
/// Jaccard overlap; positions are part of clause identity. Two scenarios
/// with no actors at all count as full actor agreement.
pub fn slot_similarity(a: &Scenario, b: &Scenario, w: SimilarityWeights) -> f32 {
    let total = w.ego + w.road + w.actors;
    assert!(total > 0.0, "similarity weights must not all be zero");
    let ego = if a.ego == b.ego { 1.0 } else { 0.0 };
    let road = if a.road == b.road { 1.0 } else { 0.0 };

    let sa: BTreeSet<_> = a.actors.iter().copied().collect();
    let sb: BTreeSet<_> = b.actors.iter().copied().collect();
    let actors = if sa.is_empty() && sb.is_empty() {
        1.0
    } else {
        let inter = sa.intersection(&sb).count() as f32;
        let union = sa.union(&sb).count() as f32;
        inter / union
    };

    (w.ego * ego + w.road * road + w.actors * actors) / total
}

/// [`slot_similarity`] with [`SimilarityWeights::default`].
pub fn similarity(a: &Scenario, b: &Scenario) -> f32 {
    slot_similarity(a, b, SimilarityWeights::default())
}

/// Distance form of [`similarity`]: `1 - similarity`.
pub fn distance(a: &Scenario, b: &Scenario) -> f32 {
    1.0 - similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ActorAction, ActorClause, ActorKind, EgoManeuver, Position, RoadKind};

    fn base() -> Scenario {
        Scenario::new(EgoManeuver::Cruise, RoadKind::Straight).with_actor(ActorClause::at(
            ActorKind::Vehicle,
            ActorAction::Leading,
            Position::Ahead,
        ))
    }

    #[test]
    fn identical_scenarios_have_similarity_one() {
        let s = base();
        assert!((similarity(&s, &s) - 1.0).abs() < 1e-6);
        assert!(distance(&s, &s).abs() < 1e-6);
    }

    #[test]
    fn actor_order_does_not_matter() {
        let a = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight)
            .with_actor(ActorClause::new(ActorKind::Vehicle, ActorAction::Leading))
            .with_actor(ActorClause::new(ActorKind::Cyclist, ActorAction::Oncoming));
        let mut b = a.clone();
        b.actors.reverse();
        assert!((similarity(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_scenarios_have_similarity_zero() {
        let a = base();
        let b = Scenario::new(EgoManeuver::TurnLeft, RoadKind::Intersection)
            .with_actor(ActorClause::new(ActorKind::Pedestrian, ActorAction::Crossing));
        assert!(similarity(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = base();
        let b = Scenario::new(EgoManeuver::Cruise, RoadKind::Intersection)
            .with_actor(ActorClause::new(ActorKind::Vehicle, ActorAction::Leading));
        let sab = similarity(&a, &b);
        let sba = similarity(&b, &a);
        assert!((sab - sba).abs() < 1e-7);
        assert!((0.0..=1.0).contains(&sab));
        // Shares ego; actor clause differs by position -> partial score.
        assert!(sab > 0.3 && sab < 1.0);
    }

    #[test]
    fn custom_weights_change_emphasis() {
        let a = base();
        let mut b = base();
        b.road = RoadKind::Intersection;
        let road_heavy =
            slot_similarity(&a, &b, SimilarityWeights { ego: 0.0, road: 1.0, actors: 0.0 });
        assert_eq!(road_heavy, 0.0);
        let actors_only =
            slot_similarity(&a, &b, SimilarityWeights { ego: 0.0, road: 0.0, actors: 1.0 });
        assert_eq!(actors_only, 1.0);
    }

    #[test]
    fn empty_actor_sets_agree() {
        let a = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        let b = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        assert!((similarity(&a, &b) - 1.0).abs() < 1e-6);
    }
}
