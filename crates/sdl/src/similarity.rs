//! Scenario-to-scenario similarity.
//!
//! Two complementary measures are provided:
//!
//! * [`similarity`] — interpretable weighted agreement of the ego, road,
//!   and actor slots (Jaccard over actor clauses);
//! * the cosine of [`crate::embed`] vectors ([`crate::embedding_similarity`]),
//!   the Scenario2Vector approach used for retrieval.

use std::collections::BTreeSet;

use crate::ast::Scenario;

/// Weight of ego-maneuver agreement in [`similarity`]. Actors and ego
/// dominate (they carry the safety-relevant content); road context breaks
/// ties.
const EGO_WEIGHT: f32 = 0.4;
/// Weight of road-kind agreement in [`similarity`].
const ROAD_WEIGHT: f32 = 0.2;
/// Weight of actor-clause Jaccard overlap in [`similarity`].
const ACTORS_WEIGHT: f32 = 0.4;

/// Weighted slot agreement in `[0, 1]`; `1` iff the scenarios are
/// semantically identical up to actor ordering.
///
/// Actor clauses are compared as *sets* (order is salience only) with
/// Jaccard overlap; positions are part of clause identity. Two scenarios
/// with no actors at all count as full actor agreement.
pub fn similarity(a: &Scenario, b: &Scenario) -> f32 {
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

    (EGO_WEIGHT * ego + ROAD_WEIGHT * road + ACTORS_WEIGHT * actors)
        / (EGO_WEIGHT + ROAD_WEIGHT + ACTORS_WEIGHT)
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
    fn similarity_keeps_its_bits() {
        let a = base();
        let mut road_only = base();
        road_only.road = RoadKind::Intersection;
        let disjoint = Scenario::new(EgoManeuver::TurnLeft, RoadKind::Intersection)
            .with_actor(ActorClause::new(ActorKind::Pedestrian, ActorAction::Crossing));
        let got = [&a, &road_only, &disjoint].map(|b| similarity(&a, b).to_bits());
        assert_eq!(got, [0x3f80_0000, 0x3f4c_cccd, 0], "1.0, 0.8 and 0.0");
    }

    #[test]
    fn empty_actor_sets_agree() {
        let a = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        let b = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        assert!((similarity(&a, &b) - 1.0).abs() < 1e-6);
    }
}
