//! Kinematic labeling: recovers SDL facts from simulated trajectories.
//!
//! The generator in [`crate::scenario_gen`] knows the ground truth by
//! construction; this module re-derives it from kinematics alone. Its roles:
//!
//! * cross-validate the generator (property tests assert
//!   `infer(simulate(generate(spec))) == spec`);
//! * provide the non-learned *heuristic baseline* building blocks used by
//!   `tsdx-baselines` (the baseline sees only noisy estimates, but the
//!   decision rules are shared).
//!
//! Position attributes are *not* re-derived: SDL positions describe where
//! the interaction semantically happens (an overtaker is "left" even while
//! still behind), which is a generator-level fact.

use tsdx_sdl::{ActorAction, EgoManeuver, Position, RoadKind};

use crate::actors::ActorState;
use crate::geometry::wrap_angle;
use crate::world::{EgoState, Trajectory, World};

/// Minimum net speed gain to call the ego maneuver "accelerate" (m/s).
const ACCEL_GAIN: f32 = 2.5;

/// Net heading change that counts as a turn (rad).
const TURN_HEADING: f32 = 0.5;

/// Lateral displacement that counts as a lane change (m).
const LANE_SHIFT: f32 = 2.5;

/// Infers the ego maneuver from its trajectory and the road kind.
pub fn infer_ego_maneuver(traj: &Trajectory, road: RoadKind) -> EgoManeuver {
    let first = traj.ego.first().expect("non-empty trajectory");
    let last = traj.ego.last().expect("non-empty trajectory");
    let max_speed = traj.ego.iter().map(|e| e.speed).fold(0.0, f32::max);

    if last.speed < 0.5 && max_speed > 3.0 {
        return EgoManeuver::DecelerateToStop;
    }
    if last.speed - first.speed > ACCEL_GAIN {
        return EgoManeuver::Accelerate;
    }
    if road == RoadKind::Intersection {
        let dh = wrap_angle(last.pose.heading - first.pose.heading);
        if dh > TURN_HEADING {
            return EgoManeuver::TurnLeft;
        }
        if dh < -TURN_HEADING {
            return EgoManeuver::TurnRight;
        }
    }
    if road == RoadKind::Straight {
        // Lateral displacement in the initial-heading frame.
        let lateral = first.pose.world_to_local(last.pose.position).y;
        if lateral > LANE_SHIFT {
            return EgoManeuver::LaneChangeLeft;
        }
        if lateral < -LANE_SHIFT {
            return EgoManeuver::LaneChangeRight;
        }
    }
    EgoManeuver::Cruise
}

/// Coarse position of `actor` relative to `ego` at one instant.
pub fn relative_position(ego: &EgoState, actor: &ActorState) -> Position {
    let local = ego.pose.world_to_local(actor.pose.position);
    if local.x.abs() >= local.y.abs() {
        if local.x >= 0.0 {
            Position::Ahead
        } else {
            Position::Behind
        }
    } else if local.y >= 0.0 {
        Position::Left
    } else {
        Position::Right
    }
}

/// Infers what actor `idx` is doing relative to the ego vehicle.
///
/// Returns `None` when the actor is inactive for (almost) the whole clip.
pub fn infer_actor_action(world: &World, traj: &Trajectory, idx: usize) -> Option<ActorAction> {
    let states = &traj.actors[idx];
    let active: Vec<usize> = (0..states.len()).filter(|&i| states[i].active).collect();
    if active.len() < states.len() / 8 {
        return None;
    }
    let first = active[0];
    let last = *active.last().expect("non-empty");

    let max_speed = active.iter().map(|&i| states[i].speed).fold(0.0, f32::max);
    if max_speed < 0.3 {
        return Some(ActorAction::Stopped);
    }

    // Heading relationship, sampled mid-activity (headings are constant for
    // straight routes and this avoids turn-in/turn-out transients).
    let mid = active[active.len() / 2];
    let ego_h = traj.ego[mid].pose.heading;
    let rel_h = wrap_angle(states[mid].pose.heading - ego_h).abs();
    if rel_h > 2.3 {
        return Some(ActorAction::Oncoming);
    }
    if (0.9..=2.3).contains(&rel_h) {
        return Some(ActorAction::Crossing);
    }

    // Same direction: use longitudinal ordering and lateral offset relative
    // to the ego's own path.
    let ego_path = &world.ego.path;
    let lat_first = ego_path.lateral_offset(states[first].pose.position);
    let lat_last = ego_path.lateral_offset(states[last].pose.position);
    let lon_first = ego_path.project(states[first].pose.position) - traj.ego[first].s;
    let lon_last = ego_path.project(states[last].pose.position) - traj.ego[last].s;

    let in_lane = |lat: f32| lat.abs() < 1.6;
    if !in_lane(lat_first) && in_lane(lat_last) && lon_last > 0.0 {
        return Some(ActorAction::CutIn);
    }
    if !in_lane(lat_first) && !in_lane(lat_last) && lon_first < 0.0 && lon_last > 0.0 {
        return Some(ActorAction::Overtaking);
    }
    if lon_first > 0.0 && lon_last > 0.0 {
        return Some(ActorAction::Leading);
    }
    if lon_first < 0.0 && lon_last < 0.0 {
        return Some(ActorAction::Following);
    }
    // Ambiguous same-direction motion: fall back on the ordering at the end.
    Some(if lon_last >= 0.0 { ActorAction::Leading } else { ActorAction::Following })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_gen::{ego_maneuvers_for, SamplerConfig, ScenarioSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_sdl::RoadKind;

    #[test]
    fn ego_maneuver_roundtrips_through_simulation() {
        // For every road kind and every compatible maneuver, the labeler
        // must recover the generator's intent from kinematics alone.
        let sampler = ScenarioSampler::new(SamplerConfig { duration: 10.0, max_events: 0 });
        let mut rng = StdRng::seed_from_u64(100);
        for &road in RoadKind::ALL {
            for &ego in ego_maneuvers_for(road) {
                for _ in 0..3 {
                    let g = sampler.sample_with(&mut rng, road, ego);
                    let traj = g.world.simulate(0.05);
                    let inferred = infer_ego_maneuver(&traj, road);
                    assert_eq!(
                        inferred, ego,
                        "labeler disagrees with generator on {road}: expected {ego}, got {inferred}"
                    );
                }
            }
        }
    }

    #[test]
    fn actor_actions_roundtrip_through_simulation() {
        let sampler = ScenarioSampler::new(SamplerConfig { duration: 8.0, max_events: 2 });
        let mut rng = StdRng::seed_from_u64(101);
        let mut checked = 0;
        for _ in 0..120 {
            let g = sampler.sample(&mut rng);
            let traj = g.world.simulate(0.05);
            for (i, clause) in g.truth.actors.iter().enumerate() {
                if let Some(inferred) = infer_actor_action(&g.world, &traj, i) {
                    assert_eq!(
                        inferred, clause.action,
                        "actor action mismatch in `{}` (actor {i}, kind {})",
                        g.truth, clause.kind
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "too few actors were checkable: {checked}");
    }

    #[test]
    fn relative_position_quadrants() {
        use crate::geometry::{Pose, Vec2};
        let ego = EgoState {
            pose: Pose::new(Vec2::ZERO, std::f32::consts::FRAC_PI_2),
            speed: 0.0,
            s: 0.0,
        };
        let mk = |x: f32, y: f32| ActorState {
            pose: Pose::new(Vec2::new(x, y), 0.0),
            speed: 0.0,
            s: 0.0,
            active: true,
        };
        assert_eq!(relative_position(&ego, &mk(0.0, 10.0)), Position::Ahead);
        assert_eq!(relative_position(&ego, &mk(0.0, -10.0)), Position::Behind);
        assert_eq!(relative_position(&ego, &mk(-10.0, 0.0)), Position::Left);
        assert_eq!(relative_position(&ego, &mk(10.0, 0.0)), Position::Right);
    }
}
