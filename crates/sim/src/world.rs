//! The simulated world: ego vehicle + scripted actors on a road layout.

use crate::actors::{Actor, ActorState};
use crate::behavior::SpeedProfile;
use crate::geometry::Pose;
use crate::path::Path;
use crate::road::RoadLayout;
use crate::vehicle::{speed_control, BicycleModel, BicycleState, PurePursuit};

/// Ego vehicle setup: the route it tracks and its longitudinal behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct EgoSetup {
    /// Reference path the ego controller tracks.
    pub path: Path,
    /// Longitudinal target-speed profile along the path.
    pub profile: SpeedProfile,
    /// Initial arc length on the path (m).
    pub start_s: f32,
    /// Initial speed (m/s).
    pub start_speed: f32,
}

/// Snapshot of the ego vehicle at one simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoState {
    /// World pose.
    pub pose: Pose,
    /// Speed (m/s).
    pub speed: f32,
    /// Arc length along the ego path (m).
    pub s: f32,
}

/// A complete scenario world ready to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// Road geometry.
    pub road: RoadLayout,
    /// Ego setup.
    pub ego: EgoSetup,
    /// Scripted non-ego actors.
    pub actors: Vec<Actor>,
    /// Clip duration (s).
    pub duration: f32,
}

/// Time-indexed result of [`World::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Simulation timestep (s).
    pub dt: f32,
    /// Ego states, one per step (including t=0).
    pub ego: Vec<EgoState>,
    /// Actor states: `actors[i][step]`.
    pub actors: Vec<Vec<ActorState>>,
}

impl Trajectory {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.ego.len()
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.ego.is_empty()
    }

    /// Returns `count` step indices evenly spread over the trajectory
    /// (first and last included), for frame sampling.
    pub fn frame_indices(&self, count: usize) -> Vec<usize> {
        assert!(count >= 1, "at least one frame");
        let n = self.len();
        if count == 1 {
            return vec![n / 2];
        }
        (0..count).map(|i| (i * (n - 1)) / (count - 1)).collect()
    }
}

impl World {
    /// Simulates the world at timestep `dt`, tracking the ego path with a
    /// pure-pursuit bicycle controller and rolling out the scripted actors.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `duration` is non-positive.
    pub fn simulate(&self, dt: f32) -> Trajectory {
        assert!(dt > 0.0 && self.duration > 0.0, "dt and duration must be positive");
        let steps = (self.duration / dt).round() as usize;
        let model = BicycleModel::default();
        let pp = PurePursuit::default();

        let start_pose = self.ego.path.pose_at(self.ego.start_s);
        let mut state = BicycleState { pose: start_pose, speed: self.ego.start_speed };
        let mut s = self.ego.start_s;
        let mut ego_states = Vec::with_capacity(steps + 1);
        for _ in 0..=steps {
            ego_states.push(EgoState { pose: state.pose, speed: state.speed, s });
            // Project by local search around the previous s (cheap and
            // robust against the path folding back near intersections).
            let steer = pp.steer(&model, &state, &self.ego.path, s);
            let target = self.ego.profile.target_speed(s);
            let accel = speed_control(&model, state.speed, target);
            state = model.step(state, accel, steer, dt);
            s += state.speed * dt;
        }

        let actor_states = self.actors.iter().map(|a| a.rollout(self.duration, dt)).collect();
        Trajectory { dt, ego: ego_states, actors: actor_states }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;
    use tsdx_sdl::{ActorKind, RoadKind};

    fn cruise_world() -> World {
        let road = RoadLayout::build(RoadKind::Straight);
        let ego_path = road.ego_lane().clone();
        World {
            road,
            ego: EgoSetup {
                path: ego_path,
                profile: SpeedProfile::Constant(8.0),
                start_s: 20.0,
                start_speed: 8.0,
            },
            actors: vec![],
            duration: 8.0,
        }
    }

    #[test]
    fn cruise_covers_expected_distance() {
        let w = cruise_world();
        let traj = w.simulate(0.05);
        assert_eq!(traj.len(), 161);
        let first = traj.ego.first().unwrap();
        let last = traj.ego.last().unwrap();
        let dist = (last.s - first.s).abs();
        assert!((dist - 64.0).abs() < 2.0, "cruise distance {dist}");
        // Stays in lane.
        let cte = w.ego.path.lateral_offset(last.pose.position).abs();
        assert!(cte < 0.3, "cte {cte}");
    }

    #[test]
    fn stop_profile_stops_the_ego() {
        let mut w = cruise_world();
        w.ego.profile = SpeedProfile::StopAt { cruise: 8.0, stop_s: 60.0, decel: 2.5 };
        let traj = w.simulate(0.05);
        let last = traj.ego.last().unwrap();
        assert!(last.speed < 0.3, "ego should be stopped, speed {}", last.speed);
        assert!(last.s <= 62.0, "overshot stop line: {}", last.s);
    }

    #[test]
    fn actors_roll_out_alongside_ego() {
        let mut w = cruise_world();
        let lead_path = w.road.ego_lane().clone();
        w.actors.push(
            Actor::new(ActorKind::Vehicle, lead_path, SpeedProfile::Constant(7.0))
                .starting_at(45.0),
        );
        let traj = w.simulate(0.05);
        assert_eq!(traj.actors.len(), 1);
        assert_eq!(traj.actors[0].len(), traj.len());
        // Lead stays ahead of ego for the whole clip.
        for (e, a) in traj.ego.iter().zip(&traj.actors[0]) {
            assert!(a.s > e.s, "lead vehicle fell behind");
        }
    }

    #[test]
    fn frame_indices_cover_the_clip() {
        let w = cruise_world();
        let traj = w.simulate(0.1);
        let idx = traj.frame_indices(8);
        assert_eq!(idx.len(), 8);
        assert_eq!(idx[0], 0);
        assert_eq!(*idx.last().unwrap(), traj.len() - 1);
        assert!(idx.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn turning_ego_tracks_intersection_turn() {
        let road = RoadLayout::build(RoadKind::Intersection);
        let path = road.ego_turn_right().unwrap();
        let w = World {
            road,
            ego: EgoSetup {
                path: path.clone(),
                profile: SpeedProfile::Constant(6.0),
                start_s: 40.0,
                start_speed: 6.0,
            },
            actors: vec![],
            duration: 10.0,
        };
        let traj = w.simulate(0.05);
        let last = traj.ego.last().unwrap();
        // After the turn the ego is east of the intersection heading east.
        assert!(last.pose.position.x > 5.0, "{:?}", last.pose.position);
        assert!(last.pose.heading.abs() < 0.3, "heading {}", last.pose.heading);
        // Never strays far from the reference path.
        for e in &traj.ego {
            assert!(path.lateral_offset(e.pose.position).abs() < 1.0);
        }
        let _ = Vec2::ZERO;
    }
}
