//! Random scenario sampling: builds a [`World`] together with its
//! ground-truth SDL [`Scenario`].
//!
//! The sampler works constraint-first: it picks a road kind, then an ego
//! maneuver compatible with that road, then actor events compatible with
//! both — each event occupying a placement *slot* (ego lane ahead, left
//! lane, oncoming lane, crossing path, roadside) so that two sampled events
//! never collide with each other or with the ego plan.

use rand::Rng;

use tsdx_sdl::{ActorAction, ActorClause, ActorKind, EgoManeuver, Position, RoadKind, Scenario};

use crate::actors::Actor;
use crate::behavior::SpeedProfile;
use crate::geometry::Vec2;
use crate::path::Path;
use crate::road::{RoadLayout, APPROACH_LEN, HALF_LANE, LANE_WIDTH};
use crate::world::{EgoSetup, World};

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Clip duration in seconds.
    pub duration: f32,
    /// Maximum number of actor events per scenario (0..=2 supported).
    pub max_events: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { duration: 8.0, max_events: 2 }
    }
}

/// A sampled world plus its ground-truth description.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedScenario {
    /// The simulatable world.
    pub world: World,
    /// Ground-truth SDL description of the world.
    pub truth: Scenario,
}

/// Placement slot an event occupies (used to avoid conflicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    EgoLaneAhead,
    LeftLane,
    OncomingLane,
    CrossPath,
    Roadside,
}

/// Samples random, physically consistent scenarios.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use tsdx_sim::{SamplerConfig, ScenarioSampler};
///
/// let sampler = ScenarioSampler::new(SamplerConfig::default());
/// let mut rng = StdRng::seed_from_u64(7);
/// let gen = sampler.sample(&mut rng);
/// assert!(gen.truth.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioSampler {
    cfg: SamplerConfig,
}

impl ScenarioSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(cfg: SamplerConfig) -> Self {
        ScenarioSampler { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> SamplerConfig {
        self.cfg
    }

    /// Samples one scenario.
    pub fn sample(&self, rng: &mut impl Rng) -> GeneratedScenario {
        let road_kind = RoadKind::ALL[rng.random_range(0..RoadKind::COUNT)];
        self.sample_on_road(rng, road_kind)
    }

    /// Samples one scenario on a fixed road kind.
    pub fn sample_on_road(&self, rng: &mut impl Rng, road_kind: RoadKind) -> GeneratedScenario {
        let road = RoadLayout::build(road_kind);
        let ego_choices = ego_maneuvers_for(road_kind);
        let ego = ego_choices[rng.random_range(0..ego_choices.len())];
        self.build(rng, road, ego)
    }

    /// Samples one scenario with a fixed road kind and ego maneuver.
    ///
    /// # Panics
    ///
    /// Panics if `ego` is incompatible with `road_kind` (e.g. a turn on a
    /// straight road).
    pub fn sample_with(
        &self,
        rng: &mut impl Rng,
        road_kind: RoadKind,
        ego: EgoManeuver,
    ) -> GeneratedScenario {
        assert!(
            ego_maneuvers_for(road_kind).contains(&ego),
            "ego maneuver {ego} is not available on road {road_kind}"
        );
        self.build(rng, RoadLayout::build(road_kind), ego)
    }

    fn build(&self, rng: &mut impl Rng, road: RoadLayout, ego: EgoManeuver) -> GeneratedScenario {
        let plan = EgoPlan::build(rng, &road, ego);

        // Sample actor events.
        let n_events = {
            let roll: f32 = rng.random_range(0.0..1.0);
            let max = self.cfg.max_events;
            if max == 0 || roll < 0.20 {
                0
            } else if max == 1 || roll < 0.75 {
                1
            } else {
                2
            }
        };
        let mut used_slots: Vec<Slot> = plan.occupied_slots.clone();
        let mut actors = Vec::new();
        let mut clauses = Vec::new();
        for _ in 0..n_events {
            let candidates = compatible_events(road.kind(), ego, &used_slots);
            if candidates.is_empty() {
                break;
            }
            let (kind, action, slot) = candidates[rng.random_range(0..candidates.len())];
            if let Some((actor, clause)) = place_event(rng, &road, &plan, kind, action) {
                used_slots.push(slot);
                actors.push(actor);
                clauses.push(clause);
            }
        }

        let mut truth = Scenario::new(ego, road.kind());
        truth.actors = clauses;
        debug_assert!(truth.validate().is_ok(), "generator produced invalid SDL: {truth}");

        let world = World { road, ego: plan.setup, actors, duration: self.cfg.duration };
        GeneratedScenario { world, truth }
    }
}

/// Ego maneuvers realizable on each road kind.
pub fn ego_maneuvers_for(road: RoadKind) -> &'static [EgoManeuver] {
    match road {
        RoadKind::Straight => &[
            EgoManeuver::Cruise,
            EgoManeuver::DecelerateToStop,
            EgoManeuver::Accelerate,
            EgoManeuver::LaneChangeLeft,
            EgoManeuver::LaneChangeRight,
        ],
        RoadKind::CurveLeft | RoadKind::CurveRight => {
            &[EgoManeuver::Cruise, EgoManeuver::DecelerateToStop, EgoManeuver::Accelerate]
        }
        RoadKind::Intersection => &[
            EgoManeuver::Cruise,
            EgoManeuver::DecelerateToStop,
            EgoManeuver::TurnLeft,
            EgoManeuver::TurnRight,
            EgoManeuver::Accelerate,
        ],
    }
}

/// Concrete ego plan derived from a maneuver.
#[derive(Debug, Clone)]
struct EgoPlan {
    setup: EgoSetup,
    /// Cruise-equivalent speed used to time the actor events.
    nominal_speed: f32,
    /// Slots the ego plan itself occupies.
    occupied_slots: Vec<Slot>,
    /// Arc length of the ego stop line, if the plan stops.
    stop_s: Option<f32>,
}

impl EgoPlan {
    fn build(rng: &mut impl Rng, road: &RoadLayout, ego: EgoManeuver) -> EgoPlan {
        let v: f32 = rng.random_range(7.0..9.0);
        match ego {
            EgoManeuver::Cruise => EgoPlan {
                setup: EgoSetup {
                    path: road.ego_lane().clone(),
                    profile: SpeedProfile::Constant(v),
                    start_s: rng.random_range(15.0..25.0),
                    start_speed: v,
                },
                nominal_speed: v,
                occupied_slots: vec![],
                stop_s: None,
            },
            EgoManeuver::DecelerateToStop => {
                let start_s = rng.random_range(15.0..22.0);
                // Stop 28-40 m ahead so the vehicle is fully at rest well
                // before the clip ends (the stop must be *observable*).
                let stop_s = start_s + rng.random_range(28.0..40.0);
                EgoPlan {
                    setup: EgoSetup {
                        path: road.ego_lane().clone(),
                        profile: SpeedProfile::StopAt { cruise: v, stop_s, decel: 2.5 },
                        start_s,
                        start_speed: v,
                    },
                    nominal_speed: v,
                    occupied_slots: vec![],
                    stop_s: Some(stop_s),
                }
            }
            EgoManeuver::Accelerate => {
                let v0 = rng.random_range(2.0..3.5);
                let start_s = rng.random_range(15.0..25.0);
                EgoPlan {
                    setup: EgoSetup {
                        path: road.ego_lane().clone(),
                        profile: SpeedProfile::Accelerate {
                            from: v0,
                            to: v,
                            start_s: start_s + rng.random_range(5.0..12.0),
                            accel: 2.0,
                        },
                        start_s,
                        start_speed: v0,
                    },
                    nominal_speed: (v0 + v) / 2.0,
                    occupied_slots: vec![],
                    stop_s: None,
                }
            }
            EgoManeuver::LaneChangeLeft | EgoManeuver::LaneChangeRight => {
                let left = ego == EgoManeuver::LaneChangeLeft;
                // Ego default lane x = 5.25 (right), left lane x = 1.75.
                let (x0, lateral) = if left {
                    (LANE_WIDTH + HALF_LANE, LANE_WIDTH)
                } else {
                    (HALF_LANE, -LANE_WIDTH)
                };
                let north = std::f32::consts::FRAC_PI_2;
                let start_s = rng.random_range(15.0..22.0);
                let change_at = start_s + rng.random_range(15.0..25.0);
                let pre = Path::line(Vec2::new(x0, -APPROACH_LEN), north, change_at + 5.0);
                let change_start = pre.end();
                let change = Path::lane_change(change_start, north, 28.0, lateral);
                let post = Path::line(change.end(), north, 80.0);
                let path = pre.then(&change).then(&post);
                EgoPlan {
                    setup: EgoSetup {
                        path,
                        profile: SpeedProfile::Constant(v),
                        start_s,
                        start_speed: v,
                    },
                    nominal_speed: v,
                    // A lane change sweeps both same-direction lanes, so it
                    // conflicts with every ahead/left placement.
                    occupied_slots: vec![Slot::LeftLane, Slot::EgoLaneAhead],
                    stop_s: None,
                }
            }
            EgoManeuver::TurnLeft | EgoManeuver::TurnRight => {
                let path = if ego == EgoManeuver::TurnLeft {
                    road.ego_turn_left().expect("turn requires an intersection")
                } else {
                    road.ego_turn_right().expect("turn requires an intersection")
                };
                let vt = rng.random_range(5.5..6.5);
                EgoPlan {
                    setup: EgoSetup {
                        path,
                        profile: SpeedProfile::Constant(vt),
                        start_s: rng.random_range(28.0..36.0),
                        start_speed: vt,
                    },
                    nominal_speed: vt,
                    occupied_slots: vec![Slot::CrossPath],
                    stop_s: None,
                }
            }
        }
    }
}

/// Events available on `road` under ego maneuver `ego`, excluding occupied
/// slots. Returns `(kind, action, slot)` triples.
fn compatible_events(
    road: RoadKind,
    ego: EgoManeuver,
    used: &[Slot],
) -> Vec<(ActorKind, ActorAction, Slot)> {
    use ActorAction as A;
    use ActorKind as K;
    let straight = road == RoadKind::Straight;
    let intersection = road == RoadKind::Intersection;
    let ego_stops = ego == EgoManeuver::DecelerateToStop;
    let ego_turns = matches!(ego, EgoManeuver::TurnLeft | EgoManeuver::TurnRight);

    let mut out = Vec::new();
    // Entries are repeated `weight` times so that rarer, road-gated events
    // (cut-ins, crossings, overtakes) keep reasonable support in the label
    // distribution despite being available less often.
    let mut push = |k: K, a: A, s: Slot, weight: usize| {
        if !used.contains(&s) {
            for _ in 0..weight {
                out.push((k, a, s));
            }
        }
    };

    if !ego_turns {
        push(K::Vehicle, A::Leading, Slot::EgoLaneAhead, 2);
    }
    // `following` is deliberately NOT sampled: the ego camera faces forward,
    // so a vehicle behind the ego is never visible and the class would be
    // unlearnable from pixels. The SDL taxonomy keeps the class; the dataset
    // gives it zero support (documented in DESIGN.md).
    push(K::Vehicle, A::Oncoming, Slot::OncomingLane, 1);
    push(K::Cyclist, A::Oncoming, Slot::OncomingLane, 1);
    push(K::Pedestrian, A::Stopped, Slot::Roadside, 1);
    if straight {
        push(K::Vehicle, A::CutIn, Slot::LeftLane, 3);
        push(K::Vehicle, A::Overtaking, Slot::LeftLane, 3);
        // A cyclist stays "leading" only if the ego never overtakes it, so
        // require an ego maneuver whose average speed is cyclist-like.
        if matches!(ego, EgoManeuver::DecelerateToStop | EgoManeuver::Accelerate) {
            push(K::Cyclist, A::Leading, Slot::Roadside, 2);
        }
    }
    if ego_stops {
        push(K::Vehicle, A::Stopped, Slot::EgoLaneAhead, 2);
        push(K::Pedestrian, A::Crossing, Slot::CrossPath, 3);
    }
    if intersection && !ego_turns {
        // Crossing traffic is the signature intersection event; pedestrians
        // only cross when the ego stops (clearance guaranteed above).
        push(K::Vehicle, A::Crossing, Slot::CrossPath, 3);
        push(K::Cyclist, A::Crossing, Slot::CrossPath, 2);
    }
    out
}

/// Builds the actor and SDL clause realizing `(kind, action)`.
///
/// Returns `None` when the event cannot be realized with the sampled ego
/// plan (callers simply skip the event).
fn place_event(
    rng: &mut impl Rng,
    road: &RoadLayout,
    plan: &EgoPlan,
    kind: ActorKind,
    action: ActorAction,
) -> Option<(Actor, ActorClause)> {
    use ActorAction as A;
    use ActorKind as K;
    let north = std::f32::consts::FRAC_PI_2;
    let v_ego = plan.nominal_speed;
    let ego_start = plan.setup.start_s;

    let result = match (kind, action) {
        (K::Vehicle, A::Leading) => {
            let gap = rng.random_range(20.0..30.0);
            let v = v_ego * rng.random_range(0.85..0.95);
            let actor = Actor::new(kind, plan.setup.path.clone(), SpeedProfile::Constant(v))
                .starting_at(ego_start + gap);
            (actor, ActorClause::at(kind, action, Position::Ahead))
        }
        (K::Vehicle, A::Following) => {
            let gap = rng.random_range(18.0..28.0);
            let v = v_ego * rng.random_range(0.85..0.95);
            // If the ego stops, the follower must pull up behind it.
            let profile = match plan.stop_s {
                Some(stop_s) => SpeedProfile::StopAt {
                    cruise: v,
                    stop_s: stop_s - rng.random_range(8.0..11.0),
                    decel: 2.5,
                },
                None => SpeedProfile::Constant(v),
            };
            let actor = Actor::new(kind, plan.setup.path.clone(), profile)
                .starting_at((ego_start - gap).max(0.0));
            (actor, ActorClause::at(kind, action, Position::Behind))
        }
        (K::Vehicle, A::Oncoming) | (K::Cyclist, A::Oncoming) => {
            let lane = road.oncoming_lane();
            let v = if kind == K::Vehicle {
                rng.random_range(7.0..9.0)
            } else {
                rng.random_range(4.0..5.5)
            };
            // Meet the ego mid-clip: both close the gap together.
            let t_meet = rng.random_range(3.0..5.0);
            let ego_travel = v_ego * t_meet;
            // Ego world position at the meet, measured on its own path.
            let ego_meet = plan.setup.path.pose_at(ego_start + ego_travel).position;
            // Start the actor so it reaches the ego's y at t_meet.
            let meet_s = lane.project(ego_meet);
            let s0 = (meet_s - v * t_meet).max(0.0);
            let actor = Actor::new(kind, lane.clone(), SpeedProfile::Constant(v)).starting_at(s0);
            (actor, ActorClause::at(kind, action, Position::Ahead))
        }
        (K::Vehicle, A::CutIn) => {
            // Start in the left lane slightly ahead, merge into the ego lane.
            let gap = rng.random_range(10.0..16.0);
            let v = v_ego * rng.random_range(1.0..1.1);
            let x_left = HALF_LANE;
            let start_y = -APPROACH_LEN;
            let merge_after = ego_start + gap + rng.random_range(8.0..15.0);
            let pre = Path::line(Vec2::new(x_left, start_y), north, merge_after);
            let change = Path::lane_change(pre.end(), north, 25.0, -LANE_WIDTH);
            let post = Path::line(change.end(), north, 90.0);
            let path = pre.then(&change).then(&post);
            let actor =
                Actor::new(kind, path, SpeedProfile::Constant(v)).starting_at(ego_start + gap);
            (actor, ActorClause::at(kind, action, Position::Ahead))
        }
        (K::Vehicle, A::Overtaking) => {
            let lane = road.ego_left_lane()?.clone();
            let v = v_ego * rng.random_range(1.35..1.6);
            let behind = rng.random_range(12.0..18.0);
            let actor = Actor::new(kind, lane, SpeedProfile::Constant(v))
                .starting_at((ego_start - behind).max(0.0));
            (actor, ActorClause::at(kind, action, Position::Left))
        }
        (K::Vehicle, A::Stopped) => {
            // Stationary in the ego lane just past the ego stop line.
            let stop_s = plan.stop_s?;
            let actor = Actor::new(kind, plan.setup.path.clone(), SpeedProfile::Constant(0.0))
                .starting_at(stop_s + rng.random_range(8.0..12.0));
            (actor, ActorClause::at(kind, action, Position::Ahead))
        }
        (K::Pedestrian, A::Crossing) => {
            // Pedestrian crosswalk just beyond the ego stop line.
            let stop_s = plan.stop_s?;
            let cross_pose = plan.setup.path.pose_at(stop_s + 6.0);
            let y_c = cross_pose.position.y;
            let from_right = rng.random_range(0.0..1.0) < 0.5;
            let (x0, heading) =
                if from_right { (10.0, std::f32::consts::PI) } else { (-10.0, 0.0) };
            let path = Path::line(Vec2::new(x0, y_c), heading, 20.0);
            let v = rng.random_range(1.2..1.8);
            let actor = Actor::new(kind, path, SpeedProfile::Constant(v))
                .delayed(rng.random_range(0.0..1.0));
            let pos = if from_right { Position::Right } else { Position::Left };
            (actor, ActorClause::at(kind, action, pos))
        }
        (K::Vehicle, A::Crossing) | (K::Cyclist, A::Crossing) => {
            // Cross street traffic at the intersection, timed to clear the
            // box before the ego arrives.
            let from_west = rng.random_range(0.0..1.0) < 0.5;
            let lane = if from_west { road.cross_east()? } else { road.cross_west()? };
            let v = if kind == K::Vehicle {
                rng.random_range(7.0..9.0)
            } else {
                rng.random_range(3.5..4.5)
            };
            // Ego reaches the intersection box (s where y ~ -8) at:
            let ego_box_s = plan.setup.path.project(Vec2::new(HALF_LANE, -8.0));
            let t_ego_arrive = ((ego_box_s - ego_start) / v_ego).max(0.0);
            // The crosser should be through the box by then (or the ego is
            // stopping anyway).
            let t_cross = if plan.stop_s.is_some() {
                rng.random_range(2.0..5.0)
            } else {
                rng.random_range(1.0..(t_ego_arrive - 1.5).max(1.2))
            };
            // Arc length where the lane crosses the ego path (x = 1.75).
            let cross_s =
                lane.project(Vec2::new(HALF_LANE, if from_west { -HALF_LANE } else { HALF_LANE }));
            let s0 = (cross_s - v * t_cross).max(0.0);
            let actor = Actor::new(kind, lane.clone(), SpeedProfile::Constant(v)).starting_at(s0);
            let pos = if from_west { Position::Left } else { Position::Right };
            (actor, ActorClause::at(kind, action, pos))
        }
        (K::Pedestrian, A::Stopped) => {
            // Standing at the roadside, ahead right of the ego.
            let ahead = rng.random_range(25.0..45.0);
            let base = plan.setup.path.pose_at(ego_start + ahead);
            let side = base.local_to_world(Vec2::new(0.0, -(LANE_WIDTH + 2.0)));
            // A degenerate two-point path; the actor never moves.
            let path = Path::line(side, north, 1.0);
            let actor = Actor::new(kind, path, SpeedProfile::Constant(0.0));
            (actor, ActorClause::at(kind, action, Position::Right))
        }
        (K::Cyclist, A::Leading) => {
            // Riding at the right lane edge ahead of the ego.
            let edge_x = LANE_WIDTH + HALF_LANE + 1.2;
            let path = Path::line(Vec2::new(edge_x, -APPROACH_LEN), north, 190.0);
            let v = rng.random_range(4.0..5.0);
            let ahead = rng.random_range(15.0..25.0);
            let actor =
                Actor::new(kind, path, SpeedProfile::Constant(v)).starting_at(ego_start + ahead);
            (actor, ActorClause::at(kind, action, Position::Ahead))
        }
        _ => return None,
    };
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_scenarios_are_valid_sdl() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let g = sampler.sample(&mut rng);
            g.truth.validate().expect("generator must produce valid SDL");
            assert!(g.world.duration > 0.0);
        }
    }

    #[test]
    fn road_kind_matches_truth() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let g = sampler.sample(&mut rng);
            assert_eq!(g.world.road.kind(), g.truth.road);
        }
    }

    #[test]
    fn actor_count_matches_clauses() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let g = sampler.sample(&mut rng);
            assert_eq!(g.world.actors.len(), g.truth.actors.len());
            assert!(g.truth.actors.len() <= 2);
        }
    }

    #[test]
    fn turns_only_happen_at_intersections() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let g = sampler.sample(&mut rng);
            if matches!(g.truth.ego, EgoManeuver::TurnLeft | EgoManeuver::TurnRight) {
                assert_eq!(g.truth.road, RoadKind::Intersection);
            }
            if matches!(g.truth.ego, EgoManeuver::LaneChangeLeft | EgoManeuver::LaneChangeRight) {
                assert_eq!(g.truth.road, RoadKind::Straight);
            }
        }
    }

    #[test]
    fn fixed_spec_sampling_respects_request() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let g = sampler.sample_with(&mut rng, RoadKind::Intersection, EgoManeuver::TurnLeft);
        assert_eq!(g.truth.ego, EgoManeuver::TurnLeft);
        assert_eq!(g.truth.road, RoadKind::Intersection);
    }

    #[test]
    #[should_panic]
    fn fixed_spec_rejects_impossible_combo() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        sampler.sample_with(&mut rng, RoadKind::Straight, EgoManeuver::TurnLeft);
    }

    #[test]
    fn deterministic_under_seed() {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let a = sampler.sample(&mut StdRng::seed_from_u64(9));
        let b = sampler.sample(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.world.actors.len(), b.world.actors.len());
    }

    #[test]
    fn no_actor_overlaps_ego_during_simulation() {
        // Core physical-consistency property: sampled scenarios are
        // collision-free for the ego vehicle.
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..60 {
            let g = sampler.sample(&mut rng);
            let traj = g.world.simulate(0.1);
            for (step, ego) in traj.ego.iter().enumerate() {
                for (ai, states) in traj.actors.iter().enumerate() {
                    let a = states[step];
                    if !a.active {
                        continue;
                    }
                    let d = ego.pose.position.distance(a.pose.position);
                    assert!(
                        d > 1.2,
                        "collision in sample {i}: actor {ai} ({:?}) at step {step}, d={d:.2}, truth={}",
                        g.world.actors[ai].kind,
                        g.truth
                    );
                }
            }
        }
    }
}
