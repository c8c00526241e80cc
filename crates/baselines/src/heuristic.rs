//! Non-learned heuristic baseline: hand-written rules over pixel
//! statistics.
//!
//! The heuristic sees exactly the same videos as the learned models and
//! mirrors a pre-ML pipeline: it normalizes global brightness against the
//! sky, detects actors with intensity-band detectors, estimates "came to
//! rest" from inter-frame differences, reads turns from scene streaming,
//! and classifies the road by inverse-projecting road-intensity pixels to
//! ground coordinates. It anchors the bottom of every comparison table.
//!
//! Known blind spots (by design — they motivate the learned models):
//! `accelerate` is indistinguishable from `cruise` at 1 Hz frame spacing
//! (dash-marking aliasing makes inter-frame differences speed-blind),
//! curve direction and cross-street evidence sit near the 32×32
//! discretization limit, and fine-grained vehicle actions depend on
//! fragile blob tracking.

use tsdx_data::{ClipLabels, POSITION_NONE};
use tsdx_sdl::{vocab, ActorAction, ActorKind, EgoManeuver, Position, RoadKind};
use tsdx_tensor::Tensor;

/// "Came to rest": min of the last two motion pairs below this fraction of
/// the maximum pair.
const REST_RATIO: f32 = 0.47;
/// Inter-frame scene-streaming (px) that counts as a turn.
const TURN_STREAM_PX: f32 = 3.0;
/// Inter-frame scene-streaming (px) that counts as a lane change.
const LANE_STREAM_PX: f32 = 1.2;
/// Far-field road pixels per side (whole clip) that flag a cross street.
const CROSS_PX: usize = 6;
/// Near-probe road width (px) above which the carriageway is the wide
/// straight layout.
const WIDE_ROAD_PX: usize = 14;
/// Far-probe road centroid offset (px from center) below which the road
/// curves left.
const CURVE_OFFSET_PX: f32 = -3.0;
/// Minimum total pixels for an actor detection (half of it for a
/// pedestrian).
const MIN_BLOB: usize = 6;

/// The rule-based extractor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeuristicExtractor;

/// Camera intrinsics assumed by the rules (matching
/// `tsdx_render::Camera::standard`).
#[derive(Debug, Clone, Copy)]
struct Intrinsics {
    focal: f32,
    horizon: f32,
    cam_height: f32,
    cx: f32,
}

#[derive(Debug, Clone, Copy, Default)]
struct FrameStats {
    vehicle_px: usize,
    vehicle_col: f32,
    cyclist_px: usize,
    cyclist_col: f32,
    ped_px: usize,
    ped_col: f32,
    marking_col_sum: f32,
    marking_px: usize,
    /// Road-surface pixels and column sum in the near probe row (~11 m).
    near_road_px: usize,
    near_road_col_sum: f32,
    /// Road-surface pixels and column sum in the far probe row (~21 m).
    far_road_px: usize,
    far_road_col_sum: f32,
    cross_left: usize,
    cross_right: usize,
}

impl HeuristicExtractor {
    /// Predicts head labels for one `[T, H, W]` video.
    pub fn predict(&self, video: &Tensor) -> ClipLabels {
        let sh = video.shape();
        assert_eq!(sh.len(), 3, "expected [T, H, W] video");
        let (t, h, w) = (sh[0], sh[1], sh[2]);
        assert!(t >= 3, "heuristic needs at least three frames");
        let intr = Intrinsics {
            focal: w as f32 / 2.0,
            horizon: h as f32 * 0.42,
            cam_height: 1.4,
            cx: w as f32 / 2.0,
        };

        // Brightness normalization against the sky (top two rows).
        let delta = sky_brightness_delta(video, t, h, w);

        let stats: Vec<FrameStats> =
            (0..t).map(|f| frame_stats(video, f, h, w, &intr, delta)).collect();
        let motion = motion_energy(video, t, h, w);

        // --- ego: came to rest? ---------------------------------------------
        // A stopped clip's final frame pairs bottom out at the sensor-noise
        // floor, well below the peak motion of the moving phase.
        let peak = motion.iter().fold(0.0f32, |a, &b| a.max(b));
        let rest = motion[motion.len() - 2..].iter().fold(f32::INFINITY, |a, &b| a.min(b));
        let stopped = peak > 1e-5 && rest < REST_RATIO * peak;

        // --- scene streaming (marking centroid inter-frame drift) -----------
        let mut best_stream = 0.0f32;
        for win in stats.windows(2) {
            let (a, b) = (&win[0], &win[1]);
            if a.marking_px > 0 && b.marking_px > 0 {
                let d = b.marking_col_sum / b.marking_px as f32
                    - a.marking_col_sum / a.marking_px as f32;
                if d.abs() > best_stream.abs() {
                    best_stream = d;
                }
            }
        }

        // --- road kind --------------------------------------------------------
        // 1. A cross street paints road intensity far outside the ego
        //    carriageway on *both* sides.
        // 2. The ego carriageway is four lanes wide on straight roads but
        //    two on curves, so the near-probe road width separates them.
        // 3. Curve side comes from the far-probe road centroid: a left
        //    curve pulls the distant road left of the image center.
        let cross_l: usize = stats.iter().map(|s| s.cross_left).sum();
        let cross_r: usize = stats.iter().map(|s| s.cross_right).sum();
        let near_width = stats.iter().map(|s| s.near_road_px).max().unwrap_or(0);
        let far_centroid_off = {
            let px: usize = stats.iter().map(|s| s.far_road_px).sum();
            if px > 0 {
                stats.iter().map(|s| s.far_road_col_sum).sum::<f32>() / px as f32 - intr.cx
            } else {
                0.0
            }
        };
        let road = if cross_l >= CROSS_PX && cross_r >= CROSS_PX {
            RoadKind::Intersection
        } else if near_width >= WIDE_ROAD_PX {
            RoadKind::Straight
        } else if far_centroid_off < CURVE_OFFSET_PX {
            RoadKind::CurveLeft
        } else {
            RoadKind::CurveRight
        };

        // --- ego maneuver ------------------------------------------------------
        let ego = if stopped {
            EgoManeuver::DecelerateToStop
        } else if road == RoadKind::Intersection && best_stream.abs() > TURN_STREAM_PX {
            // Rotating left makes the scene stream right (+columns).
            if best_stream > 0.0 {
                EgoManeuver::TurnLeft
            } else {
                EgoManeuver::TurnRight
            }
        } else if road == RoadKind::Straight && best_stream.abs() > LANE_STREAM_PX {
            if best_stream > 0.0 {
                EgoManeuver::LaneChangeLeft
            } else {
                EgoManeuver::LaneChangeRight
            }
        } else {
            EgoManeuver::Cruise
        };

        // --- actors -------------------------------------------------------------
        let total = |f: fn(&FrameStats) -> usize| -> usize { stats.iter().map(f).sum() };
        let ped_total = total(|s| s.ped_px);
        let veh_total = total(|s| s.vehicle_px);
        let cyc_total = total(|s| s.cyclist_px);

        let mut presence = [0.0f32; 3];
        if veh_total >= MIN_BLOB {
            presence[ActorKind::Vehicle.index()] = 1.0;
        }
        if ped_total >= MIN_BLOB / 2 {
            presence[ActorKind::Pedestrian.index()] = 1.0;
        }
        if cyc_total >= MIN_BLOB {
            presence[ActorKind::Cyclist.index()] = 1.0;
        }

        let (event, position) = if presence[ActorKind::Pedestrian.index()] > 0.5 {
            let (action, pos) =
                classify_blob(&stats, |s| (s.ped_px, s.ped_col), ActorKind::Pedestrian, w);
            (vocab::event_index(ActorKind::Pedestrian, action).unwrap_or(vocab::EVENT_NONE), pos)
        } else if presence[ActorKind::Vehicle.index()] > 0.5 {
            let (action, pos) =
                classify_blob(&stats, |s| (s.vehicle_px, s.vehicle_col), ActorKind::Vehicle, w);
            (vocab::event_index(ActorKind::Vehicle, action).unwrap_or(vocab::EVENT_NONE), pos)
        } else if presence[ActorKind::Cyclist.index()] > 0.5 {
            let (action, pos) =
                classify_blob(&stats, |s| (s.cyclist_px, s.cyclist_col), ActorKind::Cyclist, w);
            (vocab::event_index(ActorKind::Cyclist, action).unwrap_or(vocab::EVENT_NONE), pos)
        } else {
            (vocab::EVENT_NONE, POSITION_NONE)
        };

        ClipLabels { ego: ego.index(), road: road.index(), event, position, presence }
    }

    /// Baseline display name.
    pub fn name(&self) -> &'static str {
        "heuristic"
    }
}

/// Estimated global brightness shift, measured against the known sky
/// gradient of the renderer.
fn sky_brightness_delta(video: &Tensor, t: usize, h: usize, w: usize) -> f32 {
    let data = video.data();
    let mut sum = 0.0;
    let mut n = 0usize;
    for f in 0..t {
        for r in 0..2usize {
            let row = &data[(f * h + r) * w..(f * h + r + 1) * w];
            sum += row.iter().sum::<f32>();
            n += w;
        }
    }
    // Expected sky intensity for the top two rows.
    let expected = 0.75 - 0.08 * (0.5 + 1.5) / 2.0 / (h as f32 * 0.42);
    sum / n as f32 - expected
}

fn classify_blob(
    stats: &[FrameStats],
    get: impl Fn(&FrameStats) -> (usize, f32),
    kind: ActorKind,
    w: usize,
) -> (ActorAction, usize) {
    let visible: Vec<(usize, f32)> = stats.iter().map(&get).filter(|&(px, _)| px > 0).collect();
    if visible.is_empty() {
        return (ActorAction::Stopped, POSITION_NONE);
    }
    let (first_px, first_col) = visible[0];
    let (last_px, last_col) = *visible.last().expect("non-empty");
    let col_drift = (last_col - first_col) / w as f32;
    let growth = last_px as f32 / first_px.max(1) as f32;
    let center_off = (first_col - w as f32 / 2.0) / w as f32;

    let action = match kind {
        ActorKind::Pedestrian => {
            if col_drift.abs() > 0.08 {
                ActorAction::Crossing
            } else {
                ActorAction::Stopped
            }
        }
        ActorKind::Cyclist => {
            if col_drift.abs() > 0.12 {
                ActorAction::Crossing
            } else if growth > 2.5 {
                ActorAction::Oncoming
            } else {
                ActorAction::Leading
            }
        }
        ActorKind::Vehicle => {
            if col_drift.abs() > 0.20 {
                ActorAction::Crossing
            } else if growth > 2.5 {
                ActorAction::Oncoming
            } else if center_off < -0.20 {
                ActorAction::Overtaking
            } else if center_off > 0.20 {
                ActorAction::CutIn
            } else {
                ActorAction::Leading
            }
        }
    };
    let position = if center_off < -0.15 {
        Position::Left.index()
    } else if center_off > 0.15 {
        Position::Right.index()
    } else {
        Position::Ahead.index()
    };
    (action, position)
}

fn frame_stats(
    video: &Tensor,
    f: usize,
    h: usize,
    w: usize,
    intr: &Intrinsics,
    delta: f32,
) -> FrameStats {
    let data = &video.data()[f * h * w..(f + 1) * h * w];
    let mut s = FrameStats::default();
    let mut sums = [0.0f32; 3]; // vehicle, cyclist, ped column sums
    let horizon = intr.horizon;
    for r in 0..h {
        let rowc = r as f32 + 0.5;
        let below = rowc > horizon + 0.5;
        // Ground geometry for this row.
        let (fwd, valid_ground) = if below {
            (intr.focal * intr.cam_height / (rowc - horizon), true)
        } else {
            (0.0, false)
        };
        for c in 0..w {
            let v = data[r * w + c] - delta;
            let colc = c as f32 + 0.5;
            if !below {
                // Above the horizon only the sky and heads/torsos of near
                // pedestrians appear; markings cannot.
                if v > 0.80 {
                    s.ped_px += 1;
                    sums[2] += colc;
                }
                continue;
            }
            if (0.80..=0.96).contains(&v) {
                s.marking_px += 1;
                s.marking_col_sum += colc;
            } else if v > 0.96 {
                // Very bright below horizon: near pedestrian body.
                s.ped_px += 1;
                sums[2] += colc;
            } else if (0.555..0.74).contains(&v) {
                s.vehicle_px += 1;
                sums[0] += colc;
            } else if (0.455..0.555).contains(&v) {
                s.cyclist_px += 1;
                sums[1] += colc;
            } else if (0.33..0.455).contains(&v) && valid_ground {
                // Road-surface pixel: probe rows for width/centroid, and
                // inverse-project for far-lateral cross-street evidence.
                if (9.0..13.0).contains(&fwd) {
                    s.near_road_px += 1;
                    s.near_road_col_sum += colc;
                } else if (15.0..28.0).contains(&fwd) {
                    s.far_road_px += 1;
                    s.far_road_col_sum += colc;
                }
                if (6.0..45.0).contains(&fwd) {
                    let lateral = -(colc - intr.cx) * fwd / intr.focal;
                    if lateral > 12.6 {
                        s.cross_left += 1;
                    } else if lateral < -12.6 {
                        s.cross_right += 1;
                    }
                }
            }
        }
    }
    if s.vehicle_px > 0 {
        s.vehicle_col = sums[0] / s.vehicle_px as f32;
    }
    if s.cyclist_px > 0 {
        s.cyclist_col = sums[1] / s.cyclist_px as f32;
    }
    if s.ped_px > 0 {
        s.ped_col = sums[2] / s.ped_px as f32;
    }
    s
}

/// Mean absolute inter-frame difference, one value per consecutive pair.
fn motion_energy(video: &Tensor, t: usize, h: usize, w: usize) -> Vec<f32> {
    let data = video.data();
    let hw = h * w;
    (0..t - 1)
        .map(|f| {
            let a = &data[f * hw..(f + 1) * hw];
            let b = &data[(f + 1) * hw..(f + 2) * hw];
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / hw as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_data::{generate_clip, Clip, DatasetConfig};
    use tsdx_render::RenderConfig;
    use tsdx_sim::{SamplerConfig, ScenarioSampler};

    fn clips_with(road: RoadKind, ego: EgoManeuver, n: usize) -> Vec<Clip> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let sampler = ScenarioSampler::new(SamplerConfig { duration: 8.0, max_events: 0 });
        let render = RenderConfig::default();
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                let g = sampler.sample_with(&mut rng, road, ego);
                let traj = g.world.simulate(0.1);
                let video = tsdx_render::render_video(&g.world, &traj, &render, &mut rng);
                let labels = ClipLabels::from_scenario(&g.truth);
                Clip { video, truth: g.truth, labels }
            })
            .collect()
    }

    #[test]
    fn detects_stopping_vs_cruising() {
        let h = HeuristicExtractor;
        let stops = clips_with(RoadKind::Straight, EgoManeuver::DecelerateToStop, 10);
        let cruises = clips_with(RoadKind::Straight, EgoManeuver::Cruise, 10);
        let stop_hits = stops
            .iter()
            .filter(|c| h.predict(&c.video).ego == EgoManeuver::DecelerateToStop.index())
            .count();
        let false_stops = cruises
            .iter()
            .filter(|c| h.predict(&c.video).ego == EgoManeuver::DecelerateToStop.index())
            .count();
        assert!(stop_hits >= 7, "missed stops: {stop_hits}/10");
        assert!(false_stops <= 2, "false stops: {false_stops}/10");
    }

    #[test]
    fn detects_intersections() {
        let h = HeuristicExtractor;
        let ix = clips_with(RoadKind::Intersection, EgoManeuver::Cruise, 8);
        let straight = clips_with(RoadKind::Straight, EgoManeuver::Cruise, 8);
        let hits = ix
            .iter()
            .filter(|c| h.predict(&c.video).road == RoadKind::Intersection.index())
            .count();
        let false_hits = straight
            .iter()
            .filter(|c| h.predict(&c.video).road == RoadKind::Intersection.index())
            .count();
        assert!(hits >= 2, "missed intersections: {hits}/8");
        assert!(false_hits <= 2, "phantom intersections: {false_hits}/8");
    }

    #[test]
    fn beats_chance_on_a_mixed_sample() {
        let cfg = DatasetConfig { n_clips: 60, ..DatasetConfig::default() };
        let clips: Vec<Clip> = (0..60).map(|i| generate_clip(&cfg, i)).collect();
        let h = HeuristicExtractor;
        let ego_ok = clips.iter().filter(|c| h.predict(&c.video).ego == c.labels.ego).count();
        let road_ok = clips.iter().filter(|c| h.predict(&c.video).road == c.labels.road).count();
        // Majority-class chance is ~30% for ego and ~25% for road.
        assert!(ego_ok as f32 / 60.0 > 0.3, "ego below chance: {ego_ok}/60");
        assert!(road_ok as f32 / 60.0 > 0.3, "road below chance: {road_ok}/60");
    }

    #[test]
    fn pedestrian_presence_is_detected() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let sampler = ScenarioSampler::new(SamplerConfig { duration: 8.0, max_events: 2 });
        let render = RenderConfig::default();
        let h = HeuristicExtractor;
        let mut with_ped = 0;
        let mut detected = 0;
        for i in 0..400 {
            let mut rng = StdRng::seed_from_u64(i);
            let g = sampler.sample(&mut rng);
            if !g.truth.actors.iter().any(|a| a.kind == ActorKind::Pedestrian) {
                continue;
            }
            with_ped += 1;
            let traj = g.world.simulate(0.1);
            let video = tsdx_render::render_video(&g.world, &traj, &render, &mut rng);
            if h.predict(&video).presence[ActorKind::Pedestrian.index()] > 0.5 {
                detected += 1;
            }
            if with_ped >= 15 {
                break;
            }
        }
        assert!(with_ped >= 8, "sampler produced too few pedestrians");
        assert!(detected * 2 >= with_ped, "pedestrian detector too weak: {detected}/{with_ped}");
    }

    #[test]
    fn output_labels_are_always_in_range() {
        let cfg = DatasetConfig { n_clips: 1, ..DatasetConfig::default() };
        let clip = generate_clip(&cfg, 0);
        let l = HeuristicExtractor.predict(&clip.video);
        assert!(l.ego < EgoManeuver::COUNT);
        assert!(l.road < RoadKind::COUNT);
        assert!(l.event < vocab::EVENT_COUNT);
        assert!(l.position <= POSITION_NONE);
        l.to_scenario().validate().unwrap();
    }
}
