//! Label-aware data augmentation.

use tsdx_sdl::{EgoManeuver, Position, RoadKind, Scenario};
use tsdx_tensor::Tensor;

use crate::clipgen::Clip;
use crate::labels::ClipLabels;

/// Mirrors a scenario left-to-right: lane changes, turns, curves, and
/// positions swap sides; everything else is invariant.
pub fn flip_scenario(s: &Scenario) -> Scenario {
    let ego = match s.ego {
        EgoManeuver::TurnLeft => EgoManeuver::TurnRight,
        EgoManeuver::TurnRight => EgoManeuver::TurnLeft,
        EgoManeuver::LaneChangeLeft => EgoManeuver::LaneChangeRight,
        EgoManeuver::LaneChangeRight => EgoManeuver::LaneChangeLeft,
        other => other,
    };
    let road = match s.road {
        RoadKind::CurveLeft => RoadKind::CurveRight,
        RoadKind::CurveRight => RoadKind::CurveLeft,
        other => other,
    };
    let actors = s
        .actors
        .iter()
        .map(|a| {
            let position = a.position.map(|p| match p {
                Position::Left => Position::Right,
                Position::Right => Position::Left,
                other => other,
            });
            tsdx_sdl::ActorClause { kind: a.kind, action: a.action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

/// Horizontally mirrors a `[T, H, W]` video tensor.
pub fn flip_video(video: &Tensor) -> Tensor {
    let sh = video.shape();
    assert_eq!(sh.len(), 3, "expected [T, H, W] video");
    let (t, h, w) = (sh[0], sh[1], sh[2]);
    let src = video.data();
    let mut out = Vec::with_capacity(src.len());
    for f in 0..t {
        for r in 0..h {
            let row = &src[(f * h + r) * w..(f * h + r + 1) * w];
            out.extend(row.iter().rev());
        }
    }
    Tensor::from_vec(out, sh)
}

/// Mirrors a full clip (video + labels consistently).
pub fn flip_clip(clip: &Clip) -> Clip {
    let truth = flip_scenario(&clip.truth);
    let labels = ClipLabels::from_scenario(&truth);
    Clip { video: flip_video(&clip.video), truth, labels }
}

/// Expands a training set with horizontal flips (doubling it) — the
/// standard augmentation for the extraction task.
pub fn augment_with_flips(clips: &[Clip]) -> Vec<Clip> {
    let mut out = Vec::with_capacity(clips.len() * 2);
    for c in clips {
        out.push(c.clone());
        out.push(flip_clip(c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_sdl::{ActorAction, ActorClause, ActorKind};

    #[test]
    fn flip_scenario_swaps_sided_labels() {
        let s = Scenario::new(EgoManeuver::TurnLeft, RoadKind::Intersection).with_actor(
            ActorClause::at(ActorKind::Pedestrian, ActorAction::Crossing, Position::Left),
        );
        let f = flip_scenario(&s);
        assert_eq!(f.ego, EgoManeuver::TurnRight);
        assert_eq!(f.actors[0].position, Some(Position::Right));
        // Double flip is identity.
        assert_eq!(flip_scenario(&f), s);
    }

    #[test]
    fn flip_scenario_preserves_unsided_labels() {
        let s = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight).with_actor(ActorClause::at(
            ActorKind::Vehicle,
            ActorAction::Leading,
            Position::Ahead,
        ));
        let f = flip_scenario(&s);
        assert_eq!(f, s);
    }

    #[test]
    fn flip_video_mirrors_columns() {
        let v = Tensor::from_fn(&[1, 2, 3], |i| i as f32);
        let f = flip_video(&v);
        assert_eq!(f.data(), &[2.0, 1.0, 0.0, 5.0, 4.0, 3.0]);
        // Involution.
        assert_eq!(flip_video(&f), v);
    }

    #[test]
    fn flipped_clip_labels_stay_consistent() {
        let truth = Scenario::new(EgoManeuver::LaneChangeLeft, RoadKind::Straight).with_actor(
            ActorClause::at(ActorKind::Vehicle, ActorAction::Overtaking, Position::Left),
        );
        let clip = Clip {
            video: Tensor::zeros(&[2, 4, 4]),
            labels: ClipLabels::from_scenario(&truth),
            truth,
        };
        let f = flip_clip(&clip);
        assert_eq!(f.labels, ClipLabels::from_scenario(&f.truth));
        assert_eq!(f.truth.ego, EgoManeuver::LaneChangeRight);
        assert_eq!(f.truth.actors[0].position, Some(Position::Right));
    }

    #[test]
    fn augment_doubles_the_set() {
        let truth = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        let clip = Clip {
            video: Tensor::zeros(&[1, 2, 2]),
            labels: ClipLabels::from_scenario(&truth),
            truth,
        };
        let out = augment_with_flips(&[clip]);
        assert_eq!(out.len(), 2);
    }
}
