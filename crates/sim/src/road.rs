//! Road layouts: lane geometry for each SDL road kind.
//!
//! All layouts are expressed in a common frame: the ego vehicle approaches
//! from the south heading north (+y), and the "anchor" of the layout (curve
//! onset, intersection center) sits at the origin. Right-hand traffic.

use std::f32::consts::FRAC_PI_2;

use tsdx_sdl::RoadKind;

use crate::geometry::Vec2;
use crate::path::Path;

/// Lane width in meters.
pub const LANE_WIDTH: f32 = 3.5;

/// Half a lane width: center offset of the innermost lane.
pub const HALF_LANE: f32 = LANE_WIDTH / 2.0;

/// Distance south of the anchor where ego-lane paths begin.
pub const APPROACH_LEN: f32 = 80.0;

/// Distance past the anchor where paths end.
const EXIT_LEN: f32 = 120.0;

/// Radius used for curved roads.
const CURVE_RADIUS: f32 = 45.0;

/// A drivable lane: an arc-length path at the lane center plus its width.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Center-line path in travel direction.
    pub center: Path,
    /// Lane width (m).
    pub width: f32,
}

/// Concrete geometry for one [`RoadKind`].
///
/// # Examples
///
/// ```
/// use tsdx_sdl::RoadKind;
/// use tsdx_sim::RoadLayout;
///
/// let road = RoadLayout::build(RoadKind::Intersection);
/// assert!(road.ego_lane().length() > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoadLayout {
    kind: RoadKind,
    ego_lane: Path,
    ego_left_lane: Option<Path>,
    oncoming_lane: Path,
    cross_east: Option<Path>,
    cross_west: Option<Path>,
    surfaces: Vec<Lane>,
    markings: Vec<Path>,
}

impl RoadLayout {
    /// Builds the canonical layout for `kind`.
    pub fn build(kind: RoadKind) -> Self {
        match kind {
            RoadKind::Straight => Self::straight(),
            RoadKind::CurveLeft => Self::curve(true),
            RoadKind::CurveRight => Self::curve(false),
            RoadKind::Intersection => Self::intersection(),
        }
    }

    /// Which SDL road kind this layout realizes.
    pub fn kind(&self) -> RoadKind {
        self.kind
    }

    /// The ego vehicle's default lane (rightmost same-direction lane),
    /// running from the southern approach to the northern exit.
    pub fn ego_lane(&self) -> &Path {
        &self.ego_lane
    }

    /// The same-direction lane left of the ego lane (straight roads only).
    pub fn ego_left_lane(&self) -> Option<&Path> {
        self.ego_left_lane.as_ref()
    }

    /// The opposing-traffic lane adjacent to the centerline, in *its* travel
    /// direction (north to south).
    pub fn oncoming_lane(&self) -> &Path {
        &self.oncoming_lane
    }

    /// Eastbound cross-street lane (intersections only).
    pub fn cross_east(&self) -> Option<&Path> {
        self.cross_east.as_ref()
    }

    /// Westbound cross-street lane (intersections only).
    pub fn cross_west(&self) -> Option<&Path> {
        self.cross_west.as_ref()
    }

    /// Paved surfaces for rendering (lane strips with widths).
    pub fn surfaces(&self) -> &[Lane] {
        &self.surfaces
    }

    /// Painted lane-marking polylines for rendering.
    pub fn markings(&self) -> &[Path] {
        &self.markings
    }

    /// Ego path for a right turn at the intersection: approach north, turn
    /// onto the eastbound lane.
    ///
    /// Returns `None` on non-intersection layouts.
    pub fn ego_turn_right(&self) -> Option<Path> {
        if self.kind != RoadKind::Intersection {
            return None;
        }
        // Approach in the ego lane up to the intersection edge, arc right
        // onto y = -HALF_LANE heading east, then exit east.
        let entry_y = -8.0;
        let approach =
            Path::line(Vec2::new(HALF_LANE, -APPROACH_LEN), FRAC_PI_2, APPROACH_LEN + entry_y);
        // Arc from (HALF_LANE, -8) to (8, -HALF_LANE): radius such that the
        // quarter arc meets both; center at (HALF_LANE + r, -8).
        let r = 8.0 - HALF_LANE;
        let arc = Path::arc(Vec2::new(HALF_LANE, entry_y), FRAC_PI_2, r, -FRAC_PI_2);
        let exit = Path::line(Vec2::new(8.0, -HALF_LANE), 0.0, EXIT_LEN);
        Some(approach.then(&arc).then(&exit))
    }

    /// Ego path for a left turn at the intersection: approach north, turn
    /// onto the westbound lane.
    ///
    /// Returns `None` on non-intersection layouts.
    pub fn ego_turn_left(&self) -> Option<Path> {
        if self.kind != RoadKind::Intersection {
            return None;
        }
        let entry_y = -8.0;
        let approach =
            Path::line(Vec2::new(HALF_LANE, -APPROACH_LEN), FRAC_PI_2, APPROACH_LEN + entry_y);
        // Arc from (HALF_LANE, -8) to (-8, HALF_LANE) heading west.
        let r = 8.0 + HALF_LANE;
        let arc = Path::arc(Vec2::new(HALF_LANE, entry_y), FRAC_PI_2, r, FRAC_PI_2);
        let exit = Path::line(Vec2::new(-8.0, HALF_LANE), std::f32::consts::PI, EXIT_LEN);
        Some(approach.then(&arc).then(&exit))
    }

    fn straight() -> Self {
        let north = FRAC_PI_2;
        let south = -FRAC_PI_2;
        let full = APPROACH_LEN + EXIT_LEN;
        let ego = Path::line(Vec2::new(LANE_WIDTH + HALF_LANE, -APPROACH_LEN), north, full);
        let ego_left = Path::line(Vec2::new(HALF_LANE, -APPROACH_LEN), north, full);
        let oncoming = Path::line(Vec2::new(-HALF_LANE, EXIT_LEN), south, full);
        let oncoming_outer = Path::line(Vec2::new(-LANE_WIDTH - HALF_LANE, EXIT_LEN), south, full);
        let center_marking = Path::line(Vec2::new(0.0, -APPROACH_LEN), north, full);
        let right_sep = Path::line(Vec2::new(LANE_WIDTH, -APPROACH_LEN), north, full);
        let left_sep = Path::line(Vec2::new(-LANE_WIDTH, -APPROACH_LEN), north, full);
        let surfaces = vec![
            Lane { center: ego.clone(), width: LANE_WIDTH },
            Lane { center: ego_left.clone(), width: LANE_WIDTH },
            Lane { center: oncoming.clone(), width: LANE_WIDTH },
            Lane { center: oncoming_outer, width: LANE_WIDTH },
        ];
        RoadLayout {
            kind: RoadKind::Straight,
            ego_lane: ego,
            ego_left_lane: Some(ego_left),
            oncoming_lane: oncoming,
            cross_east: None,
            cross_west: None,
            surfaces,
            markings: vec![center_marking, right_sep, left_sep],
        }
    }

    fn curve(left: bool) -> Self {
        let north = FRAC_PI_2;
        let sweep: f32 = if left { 1.2 } else { -1.2 };
        // Ego lane: straight approach then constant-radius arc.
        let build_lane = |x_off: f32, dir_north: bool| {
            // Lane offset from road centerline; arc radius adjusts so lanes
            // stay parallel: left curve center is west of the road.
            // All lanes share the curve center, so a lane east of the road
            // centerline has a larger radius on a left curve and a smaller
            // one on a right curve.
            let r = if left { CURVE_RADIUS + x_off } else { CURVE_RADIUS - x_off };
            if dir_north {
                let approach = Path::line(Vec2::new(x_off, -APPROACH_LEN), north, APPROACH_LEN);
                let arc = Path::arc(Vec2::new(x_off, 0.0), north, r, sweep);
                approach.then(&arc)
            } else {
                // Southbound: start at the arc end and come back. Build the
                // northbound geometry, then reverse its points.
                let approach = Path::line(Vec2::new(x_off, -APPROACH_LEN), north, APPROACH_LEN);
                let arc = Path::arc(Vec2::new(x_off, 0.0), north, r, sweep);
                let fwd = approach.then(&arc);
                let mut pts: Vec<Vec2> = fwd.points().to_vec();
                pts.reverse();
                Path::from_points(pts)
            }
        };
        let ego = build_lane(HALF_LANE, true);
        let oncoming = build_lane(-HALF_LANE, false);
        let marking = build_lane(0.0, true);
        let surfaces = vec![
            Lane { center: ego.clone(), width: LANE_WIDTH },
            Lane { center: build_lane(-HALF_LANE, true), width: LANE_WIDTH },
        ];
        RoadLayout {
            kind: if left { RoadKind::CurveLeft } else { RoadKind::CurveRight },
            ego_lane: ego,
            ego_left_lane: None,
            oncoming_lane: oncoming,
            cross_east: None,
            cross_west: None,
            surfaces,
            markings: vec![marking],
        }
    }

    fn intersection() -> Self {
        let north = FRAC_PI_2;
        let south = -FRAC_PI_2;
        let east = 0.0;
        let west = std::f32::consts::PI;
        let full = APPROACH_LEN + EXIT_LEN;
        let ego = Path::line(Vec2::new(HALF_LANE, -APPROACH_LEN), north, full);
        let oncoming = Path::line(Vec2::new(-HALF_LANE, EXIT_LEN), south, full);
        let cross_e = Path::line(Vec2::new(-APPROACH_LEN, -HALF_LANE), east, full);
        let cross_w = Path::line(Vec2::new(EXIT_LEN, HALF_LANE), west, full);
        let ns_marking = Path::line(Vec2::new(0.0, -APPROACH_LEN), north, full);
        let ew_marking = Path::line(Vec2::new(-APPROACH_LEN, 0.0), east, full);
        let surfaces = vec![
            Lane { center: ego.clone(), width: LANE_WIDTH },
            Lane { center: oncoming.clone(), width: LANE_WIDTH },
            Lane { center: cross_e.clone(), width: LANE_WIDTH },
            Lane { center: cross_w.clone(), width: LANE_WIDTH },
        ];
        RoadLayout {
            kind: RoadKind::Intersection,
            ego_lane: ego,
            ego_left_lane: None,
            oncoming_lane: oncoming,
            cross_east: Some(cross_e),
            cross_west: Some(cross_w),
            surfaces,
            markings: vec![ns_marking, ew_marking],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_lanes_are_parallel_and_offset() {
        let r = RoadLayout::build(RoadKind::Straight);
        assert_eq!(r.kind(), RoadKind::Straight);
        let ego_mid = r.ego_lane().pose_at(50.0);
        assert!((ego_mid.position.x - (LANE_WIDTH + HALF_LANE)).abs() < 1e-3);
        let left = r.ego_left_lane().unwrap().pose_at(50.0);
        assert!((left.position.x - HALF_LANE).abs() < 1e-3);
        // Oncoming lane heads south.
        let onc = r.oncoming_lane().pose_at(10.0);
        assert!((crate::geometry::wrap_angle(onc.heading + FRAC_PI_2)).abs() < 1e-3);
    }

    #[test]
    fn curves_bend_the_expected_way() {
        let l = RoadLayout::build(RoadKind::CurveLeft);
        let end = l.ego_lane().pose_at(l.ego_lane().length()).position;
        assert!(end.x < -5.0, "left curve should end west of start, got {end:?}");

        let r = RoadLayout::build(RoadKind::CurveRight);
        let end = r.ego_lane().pose_at(r.ego_lane().length()).position;
        assert!(end.x > 5.0, "right curve should end east of start, got {end:?}");
    }

    #[test]
    fn intersection_cross_lanes_cross_ego_path() {
        let ix = RoadLayout::build(RoadKind::Intersection);
        let ce = ix.cross_east().unwrap();
        // Eastbound lane passes south of the center, crossing x = HALF_LANE.
        let s = ce.project(Vec2::new(HALF_LANE, -HALF_LANE));
        let p = ce.pose_at(s).position;
        assert!(p.distance(Vec2::new(HALF_LANE, -HALF_LANE)) < 0.6);
        assert!(ix.cross_west().is_some());
        assert!(RoadLayout::build(RoadKind::Straight).cross_east().is_none());
    }

    #[test]
    fn turn_paths_join_cross_street_lanes() {
        let ix = RoadLayout::build(RoadKind::Intersection);
        let right = ix.ego_turn_right().unwrap();
        let end = right.pose_at(right.length());
        // Ends heading east on the eastbound lane.
        assert!((end.position.y - -HALF_LANE).abs() < 0.2, "{:?}", end.position);
        assert!(end.heading.abs() < 0.05);

        let left = ix.ego_turn_left().unwrap();
        let end = left.pose_at(left.length());
        assert!((end.position.y - HALF_LANE).abs() < 0.2, "{:?}", end.position);
        assert!((crate::geometry::wrap_angle(end.heading - std::f32::consts::PI)).abs() < 0.05);
    }

    #[test]
    fn turns_unavailable_off_intersections() {
        assert!(RoadLayout::build(RoadKind::Straight).ego_turn_left().is_none());
        assert!(RoadLayout::build(RoadKind::CurveLeft).ego_turn_right().is_none());
    }

    #[test]
    fn surfaces_and_markings_exist_for_all_kinds() {
        for kind in RoadKind::ALL {
            let r = RoadLayout::build(*kind);
            assert!(!r.surfaces().is_empty());
            assert!(!r.markings().is_empty());
        }
    }
}
