//! Ground-plane intensity map of a road layout.
//!
//! Rendering a frame inverse-projects every below-horizon pixel to a ground
//! point; sampling road geometry directly per pixel would be quadratic in
//! path length. Instead we rasterize the static road into a coarse grid —
//! painting along each lane path — and bilinearly sample it.
//!
//! A layout is a pure function of its [`RoadKind`], so a process needs at
//! most one map per kind: [`WorldMap::of`] rasterizes each the first time it
//! is asked for and shares it from then on.

use std::sync::OnceLock;

use tsdx_sdl::RoadKind;
use tsdx_sim::geometry::Vec2;
use tsdx_sim::RoadLayout;

/// Grayscale intensities of the static world.
pub mod intensity {
    /// Off-road terrain.
    pub const TERRAIN: f32 = 0.15;
    /// Paved road surface.
    pub const ROAD: f32 = 0.40;
    /// Painted lane marking.
    pub const MARKING: f32 = 0.90;
    /// Sky above the horizon.
    pub const SKY: f32 = 0.75;
}

/// A rasterized ground-plane intensity grid.
#[derive(Debug, Clone)]
pub struct WorldMap {
    origin: Vec2,
    cell: f32,
    cols: usize,
    rows: usize,
    data: Vec<f32>,
}

/// Painting step along paths (m).
const PAINT_STEP: f32 = 0.2;

/// Dash pattern period / duty for lane markings (m).
const DASH_PERIOD: f32 = 6.0;
const DASH_ON: f32 = 3.0;

impl WorldMap {
    /// Rasterizes `road` over the rectangle covering all its surfaces.
    pub fn build(road: &RoadLayout) -> Self {
        Self::build_with_cell(road, 0.25)
    }

    /// The map [`WorldMap::build`] makes of `road`, built the first time this
    /// process asks for `road`'s kind and shared from then on.
    ///
    /// Exact, not approximate: [`RoadLayout::build`] is a layout's only
    /// constructor and nothing mutates one, so every layout of a kind is the
    /// same layout and rasterizes to the same bits. Each of the
    /// [`RoadKind::COUNT`] maps is built at most once (0.5–3.2 MB each) and
    /// never invalidated; concurrent first calls for one kind build it once.
    pub fn of(road: &RoadLayout) -> &'static WorldMap {
        static MAPS: [OnceLock<WorldMap>; RoadKind::COUNT] =
            [const { OnceLock::new() }; RoadKind::COUNT];
        MAPS[road.kind().index()].get_or_init(|| WorldMap::build(road))
    }

    /// Like [`WorldMap::build`] with an explicit cell size (m).
    pub fn build_with_cell(road: &RoadLayout, cell: f32) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        // Bounding box over all surface centerlines, padded by road width
        // and a terrain margin.
        let mut min = Vec2::new(f32::INFINITY, f32::INFINITY);
        let mut max = Vec2::new(f32::NEG_INFINITY, f32::NEG_INFINITY);
        for lane in road.surfaces() {
            for p in lane.center.points() {
                min.x = min.x.min(p.x);
                min.y = min.y.min(p.y);
                max.x = max.x.max(p.x);
                max.y = max.y.max(p.y);
            }
        }
        let margin = 12.0;
        min = min - Vec2::new(margin, margin);
        max = max + Vec2::new(margin, margin);
        let cols = ((max.x - min.x) / cell).ceil() as usize + 1;
        let rows = ((max.y - min.y) / cell).ceil() as usize + 1;
        let mut map =
            WorldMap { origin: min, cell, cols, rows, data: vec![intensity::TERRAIN; cols * rows] };

        // Paint road surfaces, then markings on top.
        for lane in road.surfaces() {
            map.paint_strip(&lane.center, lane.width, intensity::ROAD, None);
        }
        for marking in road.markings() {
            map.paint_strip(marking, 0.3, intensity::MARKING, Some((DASH_PERIOD, DASH_ON)));
        }
        map
    }

    /// Paints a strip of `width` around `path`, optionally dashed by arc
    /// length `(period, on)`.
    fn paint_strip(
        &mut self,
        path: &tsdx_sim::Path,
        width: f32,
        value: f32,
        dash: Option<(f32, f32)>,
    ) {
        let half = width / 2.0;
        let mut s = 0.0;
        let len = path.length();
        while s <= len {
            if let Some((period, on)) = dash {
                if s % period >= on {
                    s += PAINT_STEP;
                    continue;
                }
            }
            let pose = path.pose_at(s);
            let left = pose.forward().perp();
            let mut off = -half;
            while off <= half {
                self.splat(pose.position + left * off, value);
                off += self.cell * 0.75;
            }
            s += PAINT_STEP;
        }
    }

    fn splat(&mut self, p: Vec2, value: f32) {
        let c = ((p.x - self.origin.x) / self.cell).round() as isize;
        let r = ((p.y - self.origin.y) / self.cell).round() as isize;
        if c >= 0 && (c as usize) < self.cols && r >= 0 && (r as usize) < self.rows {
            self.data[r as usize * self.cols + c as usize] = value;
        }
    }

    /// Bilinearly samples the map at a world point (terrain outside bounds).
    pub fn sample(&self, p: Vec2) -> f32 {
        let fx = (p.x - self.origin.x) / self.cell;
        let fy = (p.y - self.origin.y) / self.cell;
        if fx < 0.0 || fy < 0.0 {
            return intensity::TERRAIN;
        }
        let (x0, y0) = (fx.floor() as usize, fy.floor() as usize);
        if x0 + 1 >= self.cols || y0 + 1 >= self.rows {
            return intensity::TERRAIN;
        }
        let (tx, ty) = (fx - x0 as f32, fy - y0 as f32);
        let at = |x: usize, y: usize| self.data[y * self.cols + x];
        let top = at(x0, y0) * (1.0 - tx) + at(x0 + 1, y0) * tx;
        let bot = at(x0, y0 + 1) * (1.0 - tx) + at(x0 + 1, y0 + 1) * tx;
        top * (1.0 - ty) + bot * ty
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Cell size in meters.
    pub fn cell(&self) -> f32 {
        self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_sim::LANE_WIDTH;

    #[test]
    fn the_shared_map_of_a_kind_is_its_built_map_and_is_built_once() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &kind in RoadKind::ALL {
            let road = RoadLayout::build(kind);
            let (shared, built) = (WorldMap::of(&road), WorldMap::build(&road));
            assert_eq!(shared.dims(), built.dims(), "{kind:?}");
            assert_eq!(
                bits(&[shared.origin.x, shared.origin.y]),
                bits(&[built.origin.x, built.origin.y]),
                "{kind:?}"
            );
            assert_eq!(shared.cell.to_bits(), built.cell.to_bits(), "{kind:?}");
            assert!(bits(&shared.data) == bits(&built.data), "{kind:?}: a cell differs");
            assert!(std::ptr::eq(shared, WorldMap::of(&RoadLayout::build(kind))), "{kind:?}");
        }
    }

    #[test]
    fn road_cells_brighter_than_terrain() {
        let road = RoadLayout::build(RoadKind::Straight);
        let map = WorldMap::build(&road);
        // Ego lane center is road; far off-road is terrain.
        let on_road = map.sample(Vec2::new(LANE_WIDTH + LANE_WIDTH / 2.0, 0.0));
        let off_road = map.sample(Vec2::new(40.0, 0.0));
        assert!(on_road > 0.3, "expected road intensity, got {on_road}");
        assert!(off_road < 0.2, "expected terrain intensity, got {off_road}");
    }

    #[test]
    fn markings_are_brightest_where_dashed_on() {
        let road = RoadLayout::build(RoadKind::Straight);
        let map = WorldMap::build(&road);
        // Scan along the center marking: some cells must be bright.
        let bright =
            (0..200).map(|i| map.sample(Vec2::new(0.0, -80.0 + i as f32))).fold(0.0f32, f32::max);
        assert!(bright > 0.7, "no marking found along centerline: {bright}");
    }

    #[test]
    fn intersection_has_road_on_both_axes() {
        let road = RoadLayout::build(RoadKind::Intersection);
        let map = WorldMap::build(&road);
        assert!(map.sample(Vec2::new(1.75, -30.0)) > 0.3, "NS road");
        assert!(map.sample(Vec2::new(-30.0, -1.75)) > 0.3, "EW road");
        assert!(map.sample(Vec2::new(-30.0, -30.0)) < 0.2, "corner terrain");
    }

    #[test]
    fn curve_road_follows_the_bend() {
        let road = RoadLayout::build(RoadKind::CurveLeft);
        let map = WorldMap::build(&road);
        let lane = road.ego_lane();
        // Sample along the lane: everything should be painted road.
        for i in 0..20 {
            let s = lane.length() * i as f32 / 19.0;
            let p = lane.pose_at(s).position;
            let v = map.sample(p);
            assert!(v > 0.3, "gap in curve paint at s={s}: {v}");
        }
    }

    #[test]
    fn out_of_bounds_is_terrain() {
        let road = RoadLayout::build(RoadKind::Straight);
        let map = WorldMap::build(&road);
        assert_eq!(map.sample(Vec2::new(1e5, 1e5)), intensity::TERRAIN);
        assert_eq!(map.sample(Vec2::new(-1e5, 0.0)), intensity::TERRAIN);
    }
}
