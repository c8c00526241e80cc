//! Frame rasterization: ground plane plus actor billboards.

use tsdx_sdl::ActorKind;
use tsdx_sim::geometry::Pose;
use tsdx_sim::{body_size, ActorState, EgoState};
use tsdx_tensor::Tensor;

use crate::camera::Camera;
use crate::worldmap::{intensity, WorldMap};

/// Grayscale intensity of each actor kind (contrasting with road 0.40 and
/// markings 0.90).
pub fn actor_intensity(kind: ActorKind) -> f32 {
    match kind {
        ActorKind::Vehicle => 0.68,
        ActorKind::Cyclist => 0.55,
        ActorKind::Pedestrian => 1.0,
    }
}

/// Renders one grayscale frame (`[H, W]`, values in `[0, 1]`).
///
/// Ground and sky come from inverse projection into the [`WorldMap`];
/// actors are painted back-to-front as upright billboards whose apparent
/// width accounts for their orientation relative to the view ray.
pub fn render_frame(
    cam: &Camera,
    map: &WorldMap,
    ego: &EgoState,
    actors: &[(ActorKind, ActorState)],
) -> Tensor {
    let (w, h) = (cam.width, cam.height);
    let mut img = vec![0.0f32; w * h];

    // Ground + sky.
    for row in 0..h {
        for col in 0..w {
            let v = match cam.unproject_ground(col as f32 + 0.5, row as f32 + 0.5) {
                Some((fwd, left)) => {
                    let world = ego.pose.local_to_world(tsdx_sim::geometry::Vec2::new(fwd, left));
                    map.sample(world)
                }
                None => {
                    // Fade the sky slightly toward the horizon.
                    let t = row as f32 / cam.horizon_row.max(1.0);
                    intensity::SKY - 0.08 * t
                }
            };
            img[row * w + col] = v;
        }
    }

    // Painter's algorithm: farthest actors first.
    let mut order: Vec<usize> = (0..actors.len()).collect();
    let depth = |a: &ActorState| ego.pose.world_to_local(a.pose.position).x;
    order.sort_by(|&i, &j| {
        depth(&actors[j].1).partial_cmp(&depth(&actors[i].1)).expect("finite depths")
    });

    for i in order {
        let (kind, state) = &actors[i];
        if !state.active {
            continue;
        }
        draw_actor(cam, &ego.pose, *kind, state, &mut img);
    }

    Tensor::from_vec(img, &[h, w])
}

fn draw_actor(cam: &Camera, ego: &Pose, kind: ActorKind, state: &ActorState, img: &mut [f32]) {
    let size = body_size(kind);
    let local = ego.world_to_local(state.pose.position);
    let (fwd, left) = (local.x, local.y);
    if fwd < 1.0 || fwd > cam.max_depth {
        return;
    }
    // Apparent width: projection of the oriented footprint onto the image
    // plane (perpendicular to the view direction, approximated by the ego
    // lateral axis).
    let rel_heading = state.pose.heading - ego.heading;
    let apparent_w = (rel_heading.cos().abs() * size.width + rel_heading.sin().abs() * size.length)
        .max(size.width);

    let Some((c0, r_foot)) = cam.project_local(fwd, left, 0.0) else { return };
    let Some((_, r_head)) = cam.project_local(fwd, left, size.height) else { return };
    let half_w_px = cam.focal_px * (apparent_w / 2.0) / fwd;

    let (w, h) = (cam.width as isize, cam.height as isize);
    let col_lo = (c0 - half_w_px).floor() as isize;
    let col_hi = (c0 + half_w_px).ceil() as isize;
    let row_lo = r_head.floor() as isize;
    let row_hi = r_foot.ceil() as isize;
    let shade = actor_intensity(kind);
    // Simple depth shading so distant actors blend a little.
    let fade = (1.0 - fwd / (cam.max_depth * 4.0)).clamp(0.85, 1.0);
    for r in row_lo.max(0)..row_hi.min(h) {
        for c in col_lo.max(0)..col_hi.min(w) {
            img[(r * w + c) as usize] = shade * fade;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_PI_2;
    use tsdx_sdl::RoadKind;
    use tsdx_sim::geometry::Vec2;
    use tsdx_sim::RoadLayout;

    fn setup() -> (Camera, WorldMap, EgoState) {
        let road = RoadLayout::build(RoadKind::Straight);
        let map = WorldMap::build(&road);
        let ego =
            EgoState { pose: Pose::new(Vec2::new(5.25, -20.0), FRAC_PI_2), speed: 8.0, s: 60.0 };
        (Camera::standard(32, 32), map, ego)
    }

    #[test]
    fn frame_shape_and_range() {
        let (cam, map, ego) = setup();
        let f = render_frame(&cam, &map, &ego, &[]);
        assert_eq!(f.shape(), &[32, 32]);
        assert!(f.min() >= 0.0 && f.max() <= 1.0);
    }

    #[test]
    fn sky_above_horizon_road_below() {
        let (cam, map, ego) = setup();
        let f = render_frame(&cam, &map, &ego, &[]);
        // Top row is sky-ish bright; bottom center is road gray.
        assert!(f.at(&[0, 16]) > 0.6);
        let road_px = f.at(&[30, 16]);
        assert!((road_px - intensity::ROAD).abs() < 0.15, "bottom center {road_px}");
    }

    #[test]
    fn vehicle_ahead_appears_and_scales_with_distance() {
        let (cam, map, ego) = setup();
        let mk = |dist: f32| ActorState {
            pose: Pose::new(Vec2::new(5.25, -20.0 + dist), FRAC_PI_2),
            speed: 0.0,
            s: 0.0,
            active: true,
        };
        let near = render_frame(&cam, &map, &ego, &[(ActorKind::Vehicle, mk(8.0))]);
        let far = render_frame(&cam, &map, &ego, &[(ActorKind::Vehicle, mk(40.0))]);
        let count = |t: &Tensor| {
            // Only scan below the horizon so sky shades don't alias with
            // the vehicle intensity.
            let mut n = 0;
            for r in 14..32 {
                for c in 0..32 {
                    if (t.at(&[r, c]) - 0.65).abs() < 0.06 {
                        n += 1;
                    }
                }
            }
            n
        };
        let (cn, cf) = (count(&near), count(&far));
        assert!(cn > 0, "near vehicle invisible");
        assert!(cf > 0, "far vehicle invisible");
        assert!(cn > cf * 2, "near vehicle should cover more pixels: {cn} vs {cf}");
    }

    #[test]
    fn inactive_actors_are_not_drawn() {
        let (cam, map, ego) = setup();
        let ghost = ActorState {
            pose: Pose::new(Vec2::new(5.25, -10.0), FRAC_PI_2),
            speed: 0.0,
            s: 0.0,
            active: false,
        };
        let with = render_frame(&cam, &map, &ego, &[(ActorKind::Vehicle, ghost)]);
        let without = render_frame(&cam, &map, &ego, &[]);
        assert!(with.allclose(&without, 1e-6));
    }

    #[test]
    fn left_actor_draws_left_of_center() {
        let (cam, map, ego) = setup();
        let left_actor = ActorState {
            // 4 m west of ego lane, 12 m ahead.
            pose: Pose::new(Vec2::new(1.25, -8.0), FRAC_PI_2),
            speed: 0.0,
            s: 0.0,
            active: true,
        };
        let f = render_frame(&cam, &map, &ego, &[(ActorKind::Vehicle, left_actor)]);
        // Sum vehicle-intensity pixels per half.
        let mut left_count = 0;
        let mut right_count = 0;
        for r in 0..32 {
            for c in 0..32 {
                if (f.at(&[r, c]) - 0.68).abs() < 0.1 {
                    if c < 16 {
                        left_count += 1;
                    } else {
                        right_count += 1;
                    }
                }
            }
        }
        assert!(left_count > right_count, "left actor rendered on wrong side");
    }

    #[test]
    fn pedestrian_is_tall_and_narrow() {
        let (cam, map, ego) = setup();
        let ped = ActorState {
            pose: Pose::new(Vec2::new(5.25, -10.0), 0.0),
            speed: 0.0,
            s: 0.0,
            active: true,
        };
        let f = render_frame(&cam, &map, &ego, &[(ActorKind::Pedestrian, ped)]);
        // Bounding box of pedestrian pixels.
        let (mut rmin, mut rmax, mut cmin, mut cmax) = (usize::MAX, 0, usize::MAX, 0);
        for r in 0..32 {
            for c in 0..32 {
                if (f.at(&[r, c]) - 1.0 * 0.9).abs() < 0.12 || f.at(&[r, c]) > 0.93 {
                    rmin = rmin.min(r);
                    rmax = rmax.max(r);
                    cmin = cmin.min(c);
                    cmax = cmax.max(c);
                }
            }
        }
        assert!(rmax > rmin, "pedestrian not visible");
        assert!(rmax - rmin >= cmax - cmin, "pedestrian should be at least as tall as wide");
    }
}
