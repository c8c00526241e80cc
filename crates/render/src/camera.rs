//! Pinhole ego-camera model.

/// A forward-facing pinhole camera mounted on the ego vehicle.
///
/// The camera sits `height` meters above the ground at the ego pose, with
/// its optical axis horizontal along the ego heading. Image coordinates are
/// `(col, row)` with the origin at the top-left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Focal length in pixels.
    pub focal_px: f32,
    /// Camera height above ground (m).
    pub cam_height: f32,
    /// Horizon row (principal point row), in pixels.
    pub horizon_row: f32,
    /// Far clipping distance for ground rendering (m).
    pub max_depth: f32,
}

impl Camera {
    /// A camera with a ~90° horizontal field of view for a `width`×`height`
    /// image, horizon slightly above center.
    pub fn standard(width: usize, height: usize) -> Self {
        Camera {
            width,
            height,
            focal_px: width as f32 / 2.0,
            cam_height: 1.4,
            horizon_row: height as f32 * 0.42,
            max_depth: 70.0,
        }
    }

    /// Projects a point in the *camera frame* — `forward` meters ahead,
    /// `left` meters to the left, `up` meters above ground — to pixel
    /// coordinates. Returns `None` behind the camera or beyond `max_depth`.
    pub fn project_local(&self, forward: f32, left: f32, up: f32) -> Option<(f32, f32)> {
        if forward < 0.5 || forward > self.max_depth {
            return None;
        }
        let cx = self.width as f32 / 2.0;
        let col = cx + self.focal_px * (-left) / forward;
        let row = self.horizon_row + self.focal_px * (self.cam_height - up) / forward;
        Some((col, row))
    }

    /// Inverse ground projection: pixel `(col, row)` to camera-frame ground
    /// coordinates `(forward, left)`. Returns `None` at or above the
    /// horizon, or beyond `max_depth`.
    pub fn unproject_ground(&self, col: f32, row: f32) -> Option<(f32, f32)> {
        let dy = row - self.horizon_row;
        if dy <= 0.5 {
            return None;
        }
        let forward = self.focal_px * self.cam_height / dy;
        if forward > self.max_depth {
            return None;
        }
        let cx = self.width as f32 / 2.0;
        let left = -(col - cx) * forward / self.focal_px;
        Some((forward, left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_ahead_projects_to_center_column() {
        let cam = Camera::standard(32, 32);
        let (col, row) = cam.project_local(10.0, 0.0, 0.0).unwrap();
        assert!((col - 16.0).abs() < 1e-4);
        assert!(row > cam.horizon_row, "ground points sit below the horizon");
    }

    #[test]
    fn closer_ground_points_are_lower_and_bigger() {
        let cam = Camera::standard(32, 32);
        let (_, near) = cam.project_local(5.0, 0.0, 0.0).unwrap();
        let (_, far) = cam.project_local(40.0, 0.0, 0.0).unwrap();
        assert!(near > far, "nearer ground should be lower in the image");
    }

    #[test]
    fn left_points_project_left_of_center() {
        let cam = Camera::standard(32, 32);
        let (col, _) = cam.project_local(10.0, 3.0, 0.0).unwrap();
        assert!(col < 16.0, "left in world should be left in image, col={col}");
    }

    #[test]
    fn behind_and_beyond_clip() {
        let cam = Camera::standard(32, 32);
        assert!(cam.project_local(-5.0, 0.0, 0.0).is_none());
        assert!(cam.project_local(500.0, 0.0, 0.0).is_none());
    }

    #[test]
    fn ground_projection_roundtrips() {
        let cam = Camera::standard(64, 64);
        for &(f, l) in &[(5.0f32, 0.0f32), (12.0, 3.0), (30.0, -6.0)] {
            let (col, row) = cam.project_local(f, l, 0.0).unwrap();
            let (f2, l2) = cam.unproject_ground(col, row).unwrap();
            assert!((f - f2).abs() < 1e-3, "forward {f} vs {f2}");
            assert!((l - l2).abs() < 1e-3, "left {l} vs {l2}");
        }
    }

    #[test]
    fn sky_pixels_unproject_to_none() {
        let cam = Camera::standard(32, 32);
        assert!(cam.unproject_ground(16.0, 0.0).is_none());
        assert!(cam.unproject_ground(16.0, cam.horizon_row).is_none());
    }

    #[test]
    fn taller_points_project_higher() {
        let cam = Camera::standard(32, 32);
        let (_, foot) = cam.project_local(10.0, 0.0, 0.0).unwrap();
        let (_, head) = cam.project_local(10.0, 0.0, 1.7).unwrap();
        assert!(head < foot, "top of an object must be above its foot");
    }
}
