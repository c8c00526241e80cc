//! 2-D vector and pose primitives for the traffic world.

use std::ops::{Add, Mul, Neg, Sub};

/// A 2-D vector / point in world coordinates (meters).
///
/// Convention: `x` points east, `y` points north; headings are measured
/// counter-clockwise from the +x axis in radians.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East coordinate (m).
    pub x: f32,
    /// North coordinate (m).
    pub y: f32,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector pointing along `heading` radians.
    pub fn from_heading(heading: f32) -> Self {
        Vec2 { x: heading.cos(), y: heading.sin() }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.x.hypot(self.y)
    }

    /// Squared norm (cheaper for comparisons).
    pub fn norm_sq(&self) -> f32 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(&self, other: Vec2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    /// Distance to `other`.
    pub fn distance(&self, other: Vec2) -> f32 {
        (*self - other).norm()
    }

    /// This vector rotated by `angle` radians counter-clockwise.
    pub fn rotated(&self, angle: f32) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2 { x: c * self.x - s * self.y, y: s * self.x + c * self.y }
    }

    /// Heading of this vector in radians (`atan2(y, x)`).
    pub fn heading(&self) -> f32 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(&self, other: Vec2, t: f32) -> Vec2 {
        *self + (other - *self) * t
    }

    /// Perpendicular vector (rotated +90°).
    pub fn perp(&self) -> Vec2 {
        Vec2 { x: -self.y, y: self.x }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2 { x: self.x + o.x, y: self.y + o.y }
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2 { x: self.x - o.x, y: self.y - o.y }
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f32) -> Vec2 {
        Vec2 { x: self.x * s, y: self.y * s }
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2 { x: -self.x, y: -self.y }
    }
}

/// Position plus orientation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// World position (m).
    pub position: Vec2,
    /// Heading in radians, counter-clockwise from +x.
    pub heading: f32,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Vec2, heading: f32) -> Self {
        Pose { position, heading }
    }

    /// Transforms a world point into this pose's local frame
    /// (x forward, y left).
    pub fn world_to_local(&self, p: Vec2) -> Vec2 {
        (p - self.position).rotated(-self.heading)
    }

    /// Transforms a local point (x forward, y left) into world coordinates.
    pub fn local_to_world(&self, p: Vec2) -> Vec2 {
        p.rotated(self.heading) + self.position
    }

    /// Forward unit vector.
    pub fn forward(&self) -> Vec2 {
        Vec2::from_heading(self.heading)
    }
}

/// Wraps an angle to `(-pi, pi]`.
pub fn wrap_angle(a: f32) -> f32 {
    let mut a = a % std::f32::consts::TAU;
    if a > std::f32::consts::PI {
        a -= std::f32::consts::TAU;
    } else if a <= -std::f32::consts::PI {
        a += std::f32::consts::TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!((a - a).norm(), 0.0);
        assert_eq!((-a).x, -3.0);
    }

    #[test]
    fn rotation_quarter_turn() {
        let a = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((a.x).abs() < 1e-6 && (a.y - 1.0).abs() < 1e-6);
        assert!((Vec2::new(1.0, 0.0).perp().y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn heading_roundtrip() {
        for h in [-2.0f32, -0.5, 0.0, 1.0, 3.0] {
            let v = Vec2::from_heading(h);
            assert!((wrap_angle(v.heading() - h)).abs() < 1e-5);
        }
    }

    #[test]
    fn pose_frame_roundtrip() {
        let pose = Pose::new(Vec2::new(5.0, -2.0), 0.7);
        let p = Vec2::new(3.0, 9.0);
        let back = pose.local_to_world(pose.world_to_local(p));
        assert!(back.distance(p) < 1e-5);
    }

    #[test]
    fn local_frame_semantics() {
        // Ego at origin heading north: a point to the north is "forward"
        // (local +x), a point to the west is "left" (local +y).
        let pose = Pose::new(Vec2::ZERO, FRAC_PI_2);
        let ahead = pose.world_to_local(Vec2::new(0.0, 10.0));
        assert!(ahead.x > 9.9 && ahead.y.abs() < 1e-5);
        let left = pose.world_to_local(Vec2::new(-4.0, 0.0));
        assert!(left.y > 3.9 && left.x.abs() < 1e-5);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-5);
        assert!((wrap_angle(-3.0 * PI).abs() - PI).abs() < 1e-5);
        assert_eq!(wrap_angle(0.0), 0.0);
        for a in [-10.0f32, -1.0, 0.5, 7.0, 100.0] {
            let w = wrap_angle(a);
            assert!(w > -PI - 1e-6 && w <= PI + 1e-6);
        }
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }
}
