//! Closed shapes: rectangles and circles.
//!
//! Rectangles model rooms and furniture footprints; circles model the
//! human-body cross-section (the paper's dielectric cylinder seen in plan
//! view).

use crate::segment::Segment;
use crate::vec2::{Point, Vec2};

/// An axis-aligned rectangle given by opposite corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from any two opposite corners.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from a center point and full extents.
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        let half = Vec2::new(width.abs() / 2.0, height.abs() / 2.0);
        Rect::new(center - half, center + half)
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.lerp(self.max, 0.5)
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The four boundary walls, counter-clockwise starting at the bottom.
    pub fn walls(&self) -> [Segment; 4] {
        let bl = self.min;
        let br = Point::new(self.max.x, self.min.y);
        let tr = self.max;
        let tl = Point::new(self.min.x, self.max.y);
        [
            Segment::new(bl, br),
            Segment::new(br, tr),
            Segment::new(tr, tl),
            Segment::new(tl, bl),
        ]
    }

    /// True when the segment crosses or touches the rectangle boundary or
    /// either endpoint is inside.
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        if self.contains(seg.a) || self.contains(seg.b) {
            return true;
        }
        self.walls().iter().any(|w| w.intersects(seg))
    }

    /// Shrinks the rectangle by `margin` on every side.
    ///
    /// # Panics
    /// Panics if the margin would invert the rectangle.
    pub fn shrunk(&self, margin: f64) -> Rect {
        assert!(
            2.0 * margin < self.width() && 2.0 * margin < self.height(),
            "margin larger than rectangle"
        );
        Rect::new(
            self.min + Vec2::new(margin, margin),
            self.max - Vec2::new(margin, margin),
        )
    }
}

/// A circle: the human-body footprint in plan view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center.
    pub center: Point,
    /// Radius (metres).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    /// Panics if the radius is negative or non-finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be finite and non-negative"
        );
        Circle { center, radius }
    }

    /// True when `p` is inside or on the circle.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance(p) <= self.radius
    }

    /// Shortest distance between the circle *boundary-enclosed disk* and a
    /// segment: zero when the segment passes through the disk.
    pub fn distance_to_segment(&self, seg: &Segment) -> f64 {
        (seg.distance_to_point(self.center) - self.radius).max(0.0)
    }

    /// True when a segment passes through (or touches) the disk.
    pub fn blocks_segment(&self, seg: &Segment) -> bool {
        seg.distance_to_point(self.center) <= self.radius
    }

    /// Normalized penetration depth of a segment through the disk:
    /// `1` when the segment passes through the center, `0` when it only
    /// grazes the rim or misses. Used by the shadowing model to scale the
    /// attenuation `β` with how centrally a body blocks a path.
    pub fn penetration(&self, seg: &Segment) -> f64 {
        if self.radius <= 0.0 {
            return 0.0;
        }
        let d = seg.distance_to_point(self.center);
        ((self.radius - d) / self.radius).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn rect_from_any_corners() {
        let r = Rect::new(p(3.0, 1.0), p(0.0, 4.0));
        assert_eq!(r.min(), p(0.0, 1.0));
        assert_eq!(r.max(), p(3.0, 4.0));
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 3.0);
        assert_eq!(r.center(), p(1.5, 2.5));
    }

    #[test]
    fn rect_centered() {
        let r = Rect::centered(p(1.0, 1.0), 2.0, 4.0);
        assert_eq!(r.min(), p(0.0, -1.0));
        assert_eq!(r.max(), p(2.0, 3.0));
    }

    #[test]
    fn rect_contains() {
        let r = Rect::new(p(0.0, 0.0), p(2.0, 2.0));
        assert!(r.contains(p(1.0, 1.0)));
        assert!(r.contains(p(0.0, 2.0))); // boundary
        assert!(!r.contains(p(2.1, 1.0)));
    }

    #[test]
    fn rect_walls_are_closed_loop() {
        let r = Rect::new(p(0.0, 0.0), p(1.0, 1.0));
        let w = r.walls();
        for i in 0..4 {
            assert_eq!(w[i].b, w[(i + 1) % 4].a);
        }
        let perimeter: f64 = w.iter().map(Segment::length).sum();
        assert!((perimeter - 4.0).abs() < 1e-12);
    }

    #[test]
    fn segment_rect_intersection() {
        let r = Rect::new(p(0.0, 0.0), p(2.0, 2.0));
        // crossing
        assert!(r.intersects_segment(&Segment::new(p(-1.0, 1.0), p(3.0, 1.0))));
        // fully inside
        assert!(r.intersects_segment(&Segment::new(p(0.5, 0.5), p(1.5, 1.5))));
        // fully outside
        assert!(!r.intersects_segment(&Segment::new(p(3.0, 3.0), p(4.0, 4.0))));
        // touching a corner
        assert!(r.intersects_segment(&Segment::new(p(2.0, 2.0), p(3.0, 3.0))));
    }

    #[test]
    fn rect_shrink() {
        let r = Rect::new(p(0.0, 0.0), p(4.0, 4.0)).shrunk(1.0);
        assert_eq!(r.min(), p(1.0, 1.0));
        assert_eq!(r.max(), p(3.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "margin larger")]
    fn rect_overshrink_panics() {
        let _ = Rect::new(p(0.0, 0.0), p(1.0, 1.0)).shrunk(0.6);
    }

    #[test]
    fn circle_blocking_and_penetration() {
        let c = Circle::new(p(1.0, 0.0), 0.5);
        let through_center = Segment::new(p(-2.0, 0.0), p(4.0, 0.0));
        let grazing = Segment::new(p(-2.0, 0.5), p(4.0, 0.5));
        let missing = Segment::new(p(-2.0, 1.0), p(4.0, 1.0));
        assert!(c.blocks_segment(&through_center));
        assert!(c.blocks_segment(&grazing));
        assert!(!c.blocks_segment(&missing));
        assert!((c.penetration(&through_center) - 1.0).abs() < 1e-12);
        assert!(c.penetration(&grazing).abs() < 1e-12);
        assert_eq!(c.penetration(&missing), 0.0);
        assert!((c.distance_to_segment(&missing) - 0.5).abs() < 1e-12);
        assert_eq!(c.distance_to_segment(&through_center), 0.0);
    }

    #[test]
    fn circle_contains() {
        let c = Circle::new(p(0.0, 0.0), 1.0);
        assert!(c.contains(p(0.5, 0.5)));
        assert!(c.contains(p(1.0, 0.0)));
        assert!(!c.contains(p(1.01, 0.0)));
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn circle_negative_radius_panics() {
        let _ = Circle::new(p(0.0, 0.0), -1.0);
    }

    #[test]
    fn zero_radius_circle_never_blocks() {
        let c = Circle::new(p(0.0, 0.0), 0.0);
        let s = Segment::new(p(-1.0, 0.1), p(1.0, 0.1));
        assert!(!c.blocks_segment(&s));
        assert_eq!(c.penetration(&s), 0.0);
    }
}
