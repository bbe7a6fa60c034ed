//! Line segments: intersection and distance queries.
//!
//! Segments model walls and ray legs. The ray tracer needs exact
//! segment–segment intersection (does a ray leg hit a wall?), and the
//! human-body model needs point-to-segment distance (how close is the body
//! to a propagation path?).

use crate::vec2::{Point, Vec2};

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

/// Result of a segment–segment intersection query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intersection {
    /// The segments do not meet.
    None,
    /// Proper crossing at the given point, with parameters `t` (along the
    /// first segment) and `u` (along the second), both in `[0, 1]`.
    Point {
        /// Intersection location.
        at: Point,
        /// Parameter along the first segment.
        t: f64,
        /// Parameter along the second segment.
        u: f64,
    },
    /// The segments are collinear and overlap over a non-degenerate range.
    Collinear,
}

impl Segment {
    /// Creates a segment between two points.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// The displacement `b − a`.
    pub fn direction(&self) -> Vec2 {
        self.b - self.a
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.direction().norm()
    }

    /// Midpoint.
    pub fn midpoint(&self) -> Point {
        self.a.lerp(self.b, 0.5)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Intersection with another segment.
    ///
    /// Endpoint touches count as [`Intersection::Point`]; exactly
    /// collinear overlapping segments report [`Intersection::Collinear`].
    pub fn intersect(&self, other: &Segment) -> Intersection {
        let r = self.direction();
        let s = other.direction();
        let qp = other.a - self.a;
        let denom = r.cross(s);
        let qp_cross_r = qp.cross(r);
        const EPS: f64 = 1e-12;

        if denom.abs() < EPS {
            if qp_cross_r.abs() < EPS {
                // Collinear: check 1-D overlap along r.
                let rr = r.dot(r);
                if rr < EPS {
                    // Degenerate first segment (a point).
                    return if self.distance_to_point(other.a) < EPS
                        || other.distance_to_point(self.a) < EPS
                    {
                        Intersection::Collinear
                    } else {
                        Intersection::None
                    };
                }
                let t0 = qp.dot(r) / rr;
                let t1 = t0 + s.dot(r) / rr;
                let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
                if hi < -EPS || lo > 1.0 + EPS {
                    Intersection::None
                } else {
                    Intersection::Collinear
                }
            } else {
                Intersection::None
            }
        } else {
            let t = qp.cross(s) / denom;
            let u = qp_cross_r / denom;
            if (-EPS..=1.0 + EPS).contains(&t) && (-EPS..=1.0 + EPS).contains(&u) {
                Intersection::Point {
                    at: self.at(t.clamp(0.0, 1.0)),
                    t: t.clamp(0.0, 1.0),
                    u: u.clamp(0.0, 1.0),
                }
            } else {
                Intersection::None
            }
        }
    }

    /// True when the segments meet in any way.
    pub fn intersects(&self, other: &Segment) -> bool {
        !matches!(self.intersect(other), Intersection::None)
    }

    /// Shortest distance from `p` to the segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        p.distance(self.closest_point(p))
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let d = self.direction();
        let len2 = d.norm_sqr();
        if len2 < 1e-24 {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len2).clamp(0.0, 1.0);
        self.at(t)
    }

    /// Parameter `t ∈ [0, 1]` of the closest point to `p`.
    pub fn closest_parameter(&self, p: Point) -> f64 {
        let d = self.direction();
        let len2 = d.norm_sqr();
        if len2 < 1e-24 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len2).clamp(0.0, 1.0)
    }

    /// Outward unit normal (counter-clockwise perpendicular of the
    /// direction); `None` for degenerate segments.
    pub fn normal(&self) -> Option<Vec2> {
        self.direction().normalized().map(Vec2::perp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn crossing_segments_intersect_in_the_middle() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 2.0));
        let s2 = Segment::new(p(0.0, 2.0), p(2.0, 0.0));
        match s1.intersect(&s2) {
            Intersection::Point { at, t, u } => {
                assert!((at - p(1.0, 1.0)).norm() < 1e-12);
                assert!((t - 0.5).abs() < 1e-12);
                assert!((u - 0.5).abs() < 1e-12);
            }
            other => panic!("expected point intersection, got {other:?}"),
        }
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(0.0, 1.0), p(1.0, 1.0));
        assert_eq!(s1.intersect(&s2), Intersection::None);
    }

    #[test]
    fn collinear_overlap_detected() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        let s2 = Segment::new(p(1.0, 0.0), p(3.0, 0.0));
        assert_eq!(s1.intersect(&s2), Intersection::Collinear);
        let s3 = Segment::new(p(3.0, 0.0), p(4.0, 0.0));
        assert_eq!(s1.intersect(&s3), Intersection::None);
    }

    #[test]
    fn touching_endpoints_count() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 1.0));
        let s2 = Segment::new(p(1.0, 1.0), p(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn near_miss_does_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(0.5, 0.001), p(0.5, 1.0));
        assert_eq!(s1.intersect(&s2), Intersection::None);
    }

    #[test]
    fn distance_to_point_regions() {
        let s = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        assert!((s.distance_to_point(p(1.0, 3.0)) - 3.0).abs() < 1e-12); // above middle
        assert!((s.distance_to_point(p(-3.0, 4.0)) - 5.0).abs() < 1e-12); // beyond a
        assert!((s.distance_to_point(p(5.0, 4.0)) - 5.0).abs() < 1e-12); // beyond b
        assert_eq!(s.distance_to_point(p(1.0, 0.0)), 0.0); // on segment
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        assert_eq!(s.closest_point(p(-5.0, 0.0)), p(0.0, 0.0));
        assert_eq!(s.closest_point(p(9.0, 9.0)), p(1.0, 0.0));
        assert_eq!(s.closest_parameter(p(0.25, 7.0)), 0.25);
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let s = Segment::new(p(1.0, 1.0), p(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.closest_point(p(0.0, 0.0)), p(1.0, 1.0));
        assert!(s.normal().is_none());
    }

    #[test]
    fn geometry_accessors() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        assert_eq!(s.length(), 4.0);
        assert_eq!(s.midpoint(), p(2.0, 0.0));
        assert_eq!(s.at(0.25), p(1.0, 0.0));
        assert_eq!(s.normal(), Some(Vec2::new(0.0, 1.0)));
    }
}
