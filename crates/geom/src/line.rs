//! Infinite lines and mirror images.
//!
//! The image method replaces "reflect off a wall" with "draw a straight
//! line to the transmitter's mirror image across the wall plane".
//! [`Line::mirror`] is that primitive.

use crate::segment::Segment;
use crate::vec2::{Point, Vec2};

/// An infinite line through `origin` with (non-zero) direction `dir`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    origin: Point,
    dir: Vec2,
}

impl Line {
    /// Creates a line through `origin` with direction `dir`.
    ///
    /// Returns `None` when `dir` is (near-)zero.
    pub fn new(origin: Point, dir: Vec2) -> Option<Self> {
        dir.normalized().map(|d| Line { origin, dir: d })
    }

    /// Line supporting a segment; `None` for degenerate segments.
    pub fn through_segment(seg: &Segment) -> Option<Self> {
        Line::new(seg.a, seg.direction())
    }

    /// A point the line passes through.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Unit direction vector.
    pub fn dir(&self) -> Vec2 {
        self.dir
    }

    /// Signed perpendicular distance from `p` (positive on the side the
    /// CCW normal points to).
    pub fn signed_distance(&self, p: Point) -> f64 {
        self.dir.cross(p - self.origin)
    }

    /// Perpendicular foot of `p` on the line.
    pub fn project(&self, p: Point) -> Point {
        self.origin + self.dir * (p - self.origin).dot(self.dir)
    }

    /// Mirror image of `p` across the line — the image-method primitive.
    ///
    /// ```
    /// use mpdf_geom::line::Line;
    /// use mpdf_geom::vec2::Vec2;
    ///
    /// let wall = Line::new(Vec2::ZERO, Vec2::new(1.0, 0.0)).unwrap();
    /// assert_eq!(wall.mirror(Vec2::new(2.0, 3.0)), Vec2::new(2.0, -3.0));
    /// ```
    pub fn mirror(&self, p: Point) -> Point {
        let foot = self.project(p);
        foot + (foot - p)
    }

    /// True when `p` and `q` are strictly on opposite sides of the line.
    pub fn separates(&self, p: Point, q: Point) -> bool {
        let sp = self.signed_distance(p);
        let sq = self.signed_distance(q);
        sp * sq < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn construction_rejects_zero_direction() {
        assert!(Line::new(p(0.0, 0.0), Vec2::ZERO).is_none());
        assert!(Line::through_segment(&Segment::new(p(1.0, 1.0), p(1.0, 1.0))).is_none());
    }

    #[test]
    fn mirror_across_axis_lines() {
        let x_axis = Line::new(p(0.0, 0.0), Vec2::new(1.0, 0.0)).unwrap();
        assert_eq!(x_axis.mirror(p(2.0, 3.0)), p(2.0, -3.0));
        let y_axis = Line::new(p(0.0, 0.0), Vec2::new(0.0, 1.0)).unwrap();
        assert_eq!(y_axis.mirror(p(2.0, 3.0)), p(-2.0, 3.0));
    }

    #[test]
    fn mirror_is_involution() {
        let line = Line::new(p(1.0, -2.0), Vec2::new(3.0, 1.0)).unwrap();
        let q = p(4.5, 0.25);
        let back = line.mirror(line.mirror(q));
        assert!((back - q).norm() < 1e-12);
    }

    #[test]
    fn mirror_preserves_distance_to_line() {
        let line = Line::new(p(0.0, 1.0), Vec2::new(1.0, 2.0)).unwrap();
        let q = p(3.0, -4.0);
        let m = line.mirror(q);
        assert!((line.signed_distance(q) + line.signed_distance(m)).abs() < 1e-12);
    }

    #[test]
    fn projection_is_on_line_and_closest() {
        let line = Line::new(p(0.0, 0.0), Vec2::new(1.0, 1.0)).unwrap();
        let q = p(2.0, 0.0);
        let f = line.project(q);
        assert!((f - p(1.0, 1.0)).norm() < 1e-12);
        assert!(line.signed_distance(f).abs() < 1e-12);
    }

    #[test]
    fn separates_detects_sides() {
        let line = Line::new(p(0.0, 0.0), Vec2::new(1.0, 0.0)).unwrap();
        assert!(line.separates(p(0.0, 1.0), p(0.0, -1.0)));
        assert!(!line.separates(p(1.0, 1.0), p(2.0, 5.0)));
        assert!(!line.separates(p(1.0, 0.0), p(2.0, 5.0))); // on-line is not strict
    }
}
