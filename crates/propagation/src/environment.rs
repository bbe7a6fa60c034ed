//! Indoor environments: rooms, walls and furniture.
//!
//! An [`Environment`] is a rectangular room whose boundary walls reflect,
//! plus optional interior walls and furniture that both reflect and
//! attenuate rays passing through them. It answers the two queries the
//! ray tracer needs: *which surfaces can reflect?* and *how much amplitude
//! survives a straight leg between two points?*

use mpdf_geom::polygon::ConvexPolygon;
use mpdf_geom::segment::{Intersection, Segment};
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Point;

use crate::material::Material;

/// A reflective wall: a segment with a surface material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Wall geometry.
    pub segment: Segment,
    /// Surface material.
    pub material: Material,
}

/// The plan-view footprint of a furniture obstacle.
#[derive(Debug, Clone, PartialEq)]
pub enum Footprint {
    /// Axis-aligned rectangle.
    Rect(Rect),
    /// Convex polygon (angled desks, lecterns).
    Polygon(ConvexPolygon),
}

impl Footprint {
    /// True when a straight leg touches or crosses the footprint.
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        match self {
            Footprint::Rect(r) => r.intersects_segment(seg),
            Footprint::Polygon(p) => p.intersects_segment(seg),
        }
    }
}

/// A furniture obstacle that attenuates rays crossing it. Furniture does
/// not spawn reflected paths (its reflections are folded into the
/// environment's diffuse clutter), matching the paper's one-bounce wall
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct Furniture {
    /// Plan-view footprint.
    pub footprint: Footprint,
    /// Obstacle material (its transmission coefficient applies per crossing).
    pub material: Material,
}

/// An indoor environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    bounds: Rect,
    walls: Vec<Wall>,
    furniture: Vec<Furniture>,
}

impl Environment {
    /// Starts building an environment from a room rectangle whose four
    /// boundary walls share `material`.
    pub fn builder(room: Rect, material: Material) -> EnvironmentBuilder {
        EnvironmentBuilder::new(room, material)
    }

    /// A bare rectangular room with concrete boundary walls.
    pub fn empty_room(room: Rect) -> Environment {
        Environment::builder(room, Material::CONCRETE).build()
    }

    /// Room bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// All reflective walls (boundary first, then interior).
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Furniture obstacles.
    pub fn furniture(&self) -> &[Furniture] {
        &self.furniture
    }

    /// True when the point is inside the room.
    pub fn contains(&self, p: Point) -> bool {
        self.bounds.contains(p)
    }

    /// Amplitude factor surviving a straight leg from `seg.a` to `seg.b`,
    /// accounting for interior walls and furniture crossed on the way.
    ///
    /// `skip` lists wall indices the leg is *supposed* to touch (the walls
    /// it reflects off at its endpoints); touches of those walls are not
    /// counted as crossings.
    ///
    /// Returns `0.0` when a crossed obstacle is fully opaque.
    pub fn leg_transmission(&self, seg: &Segment, skip: &[usize]) -> f64 {
        let mut factor = 1.0;
        for (i, wall) in self.walls.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            match seg.intersect(&wall.segment) {
                Intersection::None => {}
                Intersection::Collinear => {
                    // Running along a wall face: treat as a single crossing.
                    factor *= wall.material.transmission();
                }
                Intersection::Point { t, .. } => {
                    // Endpoint touches (t≈0/1) happen when a leg starts or
                    // ends on a *different* wall at a corner; count interior
                    // crossings only.
                    if t > 1e-9 && t < 1.0 - 1e-9 {
                        factor *= wall.material.transmission();
                    }
                }
            }
        }
        for f in &self.furniture {
            if f.footprint.intersects_segment(seg) {
                factor *= f.material.transmission();
            }
        }
        factor
    }

    /// Convenience: amplitude transmission between two free points.
    pub fn transmission_between(&self, a: Point, b: Point) -> f64 {
        self.leg_transmission(&Segment::new(a, b), &[])
    }
}

/// Builder for [`Environment`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct EnvironmentBuilder {
    bounds: Rect,
    walls: Vec<Wall>,
    furniture: Vec<Furniture>,
}

impl EnvironmentBuilder {
    /// Creates a builder with the four boundary walls of `room`.
    pub fn new(room: Rect, material: Material) -> Self {
        let walls = room
            .walls()
            .into_iter()
            .map(|segment| Wall { segment, material })
            .collect();
        EnvironmentBuilder {
            bounds: room,
            walls,
            furniture: Vec::new(),
        }
    }

    /// Adds an interior wall (reflects and attenuates crossings).
    pub fn interior_wall(&mut self, segment: Segment, material: Material) -> &mut Self {
        self.walls.push(Wall { segment, material });
        self
    }

    /// Adds an axis-aligned furniture obstacle.
    pub fn furniture(&mut self, footprint: Rect, material: Material) -> &mut Self {
        self.furniture.push(Furniture {
            footprint: Footprint::Rect(footprint),
            material,
        });
        self
    }

    /// Adds an angled (convex-polygon) furniture obstacle.
    pub fn furniture_polygon(&mut self, footprint: ConvexPolygon, material: Material) -> &mut Self {
        self.furniture.push(Furniture {
            footprint: Footprint::Polygon(footprint),
            material,
        });
        self
    }

    /// Finalizes the environment.
    pub fn build(&self) -> Environment {
        Environment {
            bounds: self.bounds,
            walls: self.walls.clone(),
            furniture: self.furniture.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_geom::vec2::Vec2;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn room() -> Rect {
        Rect::new(p(0.0, 0.0), p(8.0, 6.0))
    }

    #[test]
    fn empty_room_has_four_walls() {
        let env = Environment::empty_room(room());
        assert_eq!(env.walls().len(), 4);
        assert!(env.furniture().is_empty());
        assert!(env.contains(p(4.0, 3.0)));
        assert!(!env.contains(p(9.0, 3.0)));
    }

    #[test]
    fn builder_adds_interior_walls_and_furniture() {
        let mut b = Environment::builder(room(), Material::CONCRETE);
        b.interior_wall(Segment::new(p(4.0, 0.0), p(4.0, 3.0)), Material::DRYWALL);
        b.furniture(Rect::new(p(1.0, 1.0), p(2.0, 2.0)), Material::WOOD);
        let env = b.build();
        assert_eq!(env.walls().len(), 5);
        assert_eq!(env.furniture().len(), 1);
    }

    #[test]
    fn free_leg_has_unit_transmission() {
        let env = Environment::empty_room(room());
        assert_eq!(env.transmission_between(p(1.0, 1.0), p(7.0, 5.0)), 1.0);
    }

    #[test]
    fn interior_wall_attenuates_crossing_leg() {
        let mut b = Environment::builder(room(), Material::CONCRETE);
        b.interior_wall(Segment::new(p(4.0, 0.0), p(4.0, 6.0)), Material::DRYWALL);
        let env = b.build();
        let t = env.transmission_between(p(1.0, 3.0), p(7.0, 3.0));
        assert!((t - Material::DRYWALL.transmission()).abs() < 1e-12);
        // Leg on one side of the wall is unaffected.
        assert_eq!(env.transmission_between(p(1.0, 1.0), p(3.0, 5.0)), 1.0);
    }

    #[test]
    fn furniture_attenuates_crossing_leg() {
        let mut b = Environment::builder(room(), Material::CONCRETE);
        b.furniture(Rect::new(p(3.0, 2.0), p(5.0, 4.0)), Material::WOOD);
        let env = b.build();
        let t = env.transmission_between(p(1.0, 3.0), p(7.0, 3.0));
        assert!((t - Material::WOOD.transmission()).abs() < 1e-12);
    }

    #[test]
    fn skip_list_ignores_bounce_walls() {
        let env = Environment::empty_room(room());
        // A leg that ends exactly on wall 0 (bottom): skipping wall 0 must
        // leave transmission at 1.
        let leg = Segment::new(p(4.0, 3.0), p(4.0, 0.0));
        assert_eq!(env.leg_transmission(&leg, &[0]), 1.0);
    }

    #[test]
    fn endpoint_touch_does_not_count_as_crossing() {
        let env = Environment::empty_room(room());
        // Leg from interior to a point exactly on the right wall; without
        // skipping, the touch at t=1 must not attenuate.
        let leg = Segment::new(p(4.0, 3.0), p(8.0, 3.0));
        assert_eq!(env.leg_transmission(&leg, &[]), 1.0);
    }

    #[test]
    fn multiple_obstacles_multiply() {
        let mut b = Environment::builder(room(), Material::CONCRETE);
        b.interior_wall(Segment::new(p(3.0, 0.0), p(3.0, 6.0)), Material::DRYWALL)
            .interior_wall(Segment::new(p(5.0, 0.0), p(5.0, 6.0)), Material::GLASS);
        let env = b.build();
        let t = env.transmission_between(p(1.0, 3.0), p(7.0, 3.0));
        let expect = Material::DRYWALL.transmission() * Material::GLASS.transmission();
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_shape() {
        let env = Environment::empty_room(room());
        // Sanity: clone/eq works and bounds survive.
        let copy = env.clone();
        assert_eq!(copy, env);
        assert_eq!(copy.bounds().center(), Vec2::new(4.0, 3.0));
    }
}
