//! Human motion trajectories.
//!
//! The paper's Fig. 2b measures a person *moving across* a link; its
//! angle-error analysis (Fig. 10) notes that test subjects were "not
//! completely static". Trajectories model both: deterministic waypoint
//! walks for crossings, plus small-amplitude sway for a nominally static
//! person (implemented as a deterministic Lissajous wobble so experiments
//! stay reproducible without threading RNGs through the physics layer).

use mpdf_geom::vec2::{Point, Vec2};

/// A position as a function of time (seconds).
pub trait Trajectory {
    /// Position at time `t`; clamped to the trajectory's ends outside its
    /// time span.
    fn position(&self, t: f64) -> Point;

    /// Duration after which the position no longer changes (`f64::INFINITY`
    /// for endless trajectories).
    fn duration(&self) -> f64;
}

/// Straight-line walk from `start` to `end` over `duration` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearWalk {
    /// Start position.
    pub start: Point,
    /// End position.
    pub end: Point,
    /// Walk duration in seconds.
    pub duration: f64,
}

impl LinearWalk {
    /// Creates a walk.
    ///
    /// # Panics
    /// Panics if `duration <= 0`.
    pub fn new(start: Point, end: Point, duration: f64) -> Self {
        assert!(duration > 0.0, "duration must be positive");
        LinearWalk {
            start,
            end,
            duration,
        }
    }

    /// Creates a walk at the given speed (m/s).
    ///
    /// # Panics
    /// Panics if `speed <= 0` or the endpoints coincide.
    pub fn with_speed(start: Point, end: Point, speed: f64) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        let d = start.distance(end);
        assert!(d > 0.0, "endpoints must differ");
        LinearWalk::new(start, end, d / speed)
    }
}

impl Trajectory for LinearWalk {
    fn position(&self, t: f64) -> Point {
        let u = (t / self.duration).clamp(0.0, 1.0);
        self.start.lerp(self.end, u)
    }

    fn duration(&self) -> f64 {
        self.duration
    }
}

/// Piecewise-linear walk through timestamped waypoints.
#[derive(Debug, Clone, PartialEq)]
pub struct WaypointWalk {
    waypoints: Vec<(f64, Point)>,
}

impl WaypointWalk {
    /// Creates a walk through `(time, position)` waypoints.
    ///
    /// # Panics
    /// Panics if fewer than two waypoints are given or times are not
    /// strictly increasing.
    pub fn new(waypoints: Vec<(f64, Point)>) -> Self {
        assert!(waypoints.len() >= 2, "need at least two waypoints");
        assert!(
            waypoints.windows(2).all(|w| w[1].0 > w[0].0),
            "waypoint times must be strictly increasing"
        );
        WaypointWalk { waypoints }
    }
}

impl Trajectory for WaypointWalk {
    fn position(&self, t: f64) -> Point {
        let first = self.waypoints[0];
        let last = *self.waypoints.last().unwrap_or(&first);
        if t <= first.0 {
            return first.1;
        }
        if t >= last.0 {
            return last.1;
        }
        let idx = self
            .waypoints
            .partition_point(|&(wt, _)| wt <= t)
            .min(self.waypoints.len() - 1);
        let (t0, p0) = self.waypoints[idx - 1];
        let (t1, p1) = self.waypoints[idx];
        p0.lerp(p1, (t - t0) / (t1 - t0))
    }

    fn duration(&self) -> f64 {
        self.waypoints.last().map_or(0.0, |w| w.0)
    }
}

/// A nominally static person with small body sway around an anchor point.
///
/// Sway is a deterministic two-frequency Lissajous figure: bounded by
/// `amplitude`, non-periodic-looking over experiment windows, and fully
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticSway {
    /// Anchor position.
    pub anchor: Point,
    /// Peak sway amplitude in metres (a standing person sways a few cm).
    pub amplitude: f64,
}

impl StaticSway {
    /// Creates a sway model.
    ///
    /// # Panics
    /// Panics if the amplitude is negative.
    pub fn new(anchor: Point, amplitude: f64) -> Self {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        StaticSway { anchor, amplitude }
    }
}

impl Trajectory for StaticSway {
    fn position(&self, t: f64) -> Point {
        // Incommensurate frequencies ≈ 0.3 Hz and 0.47 Hz body sway.
        let dx = (2.0 * std::f64::consts::PI * 0.31 * t).sin();
        let dy = (2.0 * std::f64::consts::PI * 0.47 * t + 1.0).sin();
        self.anchor + Vec2::new(dx, dy) * (self.amplitude / std::f64::consts::SQRT_2)
    }

    fn duration(&self) -> f64 {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn linear_walk_endpoints_and_midpoint() {
        let w = LinearWalk::new(p(0.0, 0.0), p(4.0, 0.0), 8.0);
        assert_eq!(w.position(0.0), p(0.0, 0.0));
        assert_eq!(w.position(4.0), p(2.0, 0.0));
        assert_eq!(w.position(8.0), p(4.0, 0.0));
        // Clamped outside the span.
        assert_eq!(w.position(-1.0), p(0.0, 0.0));
        assert_eq!(w.position(100.0), p(4.0, 0.0));
    }

    #[test]
    fn walk_with_speed_sets_duration() {
        let w = LinearWalk::with_speed(p(0.0, 0.0), p(3.0, 4.0), 1.25);
        assert!((w.duration() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn waypoint_walk_interpolates() {
        let w = WaypointWalk::new(vec![
            (0.0, p(0.0, 0.0)),
            (1.0, p(2.0, 0.0)),
            (3.0, p(2.0, 4.0)),
        ]);
        assert_eq!(w.position(0.5), p(1.0, 0.0));
        assert_eq!(w.position(2.0), p(2.0, 2.0));
        assert_eq!(w.position(99.0), p(2.0, 4.0));
        assert_eq!(w.duration(), 3.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn waypoints_must_be_ordered() {
        let _ = WaypointWalk::new(vec![(1.0, p(0.0, 0.0)), (1.0, p(1.0, 0.0))]);
    }

    #[test]
    fn sway_stays_within_amplitude() {
        let s = StaticSway::new(p(3.0, 3.0), 0.05);
        for i in 0..500 {
            let t = i as f64 * 0.1;
            let d = s.position(t).distance(p(3.0, 3.0));
            assert!(d <= 0.05 + 1e-12, "sway {d} exceeded amplitude at t={t}");
        }
        // It actually moves.
        assert!(s.position(0.7).distance(s.position(1.9)) > 1e-4);
    }

    #[test]
    fn zero_amplitude_sway_is_static() {
        let s = StaticSway::new(p(1.0, 2.0), 0.0);
        assert_eq!(s.position(0.0), p(1.0, 2.0));
        assert_eq!(s.position(42.0), p(1.0, 2.0));
    }
}
