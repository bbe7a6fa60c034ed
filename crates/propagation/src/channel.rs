//! The multipath channel: paths → channel frequency response.
//!
//! [`ChannelModel`] binds an environment to a TX–RX link; a
//! [`ChannelSnapshot`] freezes the traced path set for one instant (one
//! human position) and evaluates the CFR the paper's Eq. 1/2 describe:
//!
//! `H(f) = Σ_i a_i·e^{-jθ_i(f)}`
//!
//! A [`CfrTable`] evaluates the same sum per packet: it precomputes the
//! terms of the environment paths that no body changes, and takes the
//! bodies' effect from [`ChannelModel::modulate_into`]. Per packet both
//! pay only for what the bodies change (Patwari & Wilson's spatial
//! point: only paths that pass near a person move): `modulate_into`
//! skips the legs no body can touch, and the table adds an unshadowed
//! path's precomputed contribution instead of re-evaluating it.
//!
//! Snapshots also expose *ground truth* the physical testbed could never
//! report — the true per-frequency LOS power fraction — which the test
//! suite uses to validate the paper's measurable multipath-factor proxy.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mpdf_geom::segment::Segment;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_rfmath::complex::Complex64;

use crate::environment::Environment;
use crate::human::HumanBody;
use crate::path::{PathKind, PropagationPath};
use crate::pathloss::{PathLossModel, SPEED_OF_LIGHT};
use crate::tracer::{trace, TraceConfig, TraceError};

/// A TX–RX link inside an environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    env: Environment,
    tx: Point,
    rx: Point,
    pathloss: PathLossModel,
    trace_cfg: TraceConfig,
    /// Environment paths, traced once — humans only modulate them.
    /// Shared via the process-wide trace cache: geometry never changes
    /// within a campaign, so every link with the same (environment, TX,
    /// RX, trace config) reuses one immutable traced path set.
    static_paths: Arc<StaticPaths>,
}

/// A link's traced environment paths plus the flat list of their legs
/// that the per-packet shadowing pass scans.
#[derive(Debug, PartialEq)]
struct StaticPaths {
    /// The traced paths, shortest first.
    paths: Vec<PropagationPath>,
    /// Every leg of every path, in trace order, then leg order.
    legs: Vec<ShadowLeg>,
    /// End of each path's legs in `legs`.
    leg_ends: Vec<usize>,
}

/// Relative slack of the leg culling test; orders of magnitude above
/// the rounding of the distance [`mpdf_geom::shapes::Circle::penetration`]
/// computes.
const CULL_SLACK: f64 = 1e-9;

/// One static-path leg with what the culling test needs: its bounding
/// box, the unit normal and offset of its supporting line, and a slack
/// that covers rounding at the leg's coordinate scale.
#[derive(Debug, PartialEq)]
struct ShadowLeg {
    seg: Segment,
    min: Point,
    max: Point,
    /// Unit normal of the leg; zero for a degenerate leg, which the line
    /// test then never culls.
    normal: Vec2,
    /// `normal · a`: the signed distance of the line from the origin.
    offset: f64,
    slack: f64,
}

impl ShadowLeg {
    fn new(seg: Segment) -> ShadowLeg {
        let scale = [seg.a.x, seg.a.y, seg.b.x, seg.b.y]
            .iter()
            .fold(1.0, |m: f64, c| m.max(c.abs()));
        let normal = seg.normal().unwrap_or(Vec2::ZERO);
        ShadowLeg {
            seg,
            min: Point::new(seg.a.x.min(seg.b.x), seg.a.y.min(seg.b.y)),
            max: Point::new(seg.a.x.max(seg.b.x), seg.a.y.max(seg.b.y)),
            normal,
            offset: normal.dot(seg.a),
            slack: CULL_SLACK * scale,
        }
    }

    /// True when a disk at `center` provably misses the leg: the centre
    /// lies more than `margin` (the radius plus slack) outside the box
    /// or away from the supporting line, so the leg's distance to it is
    /// at least the radius and the penetration is 0. (A non-finite
    /// centre penetrates nothing either way.) Branch-free: the test runs
    /// for every leg and body of every packet.
    fn misses(&self, center: Point, margin: f64) -> bool {
        let outside_x = (self.min.x - center.x).max(center.x - self.max.x);
        let outside_y = (self.min.y - center.y).max(center.y - self.max.y);
        let off_line = (self.normal.dot(center) - self.offset).abs();
        outside_x.max(outside_y).max(off_line) > margin + self.slack
    }
}

impl StaticPaths {
    fn new(paths: Vec<PropagationPath>) -> StaticPaths {
        let mut legs = Vec::new();
        let mut leg_ends = Vec::with_capacity(paths.len());
        for p in &paths {
            legs.extend(
                p.vertices()
                    .windows(2)
                    .map(|w| ShadowLeg::new(Segment::new(w[0], w[1]))),
            );
            leg_ends.push(legs.len());
        }
        StaticPaths {
            paths,
            legs,
            leg_ends,
        }
    }
}

/// One entry of the static-geometry trace cache.
#[derive(Debug)]
struct TraceCacheEntry {
    env: Environment,
    tx: Point,
    rx: Point,
    cfg: TraceConfig,
    paths: Arc<StaticPaths>,
}

/// Process-wide image-source trace cache. Campaigns trace a handful of
/// links over and over (every receiver clone / window fork rebuilds its
/// channel), so a bounded linear-scan vector keyed by exact equality
/// suffices; a cached path set is always bit-identical to a freshly
/// traced one because [`trace`] is a pure function of the key.
static TRACE_CACHE: OnceLock<Mutex<Vec<TraceCacheEntry>>> = OnceLock::new();

/// Cap on distinct cached traces; beyond this the oldest entry is
/// evicted (protects sweeps over many ad-hoc geometries from unbounded
/// growth).
const TRACE_CACHE_CAP: usize = 16;

/// Looks up (or computes and inserts) the traced static path set for a
/// link. Tracing runs outside the lock: two racing threads at worst
/// duplicate work, never diverge.
fn traced_paths_cached(
    env: &Environment,
    tx: Point,
    rx: Point,
    cfg: &TraceConfig,
) -> Result<Arc<StaticPaths>, TraceError> {
    let cache = TRACE_CACHE.get_or_init(|| Mutex::new(Vec::new()));
    {
        // Cached path sets are immutable once inserted, so a poisoned
        // lock cannot hold corrupt data — recover instead of panicking.
        let entries = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = entries
            .iter()
            .find(|e| e.tx == tx && e.rx == rx && e.cfg == *cfg && e.env == *env)
        {
            mpdf_obs::counter!("physics.trace_cache.hits").inc();
            return Ok(Arc::clone(&e.paths));
        }
    }
    mpdf_obs::counter!("physics.trace_cache.misses").inc();
    let paths = Arc::new(StaticPaths::new(trace(env, tx, rx, cfg)?));
    let mut entries = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = entries
        .iter()
        .find(|e| e.tx == tx && e.rx == rx && e.cfg == *cfg && e.env == *env)
    {
        // A sibling thread inserted while we traced; both results are
        // bit-identical, keep the cached one.
        return Ok(Arc::clone(&e.paths));
    }
    if entries.len() >= TRACE_CACHE_CAP {
        entries.remove(0);
    }
    entries.push(TraceCacheEntry {
        env: env.clone(),
        tx,
        rx,
        cfg: *cfg,
        paths: Arc::clone(&paths),
    });
    Ok(paths)
}

impl ChannelModel {
    /// Creates a channel model, validating the link geometry eagerly.
    ///
    /// # Errors
    /// Propagates [`TraceError`] for endpoints outside the room or a
    /// degenerate link.
    pub fn new(env: Environment, tx: Point, rx: Point) -> Result<Self, TraceError> {
        let trace_cfg = TraceConfig::default();
        let static_paths = traced_paths_cached(&env, tx, rx, &trace_cfg)?;
        Ok(ChannelModel {
            env,
            tx,
            rx,
            pathloss: PathLossModel::default(),
            trace_cfg,
            static_paths,
        })
    }

    /// Replaces the path-loss model (builder-style).
    pub fn with_pathloss(mut self, pathloss: PathLossModel) -> Self {
        self.pathloss = pathloss;
        self
    }

    /// Replaces the trace configuration (builder-style).
    ///
    /// # Errors
    /// Re-validates the link under the new configuration.
    pub fn with_trace_config(mut self, cfg: TraceConfig) -> Result<Self, TraceError> {
        self.static_paths = traced_paths_cached(&self.env, self.tx, self.rx, &cfg)?;
        self.trace_cfg = cfg;
        Ok(self)
    }

    /// Transmitter position.
    pub fn tx(&self) -> Point {
        self.tx
    }

    /// Receiver position.
    pub fn rx(&self) -> Point {
        self.rx
    }

    /// The environment.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Path-loss model in effect.
    pub fn pathloss(&self) -> &PathLossModel {
        &self.pathloss
    }

    /// TX–RX distance in metres.
    pub fn link_length(&self) -> f64 {
        self.tx.distance(self.rx)
    }

    /// Traces the channel for an optional human presence and freezes the
    /// result.
    ///
    /// When a human is present every environment path is attenuated by the
    /// body's shadow factor and the single-bounce scatter path is appended
    /// (paper Eq. 4 and Eq. 7).
    ///
    /// # Errors
    /// Propagates [`TraceError`] (can only occur if the model was built
    /// with unchecked mutation, but kept for API honesty).
    pub fn snapshot(&self, human: Option<&HumanBody>) -> Result<ChannelSnapshot, TraceError> {
        match human {
            Some(body) => self.snapshot_multi(std::slice::from_ref(body)),
            None => self.snapshot_multi(&[]),
        }
    }

    /// Traces the channel with any number of simultaneously present
    /// humans (e.g. the monitored person plus background walkers ≥5 m
    /// away, as in the paper's measurement campaign).
    ///
    /// Every environment path is attenuated by the product of all body
    /// shadow factors; each body contributes its own scatter path, itself
    /// shadowed by the *other* bodies. The snapshot is
    /// [`ChannelModel::modulate_into`] with every static path scaled by
    /// its `β`, followed by the scatter paths.
    ///
    /// # Errors
    /// Propagates [`TraceError`].
    pub fn snapshot_multi(&self, humans: &[HumanBody]) -> Result<ChannelSnapshot, TraceError> {
        let mut m = Modulation::default();
        self.modulate_into(humans, &mut m);
        let paths = self
            .static_paths
            .paths
            .iter()
            .zip(&m.betas)
            .map(|(p, &beta)| p.attenuated(beta))
            .chain(m.scatter)
            .collect();
        Ok(ChannelSnapshot {
            paths,
            pathloss: self.pathloss,
            rx: self.rx,
        })
    }

    /// Writes how `humans` modulate the link into `out` (both buffers
    /// cleared first): the shadowing product `β` of every static path,
    /// in trace order, then one scatter path per body that is not on an
    /// endpoint, shadowed by the other bodies (paper Eq. 4 and Eq. 7).
    ///
    /// This is everything about a snapshot that changes from packet to
    /// packet; together with a [`CfrTable`] it evaluates the CFR without
    /// cloning any static path.
    ///
    /// Each static path's `β` is `∏_bodies` [`HumanBody::shadow_factor`],
    /// to the bit: the pass skips the legs whose bounding box or
    /// supporting line lies farther than the body radius (plus a rounding
    /// slack) from the body centre, whose penetration is provably 0, and
    /// multiplies the remaining legs' and bodies' factors in the same
    /// order.
    pub fn modulate_into(&self, humans: &[HumanBody], out: &mut Modulation) {
        let statics = &*self.static_paths;
        out.betas.clear();
        out.betas.resize(statics.paths.len(), 1.0);
        for body in humans {
            let center = body.position();
            let margin = body.radius() + CULL_SLACK * (1.0 + body.radius());
            let mut start = 0;
            for (beta, &end) in out.betas.iter_mut().zip(&statics.leg_ends) {
                *beta *= body.legs_shadow_factor(
                    statics.legs[start..end]
                        .iter()
                        .filter(|l| !l.misses(center, margin))
                        .map(|l| l.seg),
                );
                start = end;
            }
        }
        out.scatter.clear();
        for (i, body) in humans.iter().enumerate() {
            if let Some(sp) = body.scatter_path(&self.env, self.tx, self.rx) {
                let beta: f64 = humans
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, other)| other.shadow_factor(&sp))
                    .product();
                out.scatter.push(sp.attenuated(beta));
            }
        }
    }

    /// Builds the static-path CFR table of this link over the frequency
    /// grid `freqs` and the observation offsets `offsets` (one per array
    /// element). See [`CfrTable`].
    pub fn cfr_table(&self, freqs: &[f64], offsets: &[Vec2]) -> CfrTable {
        CfrTable::new(&self.static_paths.paths, self.pathloss, freqs, offsets)
    }
}

/// How the bodies in a scene modulate a link at one instant, written by
/// [`ChannelModel::modulate_into`] into buffers the caller reuses.
#[derive(Debug, Clone, Default)]
pub struct Modulation {
    /// Shadowing product `β` of each static path, in trace order.
    pub betas: Vec<f64>,
    /// One scatter path per body, each already shadowed by the others.
    pub scatter: Vec<PropagationPath>,
}

/// A frozen path set with CFR evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSnapshot {
    paths: Vec<PropagationPath>,
    pathloss: PathLossModel,
    rx: Point,
}

impl ChannelSnapshot {
    /// The traced paths, shortest first.
    pub fn paths(&self) -> &[PropagationPath] {
        &self.paths
    }

    /// Complex CFR sample at frequency `f` for an observation point
    /// displaced `offset` metres from the nominal receiver (far-field
    /// plane-wave approximation — how each array element sees a shifted
    /// phase per path).
    pub fn cfr_at(&self, f: f64, offset: Vec2) -> Complex64 {
        self.paths
            .iter()
            .map(|p| {
                let g = p.gain(f, &self.pathloss);
                match p.arrival_direction() {
                    Some(u) => {
                        // Extra travel to the displaced element: u·offset.
                        let extra = u.dot(offset);
                        g * Complex64::cis(-2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT)
                    }
                    None => g,
                }
            })
            .sum()
    }

    /// CFR over a frequency grid at the nominal receiver.
    pub fn cfr(&self, freqs: &[f64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.cfr_with_offset_into(freqs, Vec2::ZERO, &mut out);
        out
    }

    /// CFR over a frequency grid at a displaced observation point.
    pub fn cfr_with_offset(&self, freqs: &[f64], offset: Vec2) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.cfr_with_offset_into(freqs, offset, &mut out);
        out
    }

    /// [`ChannelSnapshot::cfr`] writing into a caller-provided buffer
    /// (cleared and resized), so per-packet evaluation reuses one
    /// allocation.
    pub fn cfr_into(&self, freqs: &[f64], out: &mut Vec<Complex64>) {
        self.cfr_with_offset_into(freqs, Vec2::ZERO, out);
    }

    /// [`ChannelSnapshot::cfr_with_offset`] writing into a
    /// caller-provided buffer (cleared and resized).
    ///
    /// Batch evaluation hoists the per-path invariants — geometric
    /// length, the `(4πd)^n` Friis term and the arrival direction — out
    /// of the frequency loop while evaluating bit-identically the same
    /// expression tree as [`ChannelSnapshot::cfr_at`]: per sample the
    /// amplitude, travel phase, element phase shift and path-order
    /// summation all round exactly as the pointwise form does.
    pub fn cfr_with_offset_into(&self, freqs: &[f64], offset: Vec2, out: &mut Vec<Complex64>) {
        out.clear();
        out.resize(freqs.len(), Complex64::ZERO);
        for p in &self.paths {
            let d = p.length();
            let pd = self.pathloss.distance_term(d);
            let af = p.amplitude_factor();
            match p.arrival_direction() {
                Some(u) => {
                    // Extra travel to the displaced element: u·offset.
                    let extra = u.dot(offset);
                    for (h, &f) in out.iter_mut().zip(freqs) {
                        let amplitude = af * self.pathloss.amplitude_gain_hoisted(pd, f);
                        let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                        let g = Complex64::from_polar(amplitude, phase);
                        *h += g * Complex64::cis(
                            -2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT,
                        );
                    }
                }
                None => {
                    for (h, &f) in out.iter_mut().zip(freqs) {
                        let amplitude = af * self.pathloss.amplitude_gain_hoisted(pd, f);
                        let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                        *h += Complex64::from_polar(amplitude, phase);
                    }
                }
            }
        }
    }

    /// **Ground truth** LOS power fraction at frequency `f`: the exact
    /// quantity the paper's multipath factor `μ` (Eq. 3/11) estimates.
    ///
    /// Returns `None` when the snapshot has no LOS path or zero total
    /// power.
    pub fn true_multipath_factor(&self, f: f64) -> Option<f64> {
        let los = self
            .paths
            .iter()
            .find(|p| p.kind() == PathKind::LineOfSight)?;
        let los_power = los.gain(f, &self.pathloss).norm_sqr();
        let total = self.cfr_at(f, Vec2::ZERO).norm_sqr();
        if total <= 0.0 {
            None
        } else {
            Some(los_power / total)
        }
    }

    /// Total received power at frequency `f` (`|H(f)|²`).
    pub fn power(&self, f: f64) -> f64 {
        self.cfr_at(f, Vec2::ZERO).norm_sqr()
    }

    /// Arrival angles (radians, global frame) and amplitude factors of all
    /// paths — ground truth for angle-estimation experiments (Fig. 10).
    pub fn arrival_angles(&self) -> Vec<(f64, f64)> {
        self.paths
            .iter()
            .filter_map(|p| {
                p.arrival_direction()
                    .map(|u| (u.angle(), p.amplitude_factor()))
            })
            .collect()
    }
}

/// Per-link static-path CFR table over a fixed frequency grid and
/// array: every term of `H(f)` that no packet changes.
///
/// Bodies only scale the static paths' amplitudes (`β`) and add scatter
/// paths, so for each static path the table holds the Friis amplitude
/// and the travel-phase `cos`/`sin` per frequency, the plane-wave
/// phasor per (element, frequency), and the path's whole unshadowed
/// contribution per (element, frequency). [`CfrTable::eval_into`] adds
/// that contribution for a path with `β` exactly 1 (`factor·1 ==
/// factor`, so it is the same number), and otherwise costs three
/// multiplies per (path, frequency) and one complex multiply-add per
/// element. Either way it reproduces [`ChannelSnapshot::cfr_with_offset`]
/// of the matching snapshot bit for bit: each sample evaluates the same
/// expression tree, with the packet-invariant operands precomputed.
#[derive(Debug)]
pub struct CfrTable {
    freqs: Vec<f64>,
    offsets: Vec<Vec2>,
    pathloss: PathLossModel,
    /// Amplitude factor of each static path, before shadowing.
    factors: Vec<f64>,
    /// `amplitude_gain_hoisted(distance_term(d), f)`, `[path][freq]`.
    friis: Vec<f64>,
    /// `(cos, sin)` of the travel phase `-2πfd/c`, `[path][freq]`.
    travel: Vec<(f64, f64)>,
    /// `cis(-2πf(u·offset)/c)`, `[path][element][freq]` over the paths
    /// that have an arrival direction.
    phasors: Vec<Complex64>,
    /// Start of each path's rows in `phasors`; `None` for a path without
    /// an arrival direction (its gain reaches every element unshifted).
    phasor_rows: Vec<Option<usize>>,
    /// Each path's contribution at `β = 1`, `[path][element][freq]`.
    unshadowed: Vec<Complex64>,
}

impl CfrTable {
    fn new(
        paths: &[PropagationPath],
        pathloss: PathLossModel,
        freqs: &[f64],
        offsets: &[Vec2],
    ) -> CfrTable {
        let cells = paths.len() * freqs.len();
        let mut table = CfrTable {
            freqs: freqs.to_vec(),
            offsets: offsets.to_vec(),
            pathloss,
            factors: Vec::with_capacity(paths.len()),
            friis: Vec::with_capacity(cells),
            travel: Vec::with_capacity(cells),
            phasors: Vec::with_capacity(cells * offsets.len()),
            phasor_rows: Vec::with_capacity(paths.len()),
            unshadowed: Vec::with_capacity(cells * offsets.len()),
        };
        for p in paths {
            let d = p.length();
            let pd = pathloss.distance_term(d);
            table.factors.push(p.amplitude_factor());
            for &f in freqs {
                table.friis.push(pathloss.amplitude_gain_hoisted(pd, f));
                let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                table.travel.push((phase.cos(), phase.sin()));
            }
            let rows = p.arrival_direction().map(|u| {
                let start = table.phasors.len();
                for off in offsets {
                    // Extra travel to the displaced element: u·offset.
                    let extra = u.dot(*off);
                    table.phasors.extend(freqs.iter().map(|&f| {
                        Complex64::cis(-2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT)
                    }));
                }
                start
            });
            table.phasor_rows.push(rows);
        }
        let mut gains = Vec::with_capacity(freqs.len());
        let mut row = vec![Complex64::ZERO; freqs.len()];
        for i in 0..paths.len() {
            table.static_gains(i, table.factors[i], &mut gains);
            for e in 0..offsets.len() {
                table.combine_static(i, e, &gains, &mut row, |h, g| *h = g);
                table.unshadowed.extend_from_slice(&row);
            }
        }
        table
    }

    /// Writes static path `i`'s gain at every frequency into `gains` for
    /// the amplitude factor `af`: per sample exactly
    /// `Complex64::from_polar(af * friis, phase)`.
    fn static_gains(&self, i: usize, af: f64, gains: &mut Vec<Complex64>) {
        let cells = i * self.freqs.len()..(i + 1) * self.freqs.len();
        gains.clear();
        gains.extend(
            self.friis[cells.clone()]
                .iter()
                .zip(&self.travel[cells])
                .map(|(&a, &(cos, sin))| {
                    let amplitude = af * a;
                    Complex64::new(amplitude * cos, amplitude * sin)
                }),
        );
    }

    /// Applies `op(h, term)` to each sample of `row` with static path
    /// `i`'s term at element `e`: its gain times the element's plane-wave
    /// phasor, or the bare gain for a path without arrival direction.
    fn combine_static(
        &self,
        i: usize,
        e: usize,
        gains: &[Complex64],
        row: &mut [Complex64],
        op: impl Fn(&mut Complex64, Complex64),
    ) {
        match self.phasor_rows[i] {
            Some(start) => {
                let nf = self.freqs.len();
                let phasors = &self.phasors[start + e * nf..start + (e + 1) * nf];
                for ((h, &g), &ph) in row.iter_mut().zip(gains).zip(phasors) {
                    op(h, g * ph);
                }
            }
            None => {
                for (h, &g) in row.iter_mut().zip(gains) {
                    op(h, g);
                }
            }
        }
    }

    /// Evaluates the CFR of the modulated link at every element into
    /// `out`, row-major `[element][freq]` (cleared and resized). Static
    /// paths come first, in trace order, then the scatter paths, so each
    /// sample accumulates its paths in snapshot order.
    ///
    /// # Panics
    /// Panics if `m` does not hold one `β` per static path of the link
    /// the table was built for.
    pub fn eval_into(&self, m: &Modulation, out: &mut Vec<Complex64>) {
        assert_eq!(
            m.betas.len(),
            self.factors.len(),
            "modulation must hold one β per static path"
        );
        let nf = self.freqs.len();
        out.clear();
        out.resize(self.offsets.len() * nf, Complex64::ZERO);
        if nf == 0 {
            return;
        }
        let block = out.len();
        let mut gains = Vec::with_capacity(nf);
        for (i, (&factor, &beta)) in self.factors.iter().zip(&m.betas).enumerate() {
            if beta.to_bits() == 1.0f64.to_bits() {
                // Unshadowed: `factor * 1.0 == factor`, so the stored
                // term is exactly what the arithmetic below would give.
                let terms = &self.unshadowed[i * block..(i + 1) * block];
                for (h, &t) in out.iter_mut().zip(terms) {
                    *h += t;
                }
                continue;
            }
            // Exactly `attenuated(β).amplitude_factor()`.
            self.static_gains(i, factor * beta, &mut gains);
            for (e, row) in out.chunks_exact_mut(nf).enumerate() {
                self.combine_static(i, e, &gains, row, |h, t| *h += t);
            }
        }
        for p in &m.scatter {
            self.add_path(p, &mut gains, out);
        }
    }

    /// Adds one path's CFR at every element with the pointwise formula
    /// of [`ChannelSnapshot::cfr_with_offset_into`]; `gains` is a reused buffer.
    fn add_path(&self, p: &PropagationPath, gains: &mut Vec<Complex64>, out: &mut [Complex64]) {
        let d = p.length();
        let pd = self.pathloss.distance_term(d);
        let af = p.amplitude_factor();
        gains.clear();
        gains.extend(self.freqs.iter().map(|&f| {
            let amplitude = af * self.pathloss.amplitude_gain_hoisted(pd, f);
            let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
            Complex64::from_polar(amplitude, phase)
        }));
        let dir = p.arrival_direction();
        for (row, off) in out.chunks_exact_mut(self.freqs.len()).zip(&self.offsets) {
            for ((h, &g), &f) in row.iter_mut().zip(gains.iter()).zip(&self.freqs) {
                *h += match dir {
                    Some(u) => {
                        // Extra travel to the displaced element: u·offset.
                        let extra = u.dot(*off);
                        g * Complex64::cis(-2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT)
                    }
                    None => g,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_geom::shapes::Rect;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn classroom() -> Environment {
        Environment::empty_room(Rect::new(p(0.0, 0.0), p(8.0, 6.0)))
    }

    /// Paper §III measurement setup: 4 m link in a 6 m × 8 m classroom.
    fn link() -> ChannelModel {
        ChannelModel::new(classroom(), p(2.0, 3.0), p(6.0, 3.0)).unwrap()
    }

    const F: f64 = 2.462e9;

    #[test]
    fn construction_validates_geometry() {
        assert!(ChannelModel::new(classroom(), p(-1.0, 0.0), p(6.0, 3.0)).is_err());
        assert!(ChannelModel::new(classroom(), p(2.0, 3.0), p(2.0, 3.0)).is_err());
        let m = link();
        assert!((m.link_length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn static_snapshot_is_multipath() {
        let snap = link().snapshot(None).unwrap();
        assert!(snap.paths().len() > 1, "empty room still has wall bounces");
        assert_eq!(snap.paths()[0].kind(), PathKind::LineOfSight);
        let h = snap.cfr_at(F, Vec2::ZERO);
        assert!(h.norm() > 0.0);
    }

    #[test]
    fn true_multipath_factor_in_unit_range_for_los_dominated_link() {
        let snap = link().snapshot(None).unwrap();
        let mu = snap.true_multipath_factor(F).unwrap();
        // LOS is the strongest single path here; superposition can push the
        // ratio above 1 when paths cancel, but it must be positive & finite.
        assert!(mu > 0.0 && mu.is_finite());
    }

    #[test]
    fn multipath_factor_varies_across_frequency() {
        // The configurability claim of §III-B3: μ is a function of f.
        let snap = link().snapshot(None).unwrap();
        let mus: Vec<f64> = (0..8)
            .map(|i| {
                snap.true_multipath_factor(2.452e9 + i as f64 * 2.5e6)
                    .unwrap()
            })
            .collect();
        let spread = mus.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - mus.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 1e-3, "μ must vary with frequency, spread={spread}");
    }

    #[test]
    fn human_shadowing_changes_cfr() {
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let body = HumanBody::new(p(4.0, 3.0)); // on the LOS
        let shadowed = model.snapshot(Some(&body)).unwrap();
        let dp = (shadowed.power(F) - calm.power(F)).abs() / calm.power(F);
        assert!(dp > 0.05, "blocking the LOS must change power, got {dp}");
        // Scatter path appended.
        assert!(shadowed
            .paths()
            .iter()
            .any(|pp| pp.kind() == PathKind::HumanScatter));
    }

    #[test]
    fn human_near_link_perturbs_via_reflection_only() {
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let body = HumanBody::new(p(4.0, 3.8)); // beside the link (Fig. 1e)
        let near = model.snapshot(Some(&body)).unwrap();
        // LOS untouched...
        let los_calm = calm.paths()[0].amplitude_factor();
        let los_near = near.paths()[0].amplitude_factor();
        assert!((los_calm - los_near).abs() < 1e-12);
        // ...but the CFR still moves thanks to the scattered path.
        let delta = (near.cfr_at(F, Vec2::ZERO) - calm.cfr_at(F, Vec2::ZERO)).norm();
        assert!(delta > 0.0);
    }

    #[test]
    fn rss_change_sign_depends_on_superposition() {
        // The paper's headline §III observation: Δs can be a drop OR a rise.
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let mut signs = std::collections::HashSet::new();
        for i in 0..40 {
            let x = 2.2 + 0.09 * i as f64;
            for dy in [-0.6, -0.3, 0.0, 0.3, 0.6] {
                let body = HumanBody::new(p(x, 3.0 + dy));
                let snap = model.snapshot(Some(&body)).unwrap();
                let ds = 10.0 * (snap.power(F) / calm.power(F)).log10();
                if ds > 0.05 {
                    signs.insert("rise");
                } else if ds < -0.05 {
                    signs.insert("drop");
                }
            }
        }
        assert!(
            signs.contains("rise") && signs.contains("drop"),
            "need both RSS rises and drops, got {signs:?}"
        );
    }

    #[test]
    fn displaced_observer_sees_phase_shift() {
        let snap = link().snapshot(None).unwrap();
        let lambda = PathLossModel::wavelength(F);
        let h0 = snap.cfr_at(F, Vec2::ZERO);
        let h1 = snap.cfr_at(F, Vec2::new(0.0, lambda / 2.0));
        // Same order of magnitude but different phase/value.
        assert!((h0 - h1).norm() > 1e-3 * h0.norm());
    }

    #[test]
    fn cfr_grid_matches_pointwise_calls() {
        let snap = link().snapshot(None).unwrap();
        let freqs = [2.452e9, 2.462e9, 2.472e9];
        let grid = snap.cfr(&freqs);
        for (i, &f) in freqs.iter().enumerate() {
            assert_eq!(grid[i], snap.cfr_at(f, Vec2::ZERO));
        }
    }

    #[test]
    fn batch_cfr_bitwise_matches_pointwise_at_offsets() {
        // The perf-critical contract: the hoisted batch evaluation and
        // the static-path table must reproduce `cfr_at` to the bit, for
        // every path kind (LOS, wall bounces, human scatter) and every
        // element offset including the nominal receiver.
        let model = link();
        let body = HumanBody::new(p(4.0, 3.4));
        let snap = model.snapshot(Some(&body)).unwrap();
        let freqs: Vec<f64> = (0..30).map(|k| 2.442e9 + k as f64 * 1.25e6).collect();
        let offsets = [Vec2::ZERO, Vec2::new(0.0, 0.0609), Vec2::new(-0.031, 0.017)];
        let table = model.cfr_table(&freqs, &offsets);
        let mut m = Modulation::default();
        model.modulate_into(&[body], &mut m);
        let mut buf = Vec::new();
        table.eval_into(&m, &mut buf);
        for (e, &off) in offsets.iter().enumerate() {
            let batch = snap.cfr_with_offset(&freqs, off);
            for (k, &f) in freqs.iter().enumerate() {
                let reference = snap.cfr_at(f, off);
                assert_eq!(batch[k].re.to_bits(), reference.re.to_bits());
                assert_eq!(batch[k].im.to_bits(), reference.im.to_bits());
                let h = buf[e * freqs.len() + k];
                assert_eq!(h.re.to_bits(), reference.re.to_bits());
                assert_eq!(h.im.to_bits(), reference.im.to_bits());
            }
        }
    }

    #[test]
    fn snapshot_is_the_modulated_static_paths_then_scatter() {
        let model = link();
        let bodies = [HumanBody::new(p(4.0, 3.0)), HumanBody::new(p(3.0, 4.5))];
        let mut m = Modulation::default();
        model.modulate_into(&bodies, &mut m);
        let snap = model.snapshot_multi(&bodies).unwrap();
        let n = model.static_paths.paths.len();
        assert_eq!(m.betas.len(), n);
        assert_eq!(m.scatter.len(), 2);
        assert_eq!(snap.paths().len(), n + 2);
        for ((path, base), &beta) in snap
            .paths()
            .iter()
            .zip(model.static_paths.paths.iter())
            .zip(&m.betas)
        {
            assert_eq!(*path, base.attenuated(beta));
        }
        assert_eq!(&snap.paths()[n..], &m.scatter[..]);
        // No bodies: every β is exactly 1 and the snapshot is the trace.
        model.modulate_into(&[], &mut m);
        assert!(m.betas.iter().all(|&b| b == 1.0) && m.scatter.is_empty());
        assert_eq!(
            model.snapshot(None).unwrap().paths(),
            &model.static_paths.paths[..]
        );
    }

    #[test]
    fn trace_cache_shares_identical_geometry_and_invalidates_on_change() {
        // Distinct models over the same (env, tx, rx, cfg) share one
        // traced path set (the receiver clones/forks that build channels
        // repeatedly hit this), while any geometry change re-traces.
        let a = ChannelModel::new(classroom(), p(2.0, 3.0), p(6.0, 3.0)).unwrap();
        let b = ChannelModel::new(classroom(), p(2.0, 3.0), p(6.0, 3.0)).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a.static_paths, &b.static_paths),
            "identical geometry must reuse the cached trace"
        );
        // Reuse is bit-identical by construction (same allocation).
        assert_eq!(a.static_paths, b.static_paths);
        // A moved receiver is a different key → different paths.
        let moved = ChannelModel::new(classroom(), p(2.0, 3.0), p(6.0, 2.0)).unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            &a.static_paths,
            &moved.static_paths
        ));
        assert_ne!(a.static_paths, moved.static_paths);
        // New furniture changes the environment → traced paths change.
        let mut builder = Environment::builder(
            mpdf_geom::shapes::Rect::new(p(0.0, 0.0), p(8.0, 6.0)),
            crate::material::Material::CONCRETE,
        );
        builder.furniture(
            mpdf_geom::shapes::Rect::new(p(3.5, 2.5), p(4.5, 3.5)),
            crate::material::Material::METAL,
        );
        let furnished = ChannelModel::new(builder.build(), p(2.0, 3.0), p(6.0, 3.0)).unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            &a.static_paths,
            &furnished.static_paths
        ));
        assert_ne!(a.static_paths, furnished.static_paths);
        // Only the human moving does NOT re-trace: snapshots of both
        // models borrow the same static set, modulated per position.
        let s1 = a.snapshot(Some(&HumanBody::new(p(3.0, 3.2)))).unwrap();
        let s2 = a.snapshot(Some(&HumanBody::new(p(5.0, 2.8)))).unwrap();
        assert_ne!(s1, s2, "human position must still modulate the CFR");
    }

    #[test]
    fn arrival_angles_include_los_direction() {
        let snap = link().snapshot(None).unwrap();
        let angles = snap.arrival_angles();
        // LOS arrives travelling in +x: angle ≈ 0.
        assert!(angles.iter().any(|&(a, _)| a.abs() < 1e-9));
        assert_eq!(angles.len(), snap.paths().len());
    }

    mod table_oracle {
        use super::*;
        use proptest::prelude::*;

        fn assert_bitwise(
            table: &CfrTable,
            m: &Modulation,
            snap: &ChannelSnapshot,
        ) -> Result<(), TestCaseError> {
            let mut h = Vec::new();
            table.eval_into(m, &mut h);
            let nf = table.freqs.len();
            prop_assert_eq!(h.len(), table.offsets.len() * nf);
            for (e, &off) in table.offsets.iter().enumerate() {
                let oracle = snap.cfr_with_offset(&table.freqs, off);
                for (k, o) in oracle.iter().enumerate() {
                    let t = h[e * nf + k];
                    prop_assert!(
                        t.re.to_bits() == o.re.to_bits() && t.im.to_bits() == o.im.to_bits(),
                        "element {} subcarrier {}: table {:?} vs oracle {:?}",
                        e,
                        k,
                        t,
                        o
                    );
                }
            }
            Ok(())
        }

        /// A body anywhere in the room, on the LOS, near the receiver or
        /// exactly on an endpoint (where it has no scatter path).
        fn body() -> impl Strategy<Value = HumanBody> {
            (
                0usize..4,
                0.3f64..7.7,
                0.3f64..5.7,
                -0.3f64..0.3,
                -0.3f64..0.3,
            )
                .prop_map(|(place, x, y, dx, dy)| {
                    HumanBody::new(match place {
                        0 => p(x, y),
                        1 => p(2.0 + (x - 0.3) * 4.0 / 7.4, 3.0),
                        2 => p(6.0 + dx, 3.0 + dy),
                        _ if dx < 0.0 => p(2.0, 3.0),
                        _ => p(6.0, 3.0),
                    })
                })
        }

        /// A 1–8 element linear array with arbitrary axis and spacing.
        fn array() -> impl Strategy<Value = Vec<Vec2>> {
            (1usize..9, 0.0f64..std::f64::consts::TAU, 0.02f64..0.08).prop_map(
                |(n, axis, spacing)| {
                    let mid = (n as f64 - 1.0) / 2.0;
                    (0..n)
                        .map(|e| Vec2::new(axis.cos(), axis.sin()) * ((e as f64 - mid) * spacing))
                        .collect()
                },
            )
        }

        fn grid() -> impl Strategy<Value = Vec<f64>> {
            (2.40e9f64..5.8e9, 0.3e6f64..2.5e6, 1usize..57)
                .prop_map(|(f0, df, n)| (0..n).map(|k| f0 + k as f64 * df).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn table_matches_the_snapshot_oracle_bitwise(
                bodies in 0usize..3,
                a in body(),
                b in body(),
                offsets in array(),
                freqs in grid(),
            ) {
                let model = link();
                let humans = &[a, b][..bodies];
                let table = model.cfr_table(&freqs, &offsets);
                let mut m = Modulation::default();
                model.modulate_into(humans, &mut m);
                assert_bitwise(&table, &m, &model.snapshot_multi(humans).unwrap())?;
            }

            #[test]
            fn table_mixes_unshadowed_and_shadowed_paths_bitwise(
                x in 3.0f64..5.0,
                dy in -0.05f64..0.05,
                second in 0usize..2,
                b in body(),
                offsets in array(),
                freqs in grid(),
            ) {
                // A body on the LOS shadows a few paths (β < 1) and leaves
                // the rest at exactly 1. The oracle snapshot takes its β
                // from `shadow_factor` directly, not from `modulate_into`.
                let model = link();
                let humans = &[HumanBody::new(p(x, 3.0 + dy)), b][..1 + second];
                let betas: Vec<f64> = model
                    .static_paths
                    .paths
                    .iter()
                    .map(|path| humans.iter().map(|h| h.shadow_factor(path)).product())
                    .collect();
                prop_assert!(betas[0] < 1.0, "the LOS must be shadowed");
                let alone = model.static_paths.paths.iter().map(|path| humans[0].shadow_factor(path));
                prop_assert!(alone.into_iter().any(|b| b == 1.0), "the LOS body must leave paths unshadowed");
                let mut m = Modulation::default();
                model.modulate_into(humans, &mut m);
                let paths = model
                    .static_paths
                    .paths
                    .iter()
                    .zip(&betas)
                    .map(|(path, &beta)| path.attenuated(beta))
                    .chain(m.scatter.iter().cloned())
                    .collect();
                let snap = ChannelSnapshot { paths, pathloss: model.pathloss, rx: model.rx };
                let table = model.cfr_table(&freqs, &offsets);
                assert_bitwise(&table, &m, &snap)?;
            }

            #[test]
            fn paths_without_arrival_direction_match_the_oracle_bitwise(
                af in 0.0f64..1.0,
                beta in 0.0f64..1.0,
                offsets in array(),
                freqs in grid(),
            ) {
                // A final leg of zero length has no arrival direction.
                let (tx, rx) = (p(2.0, 3.0), p(6.0, 3.0));
                let stub = PropagationPath::new(
                    vec![tx, p(4.0, 5.0), rx, rx],
                    af,
                    PathKind::WallReflection { order: 1 },
                );
                prop_assert!(stub.arrival_direction().is_none());
                let mut statics = link().static_paths.paths.clone();
                statics.insert(1, stub.clone());
                let pathloss = PathLossModel::default();
                let table = CfrTable::new(&statics, pathloss, &freqs, &offsets);
                let m = Modulation {
                    betas: (0..statics.len()).map(|i| if i % 2 == 0 { beta } else { 1.0 }).collect(),
                    scatter: vec![stub.attenuated(beta)],
                };
                let mut paths: Vec<_> =
                    statics.iter().zip(&m.betas).map(|(p, &b)| p.attenuated(b)).collect();
                paths.extend(m.scatter.iter().cloned());
                let snap = ChannelSnapshot { paths, pathloss, rx };
                assert_bitwise(&table, &m, &snap)?;
            }
        }
    }

    mod cull_oracle {
        use super::*;
        use proptest::prelude::*;

        /// Raw draws for one body: where to put it, which leg it hugs and
        /// how, and its radius.
        type RawBody = ((usize, usize, f64), (usize, f64, f64), (f64, f64));

        fn raw_body() -> impl Strategy<Value = RawBody> {
            (
                (0usize..3, 0usize..100_000, 0.0f64..=1.0),
                (0usize..2, -1e-9f64..=1e-9, 0.05f64..0.6),
                (0.3f64..7.7, 0.3f64..5.7),
            )
        }

        /// Places a body anywhere in the room, with its rim within
        /// ±1e-9 m of a static leg, or with its centre on the culling
        /// boundary of a leg's box.
        fn place(model: &ChannelModel, raw: RawBody) -> HumanBody {
            let ((place, pick, t), (side, delta, radius), (x, y)) = raw;
            let legs = &model.static_paths.legs;
            let leg = &legs[pick % legs.len()];
            let sign = if side == 0 { -1.0 } else { 1.0 };
            let center = match place {
                0 => p(x, y),
                1 => {
                    let normal = leg.seg.normal().unwrap_or(Vec2::new(0.0, 1.0));
                    leg.seg.at(t) + normal * (sign * (radius + delta))
                }
                _ => {
                    // On the culling boundary of the box's x extent, or
                    // of the supporting line's offset band.
                    let m = radius + CULL_SLACK * (1.0 + radius) + leg.slack;
                    match (side, leg.normal == Vec2::ZERO) {
                        (0, _) | (_, true) => {
                            let edge = if t < 0.5 {
                                leg.min.x - m
                            } else {
                                leg.max.x + m
                            };
                            p(edge + delta * 1e-3, leg.min.y + t * (leg.max.y - leg.min.y))
                        }
                        _ => leg.seg.at(t) + leg.normal * (m + delta * 1e-3),
                    }
                }
            };
            HumanBody::with_params(center, radius, 0.5, HumanBody::DEFAULT_MIN_SHADOW)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn culled_betas_match_shadow_factor_bitwise(
                raw in proptest::collection::vec(raw_body(), 1..4),
            ) {
                let model = link();
                let humans: Vec<HumanBody> = raw.into_iter().map(|r| place(&model, r)).collect();
                let mut m = Modulation::default();
                model.modulate_into(&humans, &mut m);
                for (i, (path, &beta)) in model.static_paths.paths.iter().zip(&m.betas).enumerate() {
                    let oracle: f64 = humans.iter().map(|h| h.shadow_factor(path)).product();
                    prop_assert!(
                        beta.to_bits() == oracle.to_bits(),
                        "path {}: culled β {:e} vs shadow_factor {:e}",
                        i,
                        beta,
                        oracle
                    );
                }
            }
        }

        #[test]
        fn culling_skips_most_legs_of_a_body_beside_the_link() {
            let model = link();
            let body = HumanBody::new(p(4.0, 3.4));
            let margin = body.radius() + CULL_SLACK * (1.0 + body.radius());
            let legs = &model.static_paths.legs;
            let kept = legs
                .iter()
                .filter(|l| !l.misses(body.position(), margin))
                .count();
            assert!(kept * 2 < legs.len(), "{kept} of {} legs kept", legs.len());
        }
    }
}
