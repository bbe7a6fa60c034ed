//! Measurement from outside the program: benchmark-side spans around
//! public calls (kept in memory, written when the run ends), deltas of
//! the program's existing `mpdf_obs` counters and stage histograms, and
//! process figures read from `/proc`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One recorded span: a benchmark-side timer around a call into the
/// program. `parent` indexes the enclosing span on the same recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (the public call it wraps).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    origin: Instant,
    log: Mutex<SpanLog>,
}

/// An in-memory span recorder shared by the workload loops and the
/// timing `LogIo` wrapper. Disabled, a span is a plain call.
///
/// Spans nest by call order on the driving thread; every benchmark span
/// is opened on that one thread (fleet shards step serially), so a single
/// open-span stack is exact.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A disabled recorder.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                origin: Instant::now(),
                log: Mutex::new(SpanLog::default()),
            }),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        // The log only ever holds completed pushes; a panic elsewhere
        // cannot leave it half-written.
        self.inner
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name` when recording is on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.inner.enabled.load(Ordering::SeqCst) {
            return f();
        }
        let idx = {
            let mut log = self.log();
            let idx = log.spans.len();
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                parent,
                start_ns: ns_since(self.inner.origin),
                end_ns: 0,
            });
            log.open.push(idx);
            idx
        };
        let out = f();
        let mut log = self.log();
        log.spans[idx].end_ns = ns_since(self.inner.origin);
        log.open.pop();
        out
    }

    /// Copy of every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Writes the spans as NDJSON after a `header` line.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn write_ndjson(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.log().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A reading of the program's metric registry: counters, gauges and the
/// `(count, sum_ns)` of every stage histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    stages: BTreeMap<String, (u64, u64)>,
}

impl Registry {
    /// Reads the global `mpdf_obs` registry.
    pub fn read() -> Registry {
        let snap = mpdf_obs::metrics::snapshot();
        Registry {
            counters: snap.counters.into_iter().collect(),
            gauges: snap.gauges.into_iter().collect(),
            stages: snap
                .histograms
                .into_iter()
                .map(|(name, h)| (name, (h.count, h.sum)))
                .collect(),
        }
    }

    /// Change of counter `name` since `before`.
    pub fn counter_since(&self, before: &Registry, name: &str) -> f64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        let then = before.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(then) as f64
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0) as f64
    }

    /// Calls and seconds recorded on stage `name` since `before`.
    pub fn stage_since(&self, before: &Registry, name: &str) -> (f64, f64) {
        let (n1, s1) = self.stages.get(name).copied().unwrap_or((0, 0));
        let (n0, s0) = before.stages.get(name).copied().unwrap_or((0, 0));
        (
            n1.saturating_sub(n0) as f64,
            s1.saturating_sub(s0) as f64 * 1e-9,
        )
    }

    /// Seconds recorded on stage `name` since `before`.
    pub fn stage_secs_since(&self, before: &Registry, name: &str) -> f64 {
        self.stage_since(before, name).1
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream kernel configuration.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all threads, including
/// exited ones), seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", || {});
        });
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "inner"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[1].secs() >= 0.005 && spans[0].secs() >= spans[1].secs());
        assert!(spans[2].start_ns >= spans[1].end_ns && spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            cpu_seconds() > before,
            "60 ms of spinning shows as CPU time"
        );
    }
}
