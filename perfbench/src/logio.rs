//! A timing [`LogIo`] wrapper: shard-log IO measured from outside the
//! fleet, by wrapping the filesystem surface the logs already abstract.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mpdf_fleet::LogIo;

use crate::probe::Tracer;

/// Cumulative IO figures of every [`TimedIo`] sharing one handle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoTotals {
    /// Seconds in reads.
    pub read_s: f64,
    /// Bytes returned by reads.
    pub read_bytes: u64,
    /// Seconds in durable writes (append, replace, rename).
    pub write_s: f64,
    /// Bytes handed to writes.
    pub write_bytes: u64,
    /// fsync calls the durable writes perform: one per append, one per
    /// rename (parent directory), two per replace (file, then directory).
    pub syncs: u64,
    /// Operations that returned an error.
    pub errors: u64,
}

impl IoTotals {
    /// Field-wise `self - before`.
    pub fn since(&self, before: &IoTotals) -> IoTotals {
        IoTotals {
            read_s: self.read_s - before.read_s,
            read_bytes: self.read_bytes - before.read_bytes,
            write_s: self.write_s - before.write_s,
            write_bytes: self.write_bytes - before.write_bytes,
            syncs: self.syncs - before.syncs,
            errors: self.errors - before.errors,
        }
    }
}

/// Shared totals handle.
pub type IoLedger = Arc<Mutex<IoTotals>>;

/// Reads a ledger.
pub fn totals(ledger: &IoLedger) -> IoTotals {
    *ledger.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wraps a [`LogIo`], timing every call into `ledger` and, when the
/// tracer is recording, into an `io.*` span.
#[derive(Debug)]
pub struct TimedIo<IO: LogIo> {
    inner: IO,
    ledger: IoLedger,
    tracer: Tracer,
}

impl<IO: LogIo> TimedIo<IO> {
    /// Wraps `inner`.
    pub fn new(inner: IO, ledger: IoLedger, tracer: Tracer) -> Self {
        TimedIo {
            inner,
            ledger,
            tracer,
        }
    }

    fn write_op<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        syncs: u64,
        op: impl FnOnce(&mut IO) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let inner = &mut self.inner;
        let start = Instant::now();
        let out = self.tracer.span(name, || op(inner));
        let secs = start.elapsed().as_secs_f64();
        let mut t = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        t.write_s += secs;
        t.write_bytes += bytes as u64;
        match &out {
            Ok(_) => t.syncs += syncs,
            Err(_) => t.errors += 1,
        }
        out
    }
}

impl<IO: LogIo> LogIo for TimedIo<IO> {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        let inner = &mut self.inner;
        let start = Instant::now();
        let out = self.tracer.span("io.read", || inner.read(path));
        let secs = start.elapsed().as_secs_f64();
        let mut t = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        t.read_s += secs;
        match &out {
            Ok(data) => t.read_bytes += data.len() as u64,
            Err(_) => t.errors += 1,
        }
        out
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.write_op("io.append", bytes.len(), 1, |io| io.append(path, bytes))
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.write_op("io.replace", bytes.len(), 2, |io| io.replace(path, bytes))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.write_op("io.rename", 0, 1, |io| io.rename(from, to))
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    /// In-memory `LogIo` that takes a known time per call and can be told
    /// to fail.
    #[derive(Default)]
    struct SlowMem {
        files: BTreeMap<PathBuf, Vec<u8>>,
        fail: bool,
    }

    impl SlowMem {
        fn pause() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        fn check(&self) -> std::io::Result<()> {
            if self.fail {
                Err(std::io::Error::other("injected"))
            } else {
                Ok(())
            }
        }
    }

    impl LogIo for SlowMem {
        fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
            Self::pause();
            self.check()?;
            Ok(self.files.get(path).cloned().unwrap_or_default())
        }
        fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            Self::pause();
            self.check()?;
            self.files
                .entry(path.to_path_buf())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        }
        fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            Self::pause();
            self.check()?;
            self.files.insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        }
        fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
            Self::pause();
            self.check()?;
            let data = self.files.remove(from).unwrap_or_default();
            self.files.insert(to.to_path_buf(), data);
            Ok(())
        }
        fn exists(&mut self, path: &Path) -> bool {
            self.files.contains_key(path)
        }
    }

    #[test]
    fn wrapper_passes_through_and_accounts_every_call() {
        let ledger = IoLedger::default();
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let mut io = TimedIo::new(SlowMem::default(), ledger.clone(), tracer.clone());
        let a = Path::new("a");
        let b = Path::new("b");
        io.append(a, b"12345").unwrap();
        io.append(a, b"678").unwrap();
        assert_eq!(io.read(a).unwrap(), b"12345678");
        io.replace(b, b"xy").unwrap();
        io.rename(b, a).unwrap();
        assert!(io.exists(a) && !io.exists(b));

        let t = totals(&ledger);
        assert_eq!(t.write_bytes, 10);
        assert_eq!(t.read_bytes, 8);
        assert_eq!(t.syncs, 1 + 1 + 2 + 1);
        assert_eq!(t.errors, 0);
        assert!(t.write_s >= 0.008, "four 2 ms writes, got {}", t.write_s);
        assert!(t.read_s >= 0.002 && t.read_s < t.write_s);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "io.append",
                "io.append",
                "io.read",
                "io.replace",
                "io.rename"
            ]
        );
    }

    #[test]
    fn failed_calls_count_as_errors_not_syncs() {
        let ledger = IoLedger::default();
        let inner = SlowMem {
            fail: true,
            ..SlowMem::default()
        };
        let mut io = TimedIo::new(inner, ledger.clone(), Tracer::new());
        assert!(io.append(Path::new("a"), b"x").is_err());
        assert!(io.read(Path::new("a")).is_err());
        let t = totals(&ledger);
        assert_eq!((t.syncs, t.errors), (0, 2));
        assert!(t.write_s > 0.0 && t.read_s > 0.0);
    }
}
