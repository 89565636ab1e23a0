//! Resource meters and summary statistics, from `/proc` and the standard
//! library only.

use monster_util::stats::percentile;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Process user + system CPU seconds so far (`/proc/self/stat` fields 14
/// and 15, all threads). Linux reports them in `USER_HZ` ticks, which is
/// 100 on every supported configuration; there is no libc here to ask.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory inside the checkout, removed on drop — which also
/// runs when a failed check unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    /// The build directory: `CARGO_TARGET_DIR` when the driver sets it, the
    /// package's own `target/` otherwise. Both are inside the checkout and
    /// ignored by git, so everything the benchmark writes goes below it.
    pub fn base() -> PathBuf {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
    }

    /// `<build dir>/pipeline-scratch/<pid>-<label>`.
    pub fn new(label: &str) -> Scratch {
        let dir = Scratch::base()
            .join("pipeline-scratch")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fixed piece of CPU work, timed: how fast the box is right now.
///
/// The sandbox's vCPUs share their caches and memory with neighbours, and
/// the same code runs 15–40 % slower for seconds or minutes at a time (a
/// loop that never calls the product shows it as clearly as the product
/// does). That is more than any bound this benchmark sets, so every
/// duration is reported in *calibrated* time: divided by how much slower
/// than [`Yardstick::NOMINAL_NS`] the yardstick ran right next to it. A
/// change to the product moves calibrated time exactly as it moves wall
/// time; a slow minute on the host moves it about half as much.
///
/// The work is dependent multiply-adds over loads from a 64 KiB table: it
/// stays in L2, allocates nothing, and calls nothing outside this file, so
/// neither the product's heap nor an edit to the product can move it.
pub struct Yardstick {
    cells: Vec<u64>,
    state: u64,
    /// Nanoseconds of every `mark` so far.
    pub marks_ns: Vec<f64>,
}

impl Yardstick {
    /// What one `mark` takes on the 2-core box when the host is quiet.
    pub const NOMINAL_NS: f64 = 270_000.0;
    const STEPS: usize = 60_000;

    pub fn new() -> Yardstick {
        let cells = (0..8192u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        Yardstick { cells, state: 1, marks_ns: Vec::with_capacity(4096) }
    }

    /// Do the work once; the index of its sample.
    pub fn mark(&mut self) -> usize {
        let t = Instant::now();
        let mut x = self.state;
        for i in 0..Self::STEPS {
            let at = (x >> 51) as usize & 8191;
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(self.cells[at]);
            self.cells[i & 8191] ^= x;
        }
        self.state = std::hint::black_box(x);
        self.marks_ns.push(t.elapsed().as_nanos() as f64);
        self.marks_ns.len() - 1
    }

    /// How many times slower than nominal the box ran around mark `i`: the
    /// median of the marks from one before to two after (as many as there
    /// are), so that one descheduled mark does not skew the op that
    /// followed mark `i`.
    pub fn slowness(&self, i: usize) -> f64 {
        let window = &self.marks_ns[i.saturating_sub(1)..(i + 3).min(self.marks_ns.len())];
        percentile(window, 0.5) / Self::NOMINAL_NS
    }

    /// Wall milliseconds of an op that followed mark `i`, in calibrated time.
    pub fn calibrate(&self, ms: f64, i: usize) -> f64 {
        ms / self.slowness(i)
    }

    /// Slowness over a stretch of a run (a timed part, a set-up): the
    /// median of every mark made in it, whichever thread made it.
    pub fn slowness_of(marks_ns: &[f64]) -> f64 {
        percentile(marks_ns, 0.5) / Self::NOMINAL_NS
    }
}

/// Set up `reps` times, keeping the last; the median calibrated set-up
/// time. `setup` marks the yardstick as it goes.
pub fn repeat_setup<T>(
    reps: usize,
    yard: &mut Yardstick,
    mut setup: impl FnMut(usize, &mut Yardstick) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let from = yard.mark();
        let t = Instant::now();
        kept = Some(setup(rep, yard));
        let wall_s = t.elapsed().as_secs_f64();
        yard.mark();
        times.push(wall_s / Yardstick::slowness_of(&yard.marks_ns[from..]));
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// One timed operation: its wall time and the mark made just before it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub ms: f64,
    pub mark: usize,
}

/// What a timed part measured, ready to report.
pub struct TimedPart {
    /// Calibrated latencies of the ops that succeeded.
    pub calibrated_ms: Vec<f64>,
    /// Their wall latencies, for the note beside the metrics.
    pub wall_ms: Vec<f64>,
    /// Slowness of the box over the whole part.
    pub slowness: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Bytes the ops handed to their sink (socket or data directory).
    pub sink_bytes: f64,
    pub peak_rss_mb: f64,
}

/// The tail percentile a sample of `n` supports: the highest of
/// 50/75/90/95/99 that still has at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| (n as f64 * f64::from(100 - p) / 100.0).floor() >= 10.0)
        .unwrap_or(50)
}

/// Median and supported tail of a latency sample.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: u32,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let tail_pct = tail_percentile(xs.len());
    Summary {
        n: xs.len(),
        p50: percentile(xs, 0.5),
        tail: percentile(xs, f64::from(tail_pct) / 100.0),
        tail_pct,
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(xs, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(20_000), 99);
    }

    #[test]
    fn meters_read_this_process() {
        assert!(peak_rss_mb() > 1.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn scratch_is_counted_and_removed() {
        let path = {
            let s = Scratch::new("meters-test");
            std::fs::create_dir_all(s.path().join("sub")).unwrap();
            std::fs::write(s.path().join("a"), [0u8; 10]).unwrap();
            std::fs::write(s.path().join("sub/b"), [0u8; 32]).unwrap();
            assert_eq!(dir_bytes(s.path()), 42);
            s.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
