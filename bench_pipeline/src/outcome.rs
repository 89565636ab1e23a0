//! What one run hands back to `main`: metric values, the attempted and
//! failed counts, and the lines to print above the result.

use crate::meters::{summarize, TimedPart};
use crate::metrics::{Def, Report};

pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn new(defs: &'static [Def]) -> Outcome {
        Outcome { report: Report::new(defs), attempted: 0, failed: 0, lines: Vec::new() }
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Count `n` timed operations of which `failed` errored, were refused
    /// or timed out.
    pub fn ops(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }

    /// Record one correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.lines.push(format!("check {}: {what}", if ok { "ok" } else { "FAILED" }));
    }

    /// Fill the seven end-to-end metrics. Durations are calibrated (see
    /// [`crate::meters::Yardstick`]); the wall figures go in a note.
    pub fn end_to_end(&mut self, op: &str, setup_s: f64, part: &TimedPart) {
        let (cal, wall) = (summarize(&part.calibrated_ms), summarize(&part.wall_ms));
        let n = cal.n as f64;
        self.note(format!("op = {op}, n={} tail=p{}", cal.n, cal.tail_pct));
        self.note(format!(
            "wall: op_ms_p50={:.4} op_ms_tail={:.4} ops_per_s={:.4} cpu_ms_per_op={:.4}; the box ran at {:.3} x nominal yardstick time",
            wall.p50,
            wall.tail,
            n / part.wall_s,
            part.cpu_s * 1e3 / n,
            part.slowness
        ));
        self.report.set("setup_s", setup_s);
        self.report.set("op_ms_p50", cal.p50);
        self.report.set("op_ms_tail", cal.tail);
        self.report.set("ops_per_s", n / part.wall_s * part.slowness);
        self.report.set("cpu_ms_per_op", part.cpu_s * 1e3 / n / part.slowness);
        self.report.set("kb_per_op", part.sink_bytes / 1024.0 / n);
        self.report.set("peak_rss_mb", part.peak_rss_mb);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
