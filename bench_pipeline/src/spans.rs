//! The benchmark's span recorder.
//!
//! The traced run wraps every call it makes into a product layer in a
//! span: name, start, end, parent, and the id of the operation (interval
//! or request) it belongs to. Spans go into a pre-sized `Vec` and are
//! written out as Chrome-trace JSON only when the run ends.
//!
//! Two kinds of child exist. An *attached* child ran inside its parent's
//! interval. A *detached* child is a probe: a call the product makes
//! somewhere inside the parent (the collector's Redfish sweep, the
//! executor's TSDB queries) that the benchmark can only reach by calling
//! the same public function again on the same state, right after the
//! parent returned. Self time treats both alike:
//!
//! ```text
//! self(span) = duration(span) − Σ duration(children of span)
//! coverage(name) = Σ duration(children) ÷ Σ duration(spans called name)
//! ```

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
    pub detached: bool,
    pub thread: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so their timelines
    /// line up; `capacity` is sized for the whole run up front.
    pub fn new(epoch: Instant, thread: u32, capacity: usize) -> Recorder {
        Recorder { epoch, thread, spans: Vec::with_capacity(capacity) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: SpanId, op: u32, detached: bool) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            detached,
            thread: self.thread,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span whose children the caller records before `close`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        self.push(name, parent, op, false)
    }

    /// Open a detached child (probe) that has probes of its own.
    pub fn open_probe(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        self.push(name, parent, op, true)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as an attached child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.push(name, parent, op, false);
        let out = f();
        self.close(id);
        out
    }

    /// Time `f` as a detached child (probe) of `parent`.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.push(name, parent, op, true);
        let out = f();
        self.close(id);
        out
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Σ children durations per span, indexed like `spans`.
    fn children_ms(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                sums[s.parent as usize] += s.ms();
            }
        }
        sums
    }

    /// Self time (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let children = self.children_ms();
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Share of the time in spans called `name` that their children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let children = self.children_ms();
        let (mut total, mut covered) = (0.0, 0.0);
        for (s, c) in self.spans.iter().zip(&children).filter(|(s, _)| s.name == name) {
            total += s.ms();
            covered += c;
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Write the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"detached\":{}}}}}{sep}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
                s.detached,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree with known times: root 100 ms with an attached
    /// 30 ms child (itself holding a 10 ms child) and a detached 50 ms
    /// probe recorded after the root closed.
    fn tree() -> Recorder {
        let mut r = Recorder::new(Instant::now(), 0, 8);
        let ms = |n: u64| n * 1_000_000;
        let mut add = |name, start, end, parent, detached| {
            r.spans.push(Span {
                name,
                start_ns: ms(start),
                end_ns: ms(end),
                parent,
                op: 0,
                detached,
                thread: 0,
            });
            (r.spans.len() - 1) as SpanId
        };
        let root = add("root", 0, 100, ROOT, false);
        let a = add("a", 10, 40, root, false);
        add("a.inner", 15, 25, a, false);
        add("probe", 100, 150, root, true);
        r
    }

    #[test]
    fn self_time_subtracts_attached_and_detached_children() {
        let r = tree();
        assert_eq!(r.self_ms("root"), vec![20.0]);
        assert_eq!(r.self_ms("a"), vec![20.0]);
        assert_eq!(r.self_ms("a.inner"), vec![10.0]);
        assert_eq!(r.self_ms("probe"), vec![50.0]);
        assert!((r.coverage("root") - 0.8).abs() < 1e-12);
        assert!((r.coverage("a") - 1.0 / 3.0).abs() < 1e-12);
        // Self times of the whole tree sum to the root.
        let total: f64 = ["root", "a", "a.inner", "probe"].iter().flat_map(|n| r.self_ms(n)).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = tree();
        a.absorb(tree());
        assert_eq!(a.spans().len(), 8);
        assert_eq!(a.self_ms("root"), vec![20.0, 20.0]);
        assert_eq!(a.spans()[7].parent, 4);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let s = crate::meters::Scratch::new("spans-test");
        let path = s.path().join("trace.json");
        tree().write_chrome_trace(&path).unwrap();
        let doc = monster_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].pointer("/args/detached").unwrap().as_bool(), Some(true));
    }
}
