//! ARCo-style accounting: what the collector pulls each interval.
//!
//! §III-B2: the Metrics Collector reads computing-resource metrics and
//! application details through UGE's Accounting and Reporting Console.
//! §IV-A measures that payload at about 19 KB per node and 23 KB per job,
//! totalling ≈298 KB/s for 467 nodes and ~400 jobs on a 60 s interval
//! (Table IV). The documents here reproduce those shapes — sizes emerge
//! from the real field inventory (Table II) plus the node/job detail a
//! real ARCo dump carries.
//!
//! Each document has **one field inventory** ([`node_fields`],
//! [`job_fields`]) walked into one of two [`Sink`]s: a [`Value`] builder
//! (what [`node_document`] / [`job_document`] return) or a byte counter
//! that adds up the XML wire encoding's length and allocates nothing. The
//! per-interval [`accounting_pull`] keeps what the collector uses — the
//! typed records — and takes each document's size from the counter,
//! memoized on the ARCo side ([`PullMemo`], owned by the [`Qmaster`]).

use crate::host::{LoadReport, SLOTS_PER_NODE};
use crate::job::{Job, JobId, JobShape, JobState};
use crate::qmaster::Qmaster;
use monster_json::{Object, Value};
use monster_util::{EpochSecs, NodeId};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// The tag (and, to a [`Sink`], the key) of every array member.
const ELEMENT: &str = "element";

/// Where a document's members go, in inventory order.
trait Sink {
    /// A string member from format arguments.
    fn text(&mut self, key: &str, v: fmt::Arguments<'_>);
    fn int(&mut self, key: &str, v: i64);
    fn float(&mut self, key: &str, v: f64);
    fn boolean(&mut self, key: &str, v: bool);
    fn null(&mut self, key: &str);
    /// A nested object whose members `fill` writes.
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self));
    /// A nested array; `fill` writes its members under the key [`ELEMENT`].
    fn array(&mut self, key: &str, fill: impl FnOnce(&mut Self));

    /// A string member that needs no formatting.
    fn str(&mut self, key: &str, v: &str) {
        self.text(key, format_args!("{v}"));
    }
    fn opt_int(&mut self, key: &str, v: Option<i64>) {
        match v {
            Some(v) => self.int(key, v),
            None => self.null(key),
        }
    }
}

/// `sink.text(key, format_args!(..))`, the way `format!` reads.
macro_rules! text {
    ($sink:expr, $key:expr, $($fmt:tt)+) => {
        $sink.text($key, format_args!($($fmt)+))
    };
}

/// Builds the [`Value`] tree; the field is the container being filled.
struct ValueSink(Value);

impl ValueSink {
    fn put(&mut self, key: &str, v: Value) {
        match &mut self.0 {
            Value::Object(o) => o.insert(key, v),
            Value::Array(a) => a.push(v),
            _ => unreachable!("a sink fills an object or an array"),
        }
    }

    fn nest(&mut self, key: &str, empty: Value, fill: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.0, empty);
        fill(self);
        let inner = std::mem::replace(&mut self.0, outer);
        self.put(key, inner);
    }
}

impl Sink for ValueSink {
    fn text(&mut self, key: &str, v: fmt::Arguments<'_>) {
        self.put(key, Value::Str(fmt::format(v)));
    }
    fn int(&mut self, key: &str, v: i64) {
        self.put(key, Value::Int(v));
    }
    fn float(&mut self, key: &str, v: f64) {
        self.put(key, Value::Float(v));
    }
    fn boolean(&mut self, key: &str, v: bool) {
        self.put(key, Value::Bool(v));
    }
    fn null(&mut self, key: &str) {
        self.put(key, Value::Null);
    }
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.nest(key, Value::Object(Object::new()), fill);
    }
    fn array(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.nest(key, Value::Array(Vec::new()), fill);
    }
}

/// Adds up what [`to_xml`] would write — `<key>body</key>` per member,
/// scalars as the JSON serializer prints them — without writing it.
struct XmlBytes(usize);

impl fmt::Write for XmlBytes {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl XmlBytes {
    /// The open and close tags of `key` (sanitizing a tag keeps its
    /// length), then whatever `body` adds.
    fn element(&mut self, key: &str, body: impl FnOnce(&mut Self) -> fmt::Result) {
        self.0 += 2 * key.len() + "<></>".len();
        body(self).expect("counting bytes cannot fail");
    }
}

impl Sink for XmlBytes {
    fn text(&mut self, key: &str, v: fmt::Arguments<'_>) {
        self.element(key, |n| n.write_fmt(v));
    }
    fn int(&mut self, key: &str, v: i64) {
        self.element(key, |n| write!(n, "{v}"));
    }
    fn float(&mut self, key: &str, v: f64) {
        self.element(key, |n| monster_json::write_f64(n, v));
    }
    fn boolean(&mut self, key: &str, v: bool) {
        self.element(key, |n| write!(n, "{v}"));
    }
    fn null(&mut self, key: &str) {
        self.element(key, |n| n.write_str("null"));
    }
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.element(key, |n| {
            fill(n);
            Ok(())
        });
    }
    fn array(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.object(key, fill);
    }
}

/// The per-node accounting document (Table II's node-level metrics plus
/// the descriptive payload ARCo attaches).
pub fn node_document(report: &LoadReport) -> Value {
    let mut sink = ValueSink(Value::Object(Object::new()));
    node_fields(&mut sink, report);
    sink.0
}

/// Bytes of `to_xml("host", &node_document(report))`.
pub fn node_wire_bytes(report: &LoadReport) -> usize {
    let mut bytes = XmlBytes(0);
    bytes.object("host", |n| node_fields(n, report));
    bytes.0
}

fn node_fields<S: Sink>(s: &mut S, report: &LoadReport) {
    let cpu = report.cpu_usage;
    text!(s, "hostname", "{}", report.node.label_display());
    text!(s, "address", "{}", report.node);
    s.float("cpu_usage", cpu);
    s.float("mem_total_gib", report.mem_total_gib);
    s.float("mem_used_gib", report.mem_used_gib);
    s.float("mem_free_gib", report.mem_free_gib());
    s.float("swap_total_gib", report.swap_total_gib);
    s.float("swap_used_gib", report.swap_used_gib);
    s.float("swap_free_gib", report.swap_free_gib());
    s.array("job_list", |s| {
        for id in &report.job_list {
            text!(s, ELEMENT, "{id}");
        }
    });
    // The descriptive payload a real qhost/ARCo host record carries:
    // full host complexes, three queue instances each dumping its
    // complex values, topology, and per-core load entries. This
    // verbosity is what makes the paper's per-node accounting payload
    // ≈19 KB.
    s.str("arch", "lx-amd64");
    s.int("num_proc", 36);
    s.str("topology", "SCCCCCCCCCCCCCCCCCCSCCCCCCCCCCCCCCCCCC");
    s.str("topology_inuse", "SCCCCCCCCCCCCCCCCCCSCCCCCCCCCCCCCCCCCC");
    s.object("host_values", |s| host_complexes(s, report));
    s.array("queue_instances", |s| {
        for qname in ["omni.q", "general.q", "xlquanah.q"] {
            s.object(ELEMENT, |s| queue_instance(s, qname, report));
        }
    });
    s.array("load_values", |s| {
        for core in 0..36i64 {
            s.object(ELEMENT, |s| {
                s.int("core", core);
                s.float("load_avg", cpu * (1.0 + (core % 5) as f64 * 0.002));
                s.float("load_short", cpu * (1.0 + (core % 7) as f64 * 0.003));
                s.float("load_medium", cpu);
            });
        }
    });
}

/// The host-level complex values a `qhost -F` dump reports.
fn host_complexes<S: Sink>(s: &mut S, report: &LoadReport) {
    let cpu = report.cpu_usage;
    let mem_free = report.mem_free_gib();
    let swap_free = report.swap_free_gib();
    s.str("hl:arch", "lx-amd64");
    s.int("hl:num_proc", 36);
    s.int("hl:m_socket", 2);
    s.int("hl:m_core", 36);
    s.int("hl:m_thread", 36);
    s.float("hl:load_avg", cpu * 36.0);
    s.float("hl:load_short", cpu * 36.0);
    s.float("hl:load_medium", cpu * 36.0);
    s.float("hl:load_long", cpu * 36.0);
    s.float("hl:np_load_avg", cpu);
    s.float("hl:np_load_short", cpu);
    s.float("hl:np_load_medium", cpu);
    s.float("hl:np_load_long", cpu);
    text!(s, "hl:mem_total", "{:.3}G", report.mem_total_gib);
    text!(s, "hl:mem_used", "{:.3}G", report.mem_used_gib);
    text!(s, "hl:mem_free", "{mem_free:.3}G");
    text!(s, "hl:swap_total", "{:.3}G", report.swap_total_gib);
    text!(s, "hl:swap_used", "{:.3}G", report.swap_used_gib);
    text!(s, "hl:swap_free", "{swap_free:.3}G");
    text!(s, "hl:virtual_total", "{:.3}G", report.mem_total_gib + report.swap_total_gib);
    text!(s, "hl:virtual_used", "{:.3}G", report.mem_used_gib + report.swap_used_gib);
    text!(s, "hl:virtual_free", "{:.3}G", mem_free + swap_free);
    s.float("hl:cpu", cpu * 100.0);
    s.str("hl:m_cache_l1", "32.000K");
    s.str("hl:m_cache_l2", "256.000K");
    s.str("hl:m_cache_l3", "45.000M");
    text!(s, "hl:m_mem_total", "{:.3}G", report.mem_total_gib);
    text!(s, "hl:m_mem_used", "{:.3}G", report.mem_used_gib);
    text!(s, "hl:m_mem_free", "{mem_free:.3}G");
    s.boolean("hl:display_win_gui", false);
}

/// One queue instance's `qstat -F` style dump.
fn queue_instance<S: Sink>(s: &mut S, qname: &str, report: &LoadReport) {
    let cpu = report.cpu_usage;
    s.str("qname", qname);
    text!(s, "hostname", "{}", report.node.label_display());
    s.str("qtype", "BP");
    s.int("slots_total", 36);
    s.int("slots_used", (cpu * 36.0).round() as i64);
    s.int("slots_resv", 0);
    s.str("state", if cpu >= 1.0 { "full" } else { "" });
    s.int("seq_no", 0);
    s.boolean("rerun", false);
    s.str("tmpdir", "/tmp");
    s.str("shell", "/bin/bash");
    s.str("prolog", "NONE");
    s.str("epilog", "NONE");
    s.str("shell_start_mode", "unix_behavior");
    s.str("starter_method", "NONE");
    s.str("suspend_method", "NONE");
    s.str("resume_method", "NONE");
    s.str("terminate_method", "NONE");
    s.str("notify", "00:00:60");
    s.str("processors", "UNDEFINED");
    s.str("qf:qname", qname);
    text!(s, "qf:hostname", "{}", report.node.label_display());
    s.str("qf:min_cpu_interval", "00:05:00");
    s.str("qf:pe_list", "make mpi sm");
    s.str("qf:ckpt_list", "NONE");
    s.str("qf:calendar", "NONE");
    s.str("qf:priority", "0");
    s.str("qf:s_rt", "INFINITY");
    s.str("qf:h_rt", "48:00:00");
    s.str("qf:s_cpu", "INFINITY");
    s.str("qf:h_cpu", "INFINITY");
    s.str("qf:s_fsize", "INFINITY");
    s.str("qf:h_fsize", "INFINITY");
    s.str("qf:s_data", "INFINITY");
    s.str("qf:h_data", "INFINITY");
    s.str("qf:s_stack", "INFINITY");
    s.str("qf:h_stack", "INFINITY");
    s.str("qf:s_core", "INFINITY");
    s.str("qf:h_core", "INFINITY");
    s.str("qf:s_rss", "INFINITY");
    s.str("qf:h_rss", "INFINITY");
    s.str("qf:s_vmem", "INFINITY");
    s.str("qf:h_vmem", "5.3G");
    s.int("qc:slots", (36.0 - cpu * 36.0).round() as i64);
    text!(s, "qc:mem_free", "{:.3}G", report.mem_free_gib());
    text!(s, "qc:swap_free", "{:.3}G", report.swap_free_gib());
}

/// The per-job accounting document (Table II's job-level metrics).
pub fn job_document(job: &Job, slots_per_node: u32) -> Value {
    let mut sink = ValueSink(Value::Object(Object::new()));
    job_fields(&mut sink, job, slots_per_node);
    sink.0
}

/// Bytes of `to_xml("job_info", &job_document(job, slots_per_node))`.
pub fn job_wire_bytes(job: &Job, slots_per_node: u32) -> usize {
    let mut bytes = XmlBytes(0);
    bytes.object("job_info", |n| job_fields(n, job, slots_per_node));
    bytes.0
}

fn job_fields<S: Sink>(s: &mut S, job: &Job, slots_per_node: u32) {
    let (state, start, end) = match &job.state {
        JobState::Pending => ("pending", None, None),
        JobState::Running { start, .. } => ("running", Some(*start), None),
        JobState::Done { start, end, .. } => ("done", Some(*start), Some(*end)),
        JobState::Failed { start, end, .. } => ("failed", Some(*start), Some(*end)),
    };
    let user = job.spec.user.as_str();
    let name = job.spec.name.as_str();
    let mem = job.spec.mem_per_slot_gib;
    let slots = job.total_slots(slots_per_node) as i64;
    // CPU seconds accrue while running (compute-bound approximation).
    let cpu_secs = match (start, end) {
        (Some(s), Some(e)) => (e - s) * slots,
        _ => 0,
    };
    text!(s, "job_number", "{}", job.id);
    s.str("owner", user);
    s.str("job_name", name);
    s.str("state", state);
    s.int("submission_time", job.submit_time.as_secs());
    s.opt_int("start_time", start.map(|t| t.as_secs()));
    s.opt_int("end_time", end.map(|t| t.as_secs()));
    s.int("slots", slots);
    match job.spec.shape {
        JobShape::Parallel { .. } => s.str("granted_pe", "mpi"),
        _ => s.null("granted_pe"),
    }
    s.array("hosts", |s| {
        for h in job.hosts() {
            text!(s, ELEMENT, "{}", h.label_display());
        }
    });
    s.int("cpu", cpu_secs);
    s.float("mem_per_slot_gib", mem);
    s.int("priority", job.spec.priority as i64);
    // ARCo's usage blob: rusage fields a real record carries.
    s.opt_int("ru_wallclock", end.zip(start).map(|(e, s)| e - s));
    s.float("ru_utime", cpu_secs as f64 * 0.97);
    s.float("ru_stime", cpu_secs as f64 * 0.03);
    s.int("ru_maxrss", (mem * 1024.0 * 1024.0) as i64);
    s.int("ru_ixrss", 0);
    s.int("ru_ismrss", 0);
    s.int("ru_idrss", 0);
    s.int("ru_isrss", 0);
    s.int("ru_minflt", cpu_secs * 251);
    s.int("ru_majflt", cpu_secs / 17);
    s.int("ru_nswap", 0);
    s.int("ru_inblock", cpu_secs * 31);
    s.int("ru_oublock", cpu_secs * 13);
    s.int("ru_msgsnd", 0);
    s.int("ru_msgrcv", 0);
    s.int("ru_nsignals", 0);
    s.int("ru_nvcsw", cpu_secs * 97);
    s.int("ru_nivcsw", cpu_secs * 11);
    s.float("maxvmem_gib", mem * slots as f64);
    s.float("io", cpu_secs as f64 * 0.0021);
    s.float("iow", cpu_secs as f64 * 0.0003);
    s.str("category", "-u all.q -l h_vmem=5.3G -pe mpi");
    s.str("account", "sge");
    s.str("department", "defaultdepartment");
    s.str("project", "NONE");
    s.str("granted_req", "h_vmem=5.3G");
    text!(s, "sge_o_home", "/home/{user}");
    s.str("sge_o_path", "/opt/sge/bin/lx-amd64:/usr/local/bin:/usr/bin:/bin:/usr/local/sbin:/usr/sbin:/opt/ohpc/pub/mpi/openmpi3-gnu8/bin:/opt/ohpc/pub/compiler/gcc/8.3.0/bin");
    s.str("sge_o_shell", "/bin/bash");
    text!(s, "sge_o_workdir", "/home/{user}/runs/{name}");
    s.str("sge_o_host", "quanah");
    text!(s, "mail_list", "{user}@quanah.hpcc.ttu.edu");
    text!(s, "submit_cmd", "qsub -q omni.q -pe mpi {slots} -l h_vmem=5.3G {name}");
    s.str("context", "NONE");
    // qstat -j verbosity: the job's submission environment and the
    // per-queue-instance scheduling diagnostics — on a production
    // cluster these sections dominate the record and push the per-job
    // payload into the tens of kilobytes the paper measures.
    s.object("env", |s| job_environment(s, job));
    s.array("scheduling_info", |s| scheduling_info(s, job));
    s.array("per_host_usage", |s| {
        for h in job.hosts() {
            s.object(ELEMENT, |s| {
                text!(s, "host", "{}", h.label_display());
                s.float("cpu", cpu_secs as f64 / job.hosts().len().max(1) as f64);
                s.float("mem", mem);
                s.float("io", 0.002);
                text!(s, "vmem", "{mem:.3}G");
                text!(s, "maxvmem", "{:.3}G", mem * 1.08);
            });
        }
    });
}

/// The submission environment `qstat -j` echoes back (representative UGE
/// module environment on an OpenHPC system).
fn job_environment<S: Sink>(s: &mut S, job: &Job) {
    let user = job.spec.user.as_str();
    let name = job.spec.name.as_str();
    let id = job.id;
    text!(s, "HOME", "/home/{user}");
    s.str("USER", user);
    s.str("LOGNAME", user);
    s.str("SHELL", "/bin/bash");
    s.str("TERM", "xterm-256color");
    s.str("LANG", "en_US.UTF-8");
    s.str("HOSTNAME", "login-20-25.localdomain");
    text!(s, "PWD", "/home/{user}/runs/{name}");
    s.str("PATH", "/opt/sge/bin/lx-amd64:/opt/ohpc/pub/mpi/openmpi3-gnu8/bin:/opt/ohpc/pub/compiler/gcc/8.3.0/bin:/opt/ohpc/pub/utils/prun/1.3:/opt/ohpc/pub/utils/autotools/bin:/opt/ohpc/pub/bin:/usr/local/bin:/usr/bin:/usr/local/sbin:/usr/sbin");
    s.str("LD_LIBRARY_PATH", "/opt/ohpc/pub/mpi/openmpi3-gnu8/lib:/opt/ohpc/pub/compiler/gcc/8.3.0/lib64:/opt/sge/lib/lx-amd64");
    s.str("MANPATH", "/opt/ohpc/pub/mpi/openmpi3-gnu8/share/man:/opt/ohpc/pub/compiler/gcc/8.3.0/share/man:/usr/local/share/man:/usr/share/man");
    s.str("MODULEPATH", "/opt/ohpc/pub/moduledeps/gnu8-openmpi3:/opt/ohpc/pub/moduledeps/gnu8:/opt/ohpc/pub/modulefiles");
    s.str("LOADEDMODULES", "autotools:prun/1.3:gnu8/8.3.0:openmpi3/3.1.4:ohpc");
    s.str("MPI_DIR", "/opt/ohpc/pub/mpi/openmpi3-gnu8");
    s.str("OMP_NUM_THREADS", "1");
    s.str("SGE_ROOT", "/opt/sge");
    s.str("SGE_CELL", "default");
    s.str("SGE_CLUSTER_NAME", "quanah");
    s.str("SGE_ARCH", "lx-amd64");
    s.str("SGE_EXECD_PORT", "6445");
    s.str("SGE_QMASTER_PORT", "6444");
    text!(s, "SGE_O_WORKDIR", "/home/{user}/runs/{name}");
    text!(s, "SGE_STDOUT_PATH", "/home/{user}/runs/{name}/{name}.o{id}");
    text!(s, "SGE_STDERR_PATH", "/home/{user}/runs/{name}/{name}.e{id}");
    match job.spec.shape {
        JobShape::ArrayTask { index, .. } => s.int("SGE_TASK_ID", index as i64),
        _ => s.str("SGE_TASK_ID", "undefined"),
    }
    s.int("NSLOTS", job.total_slots(SLOTS_PER_NODE) as i64);
    s.int("NQUEUES", 1);
    s.int("NHOSTS", job.hosts().len() as i64);
    text!(s, "PE_HOSTFILE", "/opt/sge/default/spool/execd/active_jobs/{id}.1/pe_hostfile");
    text!(s, "TMPDIR", "/tmp/{id}.1.omni.q");
    text!(s, "JOB_ID", "{id}");
    s.str("JOB_NAME", name);
    text!(s, "JOB_SCRIPT", "/opt/sge/default/spool/execd/job_scripts/{id}");
    s.str("QUEUE", "omni.q");
    s.str("REQUEST", name);
    s.str("RESTARTED", "0");
    s.str("ENVIRONMENT", "BATCH");
    s.str("ARC", "lx-amd64");
    s.null("DISPLAY");
    text!(s, "XDG_RUNTIME_DIR", "/run/user/{}", 20000 + (id.as_u64() % 1000));
    s.int("XDG_SESSION_ID", (id.as_u64() % 10_000) as i64);
}

/// The per-queue-instance scheduling diagnostics `qstat -j` appends — one
/// line per representative queue instance explaining why the job did (or
/// did not) land there. On the 467-node production cluster this section
/// alone runs to many kilobytes.
fn scheduling_info<S: Sink>(s: &mut S, job: &Job) {
    let slots = job.spec.shape.slots_per_host(SLOTS_PER_NODE);
    for i in 0..80 {
        let chassis = i / 4 + 1;
        let slot = i % 4 + 1;
        text!(
            s,
            ELEMENT,
            "queue instance \"omni.q@compute-{chassis}-{slot}.localdomain\" dropped because it is temporarily not available (load threshold np_load_avg=1.75 / job {} requests {slots} slots)",
            job.id,
        );
    }
}

/// Serialize a document the way the production collector received it —
/// UGE's qstat/qhost XML dialect, which is several times more verbose than
/// JSON. Table IV's payload sizes are measured on this encoding.
// kept: the XML oracle that `node_wire_bytes` and `job_wire_bytes` are checked against
pub fn to_xml(tag: &str, v: &Value) -> String {
    let mut out = String::new();
    write_xml(&mut out, tag, v);
    out
}

fn write_xml(out: &mut String, tag: &str, v: &Value) {
    out.push('<');
    out.push_str(tag);
    out.push('>');
    match v {
        Value::Object(o) => {
            for (k, val) in o.iter() {
                write_xml(out, &k.replace(':', "_"), val);
            }
        }
        Value::Array(items) => {
            for item in items {
                write_xml(out, ELEMENT, item);
            }
        }
        Value::Str(s) => out.push_str(s),
        other => out.push_str(&other.to_string_compact()),
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// How long a finished job stays in the accounting pull (one pull covers
/// running jobs plus jobs that finished within this window, matching what
/// a per-interval qstat/ARCo query returns). A collector polling more
/// slowly than this would miss finishes.
pub const RECENT_FINISH_WINDOW_SECS: i64 = 600;

/// What one accounting pull returns: the typed records the collector
/// builds its UGE / NodeJobs / JobsInfo points from.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountingSnapshot<'a> {
    /// The qmaster's time at the pull.
    pub timestamp: EpochSecs,
    /// Every host's load report, in node order.
    pub nodes: Vec<LoadReport>,
    /// Jobs running now or finished within
    /// [`RECENT_FINISH_WINDOW_SECS`], ascending id.
    pub jobs: Vec<&'a Job>,
}

impl<'a> AccountingSnapshot<'a> {
    fn take(qm: &'a Qmaster) -> Self {
        let now = qm.now();
        let jobs = qm
            .jobs()
            .filter(|j| match &j.state {
                JobState::Pending => false,
                JobState::Running { .. } => true,
                JobState::Done { end, .. } | JobState::Failed { end, .. } => {
                    now - *end <= RECENT_FINISH_WINDOW_SECS
                }
            })
            .collect();
        AccountingSnapshot { timestamp: now, nodes: qm.all_load_reports(), jobs }
    }
}

/// A record and the wire size of the document rendered from it.
struct Held<R> {
    record: R,
    bytes: usize,
    /// The pull that last asked for it.
    pull: u64,
}

/// ARCo's side of the pull: the wire size of every document the last pull
/// returned, each kept beside a copy of the record it was rendered from.
///
/// A size is reused only while the record — everything the document reads
/// — compares equal to that copy, so there is nothing to invalidate when
/// the scheduler changes a host or a job. Entries the latest pull did not
/// ask for are dropped, so the memo never holds more documents than one
/// pull returns.
#[derive(Default)]
pub(crate) struct PullMemo {
    hosts: HashMap<NodeId, Held<LoadReport>>,
    jobs: HashMap<JobId, Held<Job>>,
    stats: MemoStats,
}

/// What the accounting memo has done so far (see
/// [`Qmaster::accounting_memo_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Pulls served.
    pub pulls: u64,
    /// Documents whose size was computed (first sight, or record changed).
    pub docs_rendered: u64,
    /// Documents whose memoized size was still valid.
    pub docs_reused: u64,
    /// Documents the memo holds now.
    pub docs_held: usize,
}

impl PullMemo {
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats { docs_held: self.hosts.len() + self.jobs.len(), ..self.stats }
    }

    /// Node and job bytes of `snapshot` on the wire.
    fn wire_bytes(&mut self, snapshot: &AccountingSnapshot<'_>) -> (usize, usize) {
        self.stats.pulls += 1;
        let node_bytes = sized(
            &mut self.hosts,
            snapshot.nodes.iter().map(|r| (r.node, r)),
            &mut self.stats,
            node_wire_bytes,
        );
        let job_bytes =
            sized(&mut self.jobs, snapshot.jobs.iter().map(|&j| (j.id, j)), &mut self.stats, |j| {
                job_wire_bytes(j, SLOTS_PER_NODE)
            });
        (node_bytes, job_bytes)
    }
}

/// Total wire size of `pulled`, rendering only the records that differ
/// from their memoized copy; prunes `memo` to what was pulled.
fn sized<'r, K: Hash + Eq, R: PartialEq + Clone + 'r>(
    memo: &mut HashMap<K, Held<R>>,
    pulled: impl Iterator<Item = (K, &'r R)>,
    stats: &mut MemoStats,
    render: impl Fn(&R) -> usize,
) -> usize {
    let pull = stats.pulls;
    let mut count = 0;
    let mut total = 0;
    for (key, record) in pulled {
        count += 1;
        total += match memo.get_mut(&key) {
            Some(held) if held.record == *record => {
                stats.docs_reused += 1;
                held.pull = pull;
                held.bytes
            }
            _ => {
                stats.docs_rendered += 1;
                let bytes = render(record);
                memo.insert(key, Held { record: record.clone(), bytes, pull });
                bytes
            }
        };
    }
    if memo.len() > count {
        memo.retain(|_, e| e.pull == pull);
    }
    total
}

/// What `/metrics` says about the pull, so that a slow one is explainable
/// from there: resolved once, when the qmaster is built.
pub(crate) struct PullTelemetry {
    seconds: Arc<monster_obs::Histo>,
    bytes: Arc<monster_obs::Gauge>,
    docs_rendered: Arc<monster_obs::Counter>,
    docs_reused: Arc<monster_obs::Counter>,
}

impl PullTelemetry {
    pub(crate) fn new(obs: &monster_obs::Registry) -> PullTelemetry {
        PullTelemetry {
            seconds: obs.histo_help(
                "monster_collector_accounting_pull_seconds",
                "Wall time of one in-band accounting pull from the resource manager.",
            ),
            bytes: obs.gauge_help(
                "monster_collector_accounting_bytes",
                "XML wire size of the latest accounting pull.",
            ),
            docs_rendered: obs.counter_help(
                "monster_scheduler_accounting_docs_rendered_total",
                "Accounting documents whose wire size a pull computed (new or changed record).",
            ),
            docs_reused: obs.counter_help(
                "monster_scheduler_accounting_docs_reused_total",
                "Accounting documents whose memoized wire size a pull reused (record unchanged).",
            ),
        }
    }
}

/// The snapshot plus its node and job bytes, through the qmaster's memo.
fn pull(qm: &Qmaster) -> (AccountingSnapshot<'_>, usize, usize) {
    let started = Instant::now();
    let snapshot = AccountingSnapshot::take(qm);
    let mut memo = qm.accounting_memo();
    let before = memo.stats;
    let (node_bytes, job_bytes) = memo.wire_bytes(&snapshot);
    let telemetry = &qm.pull_telemetry;
    telemetry.docs_rendered.add(memo.stats.docs_rendered - before.docs_rendered);
    telemetry.docs_reused.add(memo.stats.docs_reused - before.docs_reused);
    telemetry.bytes.set((node_bytes + job_bytes) as i64);
    telemetry.seconds.observe(started.elapsed().as_secs_f64());
    (snapshot, node_bytes, job_bytes)
}

/// One full accounting pull: every node's load report plus every
/// active/recent job. Returns the records and their transmitted size in
/// bytes (measured on the XML wire encoding the production collector
/// parses).
pub fn accounting_pull(qm: &Qmaster) -> (AccountingSnapshot<'_>, usize) {
    let (snapshot, node_bytes, job_bytes) = pull(qm);
    (snapshot, node_bytes + job_bytes)
}

/// Table IV's bandwidth arithmetic for one pull.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Total monitoring bandwidth, KB/s.
    pub total_kb_per_sec: f64,
    /// Per-node share, KB/s.
    pub per_node_kb_per_sec: f64,
    /// Per-job share, KB/s.
    pub per_job_kb_per_sec: f64,
    /// Nodes counted.
    pub nodes: usize,
    /// Jobs counted.
    pub jobs: usize,
}

/// Compute Table IV from one accounting pull over `interval_secs`. Sizes
/// are measured on the XML wire encoding.
pub fn bandwidth_report(qm: &Qmaster, interval_secs: f64) -> BandwidthReport {
    let (snapshot, node_bytes, job_bytes) = pull(qm);
    let (nodes, jobs) = (snapshot.nodes.len(), snapshot.jobs.len());
    let kb_per_sec =
        |bytes: usize, over: usize| bytes as f64 / 1024.0 / over as f64 / interval_secs;
    BandwidthReport {
        total_kb_per_sec: (node_bytes + job_bytes) as f64 / 1024.0 / interval_secs,
        per_node_kb_per_sec: kb_per_sec(node_bytes, nodes.max(1)),
        per_job_kb_per_sec: kb_per_sec(job_bytes, jobs.max(1)),
        nodes,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobShape, JobSpec};
    use crate::qmaster::QmasterConfig;
    use monster_util::UserName;

    fn qm_with_jobs(nodes: usize, jobs: usize) -> Qmaster {
        let cfg = QmasterConfig { nodes, ..QmasterConfig::default() };
        let t0 = cfg.start_time;
        let mut qm = Qmaster::new(cfg);
        for i in 0..jobs {
            qm.submit_at(
                t0 + 1 + i as i64,
                JobSpec {
                    user: UserName::new(format!("user{}", i % 7)),
                    name: format!("job{i}.sh"),
                    shape: JobShape::Serial { slots: 4 },
                    runtime_secs: 100_000,
                    priority: 0,
                    mem_per_slot_gib: 2.0,
                },
            );
        }
        qm.run_until(t0 + 600);
        qm
    }

    #[test]
    fn node_document_size_matches_paper_scale() {
        // ≈19 KB per node (§IV-A). Ours must land in the right decade —
        // the exact paper number depends on ARCo verbosity; we assert the
        // order of magnitude and record the measured value in
        // EXPERIMENTS.md.
        let qm = qm_with_jobs(4, 8);
        let r = qm.load_report(qm.node_ids()[0]).unwrap();
        let size = node_document(&r).to_string_compact().len();
        assert!((400..40_000).contains(&size), "node doc {size} bytes");
    }

    #[test]
    fn job_document_fields_cover_table2() {
        let qm = qm_with_jobs(2, 3);
        let job = qm.running_jobs()[0];
        let doc = job_document(job, 36);
        for key in [
            "job_number",
            "owner",
            "job_name",
            "slots",
            "submission_time",
            "start_time",
            "hosts",
            "cpu",
            "state",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("state").unwrap().as_str(), Some("running"));
        assert!(doc.get("end_time").unwrap().is_null());
    }

    #[test]
    fn finished_job_document_has_times_and_cpu() {
        let cfg = QmasterConfig { nodes: 1, ..QmasterConfig::default() };
        let t0 = cfg.start_time;
        let mut qm = Qmaster::new(cfg);
        qm.submit_at(
            t0 + 1,
            JobSpec {
                user: UserName::new("alice"),
                name: "quick.sh".into(),
                shape: JobShape::Serial { slots: 2 },
                runtime_secs: 300,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
        qm.run_until(t0 + 1000);
        let job = qm.finished_jobs()[0];
        let doc = job_document(job, 36);
        assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(doc.get("cpu").unwrap().as_i64(), Some(600)); // 300 s x 2 slots
        assert_eq!(doc.get("ru_wallclock").unwrap().as_i64(), Some(300));
    }

    #[test]
    fn accounting_pull_aggregates_everything() {
        let qm = qm_with_jobs(6, 10);
        let (snapshot, size) = accounting_pull(&qm);
        assert_eq!(snapshot.timestamp, qm.now());
        assert_eq!(snapshot.nodes.len(), 6);
        assert_eq!(snapshot.jobs.len(), 10);
        assert!(size > 1000);
    }

    #[test]
    fn bandwidth_report_shape() {
        let qm = qm_with_jobs(8, 12);
        let bw = bandwidth_report(&qm, 60.0);
        assert_eq!(bw.nodes, 8);
        assert_eq!(bw.jobs, 12);
        assert!(bw.total_kb_per_sec > 0.0);
        // total ≈ nodes*per_node + jobs*per_job
        let reconstructed = bw.per_node_kb_per_sec * 8.0 + bw.per_job_kb_per_sec * 12.0;
        assert!((reconstructed - bw.total_kb_per_sec).abs() / bw.total_kb_per_sec < 0.01);
    }
}
