//! Storage schemas: the original layout and the §IV-B2 redesign.
//!
//! Schema choice is the paper's single biggest storage/performance lever
//! (Fig. 13: the optimized schema holds the same information in 28 % of
//! the volume; Fig. 14: queries run 1.6–1.76× faster). Both generations
//! are implemented end-to-end so those comparisons measure real bytes and
//! real series cardinality.

use crate::preprocess::{health_code_if_abnormal, memory_usage_fraction};
use monster_redfish::sensors::{CPU_TEMP_LABELS, FAN_LABELS, VOLTAGE_LABELS};
use monster_redfish::{HealthState, NodeReading};
use monster_scheduler::host::{LoadReport, SLOTS_PER_NODE};
use monster_scheduler::{Job, JobState};
use monster_tsdb::{DataPoint, FieldValue};
use monster_util::{EpochSecs, NodeId};
use std::fmt::{self, Write as _};

/// Which schema generation to build points for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaVersion {
    /// The original deployment: version-1 per-metric measurements with
    /// threshold metadata and string timestamps/health, coexisting with
    /// the version-2 unified measurement and per-job dedicated
    /// measurements. High cardinality, high volume.
    Previous,
    /// The redesign: consolidated measurements, binary health codes kept
    /// only when abnormal, integer epoch times.
    Optimized,
}

/// What a slot's `String` can be overwritten with: a `&str` is copied,
/// `format_args!` renders straight into it.
trait Text {
    fn append_to(self, s: &mut String);
}

impl Text for &str {
    fn append_to(self, s: &mut String) {
        s.push_str(self);
    }
}

impl Text for fmt::Arguments<'_> {
    fn append_to(self, s: &mut String) {
        s.write_fmt(self).expect("a String accepts every write");
    }
}

fn set(s: &mut String, text: impl Text) {
    s.clear();
    text.append_to(s);
}

/// Builds an interval's points *over* the points a buffer already holds:
/// slot `i`'s measurement, tag and field `String`s are cleared and
/// rewritten where they are, so a buffer that held last interval's points
/// — the same shapes, a minute older — takes this interval's without a
/// single allocation. Whatever the slots held (another measurement, more
/// or fewer tags, a `Str` where a `Float` goes) the result equals a build
/// into an empty `Vec`; a slot is pushed only once the buffer is used up,
/// and dropping the writer truncates the buffer to what was written.
pub struct PointWriter<'a> {
    schema: SchemaVersion,
    points: &'a mut Vec<DataPoint>,
    written: usize,
    /// Set while [`Self::bmc`] substitutes a last-known-good reading: its
    /// points close with a `Stale=true` tag.
    stale: bool,
}

impl Drop for PointWriter<'_> {
    fn drop(&mut self) {
        self.points.truncate(self.written);
    }
}

/// The point being written: tags and fields land in the slot's next
/// position, and the drop truncates both to what was written.
struct Slot<'a> {
    point: &'a mut DataPoint,
    tags: usize,
    fields: usize,
    stale: bool,
}

impl Slot<'_> {
    fn tag(&mut self, key: &str, value: impl Text) -> &mut Self {
        if self.tags == self.point.tags.len() {
            self.point.tags.push(Default::default());
        }
        let (k, v) = &mut self.point.tags[self.tags];
        set(k, key);
        set(v, value);
        self.tags += 1;
        self
    }

    /// The `NodeId` tag every node-scoped point opens with: the BMC's
    /// `10.101.c.s` address.
    fn node(&mut self, node: NodeId) -> &mut Self {
        self.tag("NodeId", node.addr().as_str())
    }

    fn next_field(&mut self, key: &str) -> &mut FieldValue {
        if self.fields == self.point.fields.len() {
            self.point.fields.push((String::new(), FieldValue::Bool(false)));
        }
        let (k, v) = &mut self.point.fields[self.fields];
        set(k, key);
        self.fields += 1;
        v
    }

    /// A number field (`f64` or `i64`).
    fn num(&mut self, key: &str, value: impl Into<FieldValue>) -> &mut Self {
        *self.next_field(key) = value.into();
        self
    }

    /// A string field, into the `String` the slot already holds if it does.
    fn str(&mut self, key: &str, value: impl Text) -> &mut Self {
        match self.next_field(key) {
            FieldValue::Str(s) => set(s, value),
            other => {
                let mut s = String::new();
                value.append_to(&mut s);
                *other = FieldValue::Str(s);
            }
        }
        self
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        if self.stale {
            self.tag("Stale", "true");
        }
        self.point.tags.truncate(self.tags);
        self.point.fields.truncate(self.fields);
    }
}

impl<'a> PointWriter<'a> {
    /// Start writing at `points[0]`.
    pub fn new(schema: SchemaVersion, points: &'a mut Vec<DataPoint>) -> Self {
        PointWriter { schema, points, written: 0, stale: false }
    }

    /// Points written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    fn point(&mut self, measurement: impl Text, time: EpochSecs) -> Slot<'_> {
        if self.written == self.points.len() {
            self.points.push(DataPoint::new("", time));
        }
        let point = &mut self.points[self.written];
        self.written += 1;
        set(&mut point.measurement, measurement);
        point.time = time;
        Slot { point, tags: 0, fields: 0, stale: self.stale }
    }

    /// The points of one node's BMC reading; `stale` marks a substituted
    /// last-known-good reading, and tags every point of it `Stale=true`.
    pub fn bmc(&mut self, node: NodeId, reading: &NodeReading, t: EpochSecs, stale: bool) {
        self.stale = stale;
        match reading {
            NodeReading::Thermal { cpu_temps, inlet, fans } => {
                self.thermal(node, cpu_temps, *inlet, fans, t)
            }
            NodeReading::Power { usage_watts, voltages } => {
                self.power(node, *usage_watts, voltages, t)
            }
            NodeReading::Manager { health } => {
                self.health(node, ["BMC", "BMCHealth", "bmc_health"], *health, t)
            }
            NodeReading::System { health } => {
                self.health(node, ["System", "SystemHealth", "system_health"], *health, t)
            }
        }
        self.stale = false;
    }

    /// An optimized-schema sensor point: one measurement a category, the
    /// sensor named by its `Label` tag.
    fn labeled(&mut self, measurement: &str, node: NodeId, label: impl Text, v: f64, t: EpochSecs) {
        self.point(measurement, t).node(node).tag("Label", label).num("Reading", v);
    }

    /// Version-1 point: its own measurement per metric, with threshold
    /// metadata fields and a redundant human-readable timestamp string. The
    /// `Sensor` tag separates same-timestamp instances (fan 1..4, CPU 1..2)
    /// within one measurement; the only one of its kind is sensor 0.
    fn v1(
        &mut self,
        (measurement, units): (&str, &str),
        node: NodeId,
        sensor: usize,
        value: f64,
        t: EpochSecs,
    ) {
        self.point(measurement, t)
            .node(node)
            .tag("Sensor", format_args!("{sensor}"))
            .num("Reading", value)
            .str("Units", units)
            .num("UpperThresholdCritical", value.abs() * 2.0 + 100.0)
            .num("UpperThresholdNonCritical", value.abs() * 1.5 + 50.0)
            .num("LowerThresholdCritical", -10.0)
            .str("CollectedAt", format_args!("{t}"));
    }

    /// Version-2 point: the unified measurement, `MetricName` as a tag.
    fn v2(&mut self, metric: impl Text, node: NodeId, value: f64, t: EpochSecs) {
        self.point("Metrics", t).node(node).tag("MetricName", metric).num("Value", value);
    }

    /// A thermal reading's points: CPU temperatures, inlet, fans.
    pub fn thermal(&mut self, node: NodeId, cpus: &[f64], inlet: f64, fans: &[f64], t: EpochSecs) {
        match self.schema {
            // Labels from the fleet's sensor tables; a reading with more
            // sensors than those prints the rest.
            SchemaVersion::Optimized => {
                for (label, temp) in CPU_TEMP_LABELS.iter().zip(cpus) {
                    self.labeled("Thermal", node, *label, *temp, t);
                }
                for (n, temp) in (1..).zip(cpus).skip(CPU_TEMP_LABELS.len()) {
                    self.labeled("Thermal", node, format_args!("CPU{n} Temp"), *temp, t);
                }
                self.labeled("Thermal", node, "Inlet Temp", inlet, t);
                for (label, rpm) in FAN_LABELS.iter().zip(fans) {
                    self.labeled("Thermal", node, *label, *rpm, t);
                }
                for (n, rpm) in (1..).zip(fans).skip(FAN_LABELS.len()) {
                    self.labeled("Thermal", node, format_args!("Fan {n}"), *rpm, t);
                }
            }
            // "Both versions of the schema coexist in the same database."
            SchemaVersion::Previous => {
                for (n, temp) in (1..).zip(cpus) {
                    self.v1(("CPUTemperature", "Celsius"), node, n, *temp, t);
                    self.v2(format_args!("cpu{n}_temp"), node, *temp, t);
                }
                self.v1(("InletTemperature", "Celsius"), node, 0, inlet, t);
                self.v2("inlet_temp", node, inlet, t);
                for (n, rpm) in (1..).zip(fans) {
                    self.v1(("FanSpeed", "RPM"), node, n, *rpm, t);
                    self.v2(format_args!("fan{n}_rpm"), node, *rpm, t);
                }
            }
        }
    }

    /// A power reading's points: node draw and rail voltages.
    pub fn power(&mut self, node: NodeId, watts: f64, voltages: &[f64], t: EpochSecs) {
        match self.schema {
            // The Fig. 4 sample point: Power measurement, Label tag so
            // "the power consumption of other components can also be
            // saved to the Power measurement".
            SchemaVersion::Optimized => {
                self.labeled("Power", node, "NodePower", watts, t);
                for (label, v) in VOLTAGE_LABELS.iter().zip(voltages) {
                    self.labeled("Power", node, *label, *v, t);
                }
                for (n, v) in (1..).zip(voltages).skip(VOLTAGE_LABELS.len()) {
                    self.labeled("Power", node, format_args!("Voltage {n}"), *v, t);
                }
            }
            SchemaVersion::Previous => {
                self.v1(("PowerUsage", "Watts"), node, 0, watts, t);
                self.v2("node_power", node, watts, t);
                for (n, v) in (1..).zip(voltages) {
                    self.v1(("Voltage", "Volts"), node, n, *v, t);
                    self.v2(format_args!("voltage_{n}"), node, *v, t);
                }
            }
        }
    }

    /// A health rollup's points, under its `Label`, v1 measurement and v2
    /// metric names.
    fn health(&mut self, node: NodeId, [label, v1, v2]: [&str; 3], h: HealthState, t: EpochSecs) {
        match self.schema {
            // Abnormal-only retention: "we keep only abnormal status ... as
            // the majority of systems is usually healthy."
            SchemaVersion::Optimized => {
                if let Some(code) = health_code_if_abnormal(h) {
                    self.point("Health", t).node(node).tag("Label", label).num("Code", code);
                }
            }
            // v1 stored every health sample, as a string.
            SchemaVersion::Previous => {
                self.point(v1, t)
                    .node(node)
                    .str("Health", h.as_str())
                    .str("CollectedAt", format_args!("{t}"));
                self.v2(v2, node, h.code() as f64, t);
            }
        }
    }

    /// The points of one node's resource-manager report.
    pub fn uge(&mut self, report: &LoadReport, t: EpochSecs) {
        let node = report.node;
        // The Fig. 5 stringified job list, `['1291784', '1318962']`: "data
        // types in InfluxDB do not include array".
        let jobs = fmt::from_fn(|f| {
            f.write_str("[")?;
            for (i, job) in report.job_list.iter().enumerate() {
                write!(f, "{}'{job}'", if i > 0 { ", " } else { "" })?;
            }
            f.write_str("]")
        });
        match self.schema {
            SchemaVersion::Optimized => {
                self.point("UGE", t)
                    .node(node)
                    .num("CPUUsage", report.cpu_usage)
                    .num("MemUsed", report.mem_used_gib)
                    .num("MemTotal", report.mem_total_gib)
                    .num(
                        "MemUsage",
                        memory_usage_fraction(report.mem_used_gib, report.mem_total_gib),
                    )
                    .num("UsedSwap", report.swap_used_gib)
                    .num("FreeSwap", report.swap_free_gib());
                self.point("NodeJobs", t).node(node).str("JobList", format_args!("{jobs}"));
            }
            SchemaVersion::Previous => {
                self.v1(("CPUUsage", "Fraction"), node, 0, report.cpu_usage, t);
                self.v1(("MemoryUsed", "GiB"), node, 0, report.mem_used_gib, t);
                self.v1(("MemoryTotal", "GiB"), node, 0, report.mem_total_gib, t);
                self.v1(("SwapUsed", "GiB"), node, 0, report.swap_used_gib, t);
                self.v1(("SwapFree", "GiB"), node, 0, report.swap_free_gib(), t);
                self.v2("cpu_usage", node, report.cpu_usage, t);
                self.v2("mem_used", node, report.mem_used_gib, t);
                self.point("NodeJobList", t)
                    .node(node)
                    .str("JobList", format_args!("{jobs}"))
                    .str("CollectedAt", format_args!("{t}"));
            }
        }
    }

    /// The point describing one job.
    pub fn job(&mut self, job: &Job, t: EpochSecs) {
        let (state_code, start, end) = match &job.state {
            JobState::Pending => (0i64, None, None),
            JobState::Running { start, .. } => (1, Some(*start), None),
            JobState::Done { start, end, .. } => (2, Some(*start), Some(*end)),
            JobState::Failed { start, end, .. } => (3, Some(*start), Some(*end)),
        };
        let slots = job.total_slots(SLOTS_PER_NODE) as i64;
        let nodes = job.hosts().len() as i64;
        let user = job.spec.user.as_str();
        match self.schema {
            SchemaVersion::Optimized => {
                let mut p = self.point("JobsInfo", t);
                p.tag("JobId", format_args!("{}", job.id))
                    .str("User", user)
                    .num("SubmitTime", job.submit_time.as_secs())
                    .num("State", state_code)
                    .num("TotalCores", slots)
                    .num("TotalNodes", nodes);
                if let Some(s) = start {
                    p.num("StartTime", s.as_secs());
                }
                if let Some(e) = end {
                    p.num("FinishTime", e.as_secs());
                }
            }
            SchemaVersion::Previous => {
                // "each job information is stored into a dedicated
                // measurement" — the v2 cardinality accident: measurement
                // name carries the job id.
                let mut p = self.point(format_args!("Job_{}", job.id), t);
                p.tag("Owner", user)
                    .str("User", user)
                    .str("SubmitTime", format_args!("{}", job.submit_time))
                    .str("State", format_args!("{state_code}"))
                    .num("TotalCores", slots)
                    .num("TotalNodes", nodes)
                    .str("JobName", job.spec.name.as_str());
                if let Some(s) = start {
                    p.str("StartTime", format_args!("{s}"));
                }
                if let Some(e) = end {
                    p.str("FinishTime", format_args!("{e}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_scheduler::{JobShape, JobSpec};
    use monster_util::{JobId, UserName};

    fn t() -> EpochSecs {
        EpochSecs::new(1_583_792_296)
    }

    fn node() -> NodeId {
        NodeId::new(1, 1)
    }

    fn build(schema: SchemaVersion, write: impl FnOnce(&mut PointWriter<'_>)) -> Vec<DataPoint> {
        let mut points = Vec::new();
        write(&mut PointWriter::new(schema, &mut points));
        points
    }

    fn bmc(schema: SchemaVersion, reading: &NodeReading) -> Vec<DataPoint> {
        build(schema, |w| w.bmc(node(), reading, t(), false))
    }

    fn thermal() -> NodeReading {
        NodeReading::Thermal {
            cpu_temps: vec![54.0, 56.5],
            inlet: 21.0,
            fans: vec![4400.0, 4410.0, 4390.0, 4420.0],
        }
    }

    #[test]
    fn optimized_power_point_matches_fig4() {
        let r = NodeReading::Power { usage_watts: 273.8, voltages: vec![12.0, 5.0, 3.3] };
        let pts = bmc(SchemaVersion::Optimized, &r);
        let p = &pts[0];
        assert_eq!(p.measurement, "Power");
        assert_eq!(p.get_tag("NodeId"), Some("10.101.1.1"));
        assert_eq!(p.get_tag("Label"), Some("NodePower"));
        assert_eq!(p.get_field("Reading").unwrap().as_f64(), Some(273.8));
        assert_eq!(p.time, t());
        assert_eq!(pts.len(), 4); // power + 3 voltages
    }

    #[test]
    fn optimized_health_stores_only_abnormal() {
        let ok = NodeReading::Manager { health: HealthState::Ok };
        assert!(bmc(SchemaVersion::Optimized, &ok).is_empty());
        let warn = NodeReading::System { health: HealthState::Warning };
        let pts = bmc(SchemaVersion::Optimized, &warn);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].measurement, "Health");
        assert_eq!(pts[0].get_field("Code").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn previous_stores_all_health_as_strings() {
        let ok = NodeReading::Manager { health: HealthState::Ok };
        let pts = bmc(SchemaVersion::Previous, &ok);
        assert_eq!(pts.len(), 2); // v1 string point + v2 unified point
        assert_eq!(pts[0].get_field("Health").unwrap().as_str(), Some("OK"));
    }

    #[test]
    fn previous_schema_is_much_heavier() {
        let r = thermal();
        let old: usize = bmc(SchemaVersion::Previous, &r).iter().map(DataPoint::wire_size).sum();
        let new: usize = bmc(SchemaVersion::Optimized, &r).iter().map(DataPoint::wire_size).sum();
        // Raw wire volume should be several times larger (Fig. 13's ~3.6x
        // comes from this plus the health/job effects).
        assert!(old > new * 3, "old={old} new={new}");
    }

    #[test]
    fn previous_job_measurement_carries_job_id() {
        let job = Job {
            id: JobId(1_291_784),
            spec: JobSpec {
                user: UserName::new("jieyao"),
                name: "mpi.sh".into(),
                shape: JobShape::Parallel { nodes: 58 },
                runtime_secs: 3600,
                priority: 0,
                mem_per_slot_gib: 2.0,
            },
            submit_time: EpochSecs::new(1_583_790_000),
            state: JobState::Pending,
        };
        let pts = build(SchemaVersion::Previous, |w| w.job(&job, t()));
        assert_eq!(pts[0].measurement, "Job_1291784");
        // String timestamps in the old schema.
        assert!(pts[0].get_field("SubmitTime").unwrap().as_str().is_some());
        let pts = build(SchemaVersion::Optimized, |w| w.job(&job, t()));
        assert_eq!(pts[0].measurement, "JobsInfo");
        assert_eq!(pts[0].get_field("SubmitTime").unwrap().as_i64(), Some(1_583_790_000));
        assert_eq!(pts[0].get_field("TotalCores").unwrap().as_i64(), Some(2088));
    }

    #[test]
    fn uge_points_cover_table2() {
        let report = LoadReport {
            node: node(),
            cpu_usage: 0.5,
            mem_total_gib: 192.0,
            mem_used_gib: 96.0,
            swap_total_gib: 4.0,
            swap_used_gib: 1.0,
            job_list: vec![JobId(1_291_784), JobId(1_318_962)],
        };
        let pts = build(SchemaVersion::Optimized, |w| w.uge(&report, t()));
        assert_eq!(pts.len(), 2);
        let uge = &pts[0];
        assert_eq!(uge.get_field("CPUUsage").unwrap().as_f64(), Some(0.5));
        assert_eq!(uge.get_field("MemUsage").unwrap().as_f64(), Some(0.5));
        assert_eq!(uge.get_field("FreeSwap").unwrap().as_f64(), Some(3.0));
        // The Fig. 5 stringified job list.
        let nj = &pts[1];
        assert_eq!(nj.measurement, "NodeJobs");
        assert_eq!(nj.get_field("JobList").unwrap().as_str(), Some("['1291784', '1318962']"));
    }

    #[test]
    fn thermal_point_counts() {
        let r = thermal();
        assert_eq!(bmc(SchemaVersion::Optimized, &r).len(), 7);
        assert_eq!(bmc(SchemaVersion::Previous, &r).len(), 14);
    }
}
