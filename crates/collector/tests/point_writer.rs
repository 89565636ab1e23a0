//! The in-place point writer against itself: whatever a buffer held, the
//! points written over it are the points written into an empty `Vec`, and
//! writing the same readings over their own points allocates nothing.
//!
//! The allocation count is the calling thread's (`counting_alloc::counted`):
//! sibling tests allocate beside a window without showing up in it, and
//! nothing serializes.

use monster_collector::{PointWriter, SchemaVersion};
use monster_redfish::{HealthState, NodeReading};
use monster_scheduler::host::LoadReport;
use monster_scheduler::{Job, JobShape, JobSpec, JobState};
use monster_tsdb::{DataPoint, FieldValue};
use monster_util::{EpochSecs, JobId, NodeId, UserName};
use proptest::prelude::*;

/// What one node contributes to an interval.
#[derive(Debug, Clone)]
struct NodeSample {
    thermal: NodeReading,
    power: NodeReading,
    bmc: HealthState,
    host: HealthState,
    /// The BMC is down: its readings are last-known-good substitutions.
    stale: bool,
    report: LoadReport,
}

#[derive(Debug, Clone)]
struct Interval {
    time: EpochSecs,
    nodes: Vec<NodeSample>,
    jobs: Vec<Job>,
}

fn node_id(index: usize) -> NodeId {
    NodeId::new(1 + index as u16 / 4, 1 + index as u16 % 4)
}

/// One interval through the writer, in the collector's order: every BMC
/// reading, then every load report, then every job.
fn write(schema: SchemaVersion, points: &mut Vec<DataPoint>, interval: &Interval) {
    let mut w = PointWriter::new(schema, points);
    for (i, n) in interval.nodes.iter().enumerate() {
        let node = node_id(i);
        let (manager, system) =
            (NodeReading::Manager { health: n.bmc }, NodeReading::System { health: n.host });
        for reading in [&n.thermal, &n.power, &manager, &system] {
            w.bmc(node, reading, interval.time, n.stale);
        }
    }
    for n in &interval.nodes {
        w.uge(&n.report, interval.time);
    }
    for job in &interval.jobs {
        w.job(job, interval.time);
    }
}

fn arb_health() -> impl Strategy<Value = HealthState> {
    prop_oneof![Just(HealthState::Ok), Just(HealthState::Warning), Just(HealthState::Critical)]
}

fn arb_node() -> impl Strategy<Value = NodeSample> {
    let reading = || prop::collection::vec(0.0..5000.0f64, 0..5);
    let job_list = prop::collection::vec((1_290_000u64..1_290_020).prop_map(JobId), 0..5);
    let state = (arb_health(), arb_health(), any::<bool>());
    (reading(), reading(), reading(), 0.0..900.0f64, state, job_list).prop_map(
        |(cpu_temps, fans, voltages, x, (bmc, host, stale), job_list)| NodeSample {
            thermal: NodeReading::Thermal { cpu_temps, inlet: x / 30.0, fans },
            power: NodeReading::Power { usage_watts: x, voltages },
            bmc,
            host,
            stale,
            report: LoadReport {
                node: NodeId::new(1, 1),
                cpu_usage: x / 900.0,
                mem_total_gib: 192.0,
                mem_used_gib: x / 5.0,
                swap_total_gib: 4.0,
                swap_used_gib: x / 300.0,
                job_list,
            },
        },
    )
}

fn arb_job() -> impl Strategy<Value = Job> {
    let hosts = || vec![NodeId::new(1, 1), NodeId::new(1, 2)];
    let t = |secs: i64| EpochSecs::new(1_587_340_800 + secs);
    (1_290_000u64..1_290_020, "[a-z]{1,12}", "[a-z.]{0,16}", 0usize..4, 0i64..100_000).prop_map(
        move |(id, user, name, state, secs)| Job {
            id: JobId(id),
            spec: JobSpec {
                user: UserName::new(user),
                name,
                shape: JobShape::Parallel { nodes: 2 },
                runtime_secs: 600,
                priority: 0,
                mem_per_slot_gib: 2.0,
            },
            submit_time: t(secs),
            state: match state {
                0 => JobState::Pending,
                1 => JobState::Running { start: t(secs + 5), hosts: hosts() },
                2 => JobState::Done { start: t(secs + 5), end: t(secs + 605), hosts: hosts() },
                _ => JobState::Failed { start: t(secs + 5), end: t(secs + 65), hosts: hosts() },
            },
        },
    )
}

/// An interval over at most five nodes: each BMC is up or down, each
/// health rollup normal or not, and job lists and the job table of any
/// length, whatever the interval before held.
fn arb_interval() -> impl Strategy<Value = Interval> {
    let nodes = prop::collection::vec(arb_node(), 0..6);
    (nodes, prop::collection::vec(arb_job(), 0..6), 0i64..1_000_000).prop_map(
        |(mut nodes, jobs, secs)| {
            for (i, n) in nodes.iter_mut().enumerate() {
                n.report.node = node_id(i);
            }
            Interval { time: EpochSecs::new(1_587_340_800 + secs), nodes, jobs }
        },
    )
}

/// What a buffer might hold: the writer's own measurements and others,
/// zero to five tags, zero to nine fields of any type — a `Str` where the
/// writer puts a `Float` and the reverse.
fn arb_dirty_point() -> impl Strategy<Value = DataPoint> {
    let value = prop_oneof![
        (-1e6..1e6f64).prop_map(FieldValue::Float),
        any::<i64>().prop_map(FieldValue::Int),
        any::<bool>().prop_map(FieldValue::Bool),
        "[ -~]{0,40}".prop_map(FieldValue::Str),
    ];
    let name = || prop_oneof!["[A-Za-z]{0,12}", Just("Reading".to_string())];
    (
        prop_oneof![
            "[A-Za-z_0-9]{0,16}",
            Just("Thermal".to_string()),
            Just("JobsInfo".to_string())
        ],
        prop::collection::vec((name(), "[ -~]{0,20}"), 0..6),
        prop::collection::vec((name(), value), 0..10),
        any::<i64>(),
    )
        .prop_map(|(measurement, tags, fields, t)| DataPoint {
            measurement,
            tags,
            fields,
            time: EpochSecs::new(t),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn writing_over_any_buffer_equals_writing_into_an_empty_one(
        optimized in any::<bool>(),
        dirty in prop::collection::vec(arb_dirty_point(), 0..120),
        intervals in prop::collection::vec(arb_interval(), 1..5),
    ) {
        let schema = if optimized { SchemaVersion::Optimized } else { SchemaVersion::Previous };
        // The buffer carries over: the second interval writes over the
        // first's points, longer or shorter, stale or live, as they fall.
        let mut recycled = dirty;
        for interval in &intervals {
            let mut fresh = Vec::new();
            write(schema, &mut fresh, interval);
            write(schema, &mut recycled, interval);
            prop_assert_eq!(&recycled, &fresh);
        }
    }
}

#[test]
fn a_second_pass_over_the_same_readings_allocates_nothing() {
    let node = |i: usize, stale: bool, bmc: HealthState| NodeSample {
        thermal: NodeReading::Thermal {
            cpu_temps: vec![54.0, 56.5],
            inlet: 21.0,
            fans: vec![4400.0, 4410.0, 4390.0, 4420.0],
        },
        power: NodeReading::Power { usage_watts: 273.8, voltages: vec![12.0, 5.0, 3.3] },
        bmc,
        host: HealthState::Ok,
        stale,
        report: LoadReport {
            node: node_id(i),
            cpu_usage: 0.5,
            mem_total_gib: 192.0,
            mem_used_gib: 96.0,
            swap_total_gib: 4.0,
            swap_used_gib: 1.0,
            job_list: vec![JobId(1_291_784), JobId(1_318_962)],
        },
    };
    let hosts = vec![NodeId::new(1, 1)];
    let t0 = EpochSecs::new(1_587_340_800);
    let job = |id: u64, state: JobState| Job {
        id: JobId(id),
        spec: JobSpec {
            user: UserName::new("jieyao"),
            name: "mpi.sh".into(),
            shape: JobShape::Serial { slots: 4 },
            runtime_secs: 3600,
            priority: 0,
            mem_per_slot_gib: 2.0,
        },
        submit_time: t0,
        state,
    };
    let interval = Interval {
        time: t0 + 60,
        nodes: vec![
            node(0, false, HealthState::Ok),
            node(1, true, HealthState::Warning),
            node(2, false, HealthState::Critical),
        ],
        jobs: vec![
            job(1_291_784, JobState::Running { start: t0 + 5, hosts: hosts.clone() }),
            job(1_318_962, JobState::Done { start: t0 + 5, end: t0 + 50, hosts }),
        ],
    };
    for schema in [SchemaVersion::Optimized, SchemaVersion::Previous] {
        let mut points = Vec::new();
        write(schema, &mut points, &interval);
        let first = points.clone();
        // A minute on, the same shapes: only the numbers and the clock move.
        let next = Interval { time: interval.time + 60, ..interval.clone() };
        let ((), allocated) = counting_alloc::counted(|| write(schema, &mut points, &next));
        assert_eq!(allocated.blocks, 0, "{schema:?}: a warm pass asked the allocator for blocks");
        assert_eq!(points.len(), first.len());
        assert!(points.iter().zip(&first).all(|(a, b)| a.time == b.time + 60));
    }
}
