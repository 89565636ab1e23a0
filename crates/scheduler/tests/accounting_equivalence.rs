//! The accounting pull's equivalences.
//!
//! * One field inventory, two sinks: the `Value` sink builds exactly the
//!   document the hand-written `jobj!` builders built (frozen below as
//!   [`reference`]), and the byte counter adds up exactly the length of
//!   that document's XML rendering — for arbitrary load reports and jobs
//!   in every state and shape.
//! * The memoized pull returns what a cold pull computes from the
//!   qmaster's public surface, at every step of an arbitrary submit /
//!   advance / execd-failure schedule, and its memo never outgrows the
//!   pulled set.

use monster_scheduler::accounting::{
    accounting_pull, job_document, job_wire_bytes, node_document, node_wire_bytes, to_xml,
    RECENT_FINISH_WINDOW_SECS,
};
use monster_scheduler::host::{LoadReport, SLOTS_PER_NODE};
use monster_scheduler::{Job, JobId, JobShape, JobSpec, JobState, Qmaster, QmasterConfig};
use monster_util::{EpochSecs, NodeId, UserName};
use proptest::prelude::*;

/// The document builders as they stood before the sinks: every member
/// spelled out as a `jobj!` literal. Kept only as the oracle.
mod reference {
    use super::*;
    use monster_json::{jobj, Value};

    /// The per-node accounting document (Table II's node-level metrics plus
    /// the descriptive payload ARCo attaches).
    pub fn node_document(report: &LoadReport) -> Value {
        let jobs: Vec<Value> =
            report.job_list.iter().map(|id| Value::from(id.to_string())).collect();
        jobj! {
            "hostname" => report.node.label(),
            "address" => report.node.bmc_addr(),
            "cpu_usage" => report.cpu_usage,
            "mem_total_gib" => report.mem_total_gib,
            "mem_used_gib" => report.mem_used_gib,
            "mem_free_gib" => report.mem_free_gib(),
            "swap_total_gib" => report.swap_total_gib,
            "swap_used_gib" => report.swap_used_gib,
            "swap_free_gib" => report.swap_free_gib(),
            "job_list" => Value::Array(jobs),
            // The descriptive payload a real qhost/ARCo host record carries:
            // full host complexes, three queue instances each dumping its
            // complex values, topology, and per-core load entries. This
            // verbosity is what makes the paper's per-node accounting payload
            // ≈19 KB.
            "arch" => "lx-amd64",
            "num_proc" => 36i64,
            "topology" => "SCCCCCCCCCCCCCCCCCCSCCCCCCCCCCCCCCCCCC",
            "topology_inuse" => "SCCCCCCCCCCCCCCCCCCSCCCCCCCCCCCCCCCCCC",
            "host_values" => host_complexes(report),
            "queue_instances" => Value::Array(
                ["omni.q", "general.q", "xlquanah.q"]
                    .iter()
                    .map(|q| queue_instance(q, report))
                    .collect()
            ),
            "load_values" => Value::Array(
                (0..36).map(|c| {
                    jobj! {
                        "core" => c as i64,
                        "load_avg" => report.cpu_usage * (1.0 + (c % 5) as f64 * 0.002),
                        "load_short" => report.cpu_usage * (1.0 + (c % 7) as f64 * 0.003),
                        "load_medium" => report.cpu_usage,
                    }
                }).collect()
            ),
        }
    }

    /// The host-level complex values a `qhost -F` dump reports.
    fn host_complexes(report: &LoadReport) -> Value {
        let mem_free = report.mem_free_gib();
        let swap_free = report.swap_free_gib();
        jobj! {
            "hl:arch" => "lx-amd64",
            "hl:num_proc" => 36i64,
            "hl:m_socket" => 2i64,
            "hl:m_core" => 36i64,
            "hl:m_thread" => 36i64,
            "hl:load_avg" => report.cpu_usage * 36.0,
            "hl:load_short" => report.cpu_usage * 36.0,
            "hl:load_medium" => report.cpu_usage * 36.0,
            "hl:load_long" => report.cpu_usage * 36.0,
            "hl:np_load_avg" => report.cpu_usage,
            "hl:np_load_short" => report.cpu_usage,
            "hl:np_load_medium" => report.cpu_usage,
            "hl:np_load_long" => report.cpu_usage,
            "hl:mem_total" => format!("{:.3}G", report.mem_total_gib),
            "hl:mem_used" => format!("{:.3}G", report.mem_used_gib),
            "hl:mem_free" => format!("{:.3}G", mem_free),
            "hl:swap_total" => format!("{:.3}G", report.swap_total_gib),
            "hl:swap_used" => format!("{:.3}G", report.swap_used_gib),
            "hl:swap_free" => format!("{:.3}G", swap_free),
            "hl:virtual_total" => format!("{:.3}G", report.mem_total_gib + report.swap_total_gib),
            "hl:virtual_used" => format!("{:.3}G", report.mem_used_gib + report.swap_used_gib),
            "hl:virtual_free" => format!("{:.3}G", mem_free + swap_free),
            "hl:cpu" => report.cpu_usage * 100.0,
            "hl:m_cache_l1" => "32.000K",
            "hl:m_cache_l2" => "256.000K",
            "hl:m_cache_l3" => "45.000M",
            "hl:m_mem_total" => format!("{:.3}G", report.mem_total_gib),
            "hl:m_mem_used" => format!("{:.3}G", report.mem_used_gib),
            "hl:m_mem_free" => format!("{:.3}G", mem_free),
            "hl:display_win_gui" => false,
        }
    }

    /// One queue instance's `qstat -F` style dump.
    fn queue_instance(qname: &str, report: &LoadReport) -> Value {
        jobj! {
            "qname" => qname,
            "hostname" => report.node.label(),
            "qtype" => "BP",
            "slots_total" => 36i64,
            "slots_used" => (report.cpu_usage * 36.0).round() as i64,
            "slots_resv" => 0i64,
            "state" => if report.cpu_usage >= 1.0 { "full" } else { "" },
            "seq_no" => 0i64,
            "rerun" => false,
            "tmpdir" => "/tmp",
            "shell" => "/bin/bash",
            "prolog" => "NONE",
            "epilog" => "NONE",
            "shell_start_mode" => "unix_behavior",
            "starter_method" => "NONE",
            "suspend_method" => "NONE",
            "resume_method" => "NONE",
            "terminate_method" => "NONE",
            "notify" => "00:00:60",
            "processors" => "UNDEFINED",
            "qf:qname" => qname,
            "qf:hostname" => report.node.label(),
            "qf:min_cpu_interval" => "00:05:00",
            "qf:pe_list" => "make mpi sm",
            "qf:ckpt_list" => "NONE",
            "qf:calendar" => "NONE",
            "qf:priority" => "0",
            "qf:s_rt" => "INFINITY",
            "qf:h_rt" => "48:00:00",
            "qf:s_cpu" => "INFINITY",
            "qf:h_cpu" => "INFINITY",
            "qf:s_fsize" => "INFINITY",
            "qf:h_fsize" => "INFINITY",
            "qf:s_data" => "INFINITY",
            "qf:h_data" => "INFINITY",
            "qf:s_stack" => "INFINITY",
            "qf:h_stack" => "INFINITY",
            "qf:s_core" => "INFINITY",
            "qf:h_core" => "INFINITY",
            "qf:s_rss" => "INFINITY",
            "qf:h_rss" => "INFINITY",
            "qf:s_vmem" => "INFINITY",
            "qf:h_vmem" => "5.3G",
            "qc:slots" => (36.0 - report.cpu_usage * 36.0).round() as i64,
            "qc:mem_free" => format!("{:.3}G", report.mem_free_gib()),
            "qc:swap_free" => format!("{:.3}G", report.swap_free_gib()),
        }
    }

    /// The per-job accounting document (Table II's job-level metrics).
    pub fn job_document(job: &Job, slots_per_node: u32) -> Value {
        let (state, start, end) = match &job.state {
            JobState::Pending => ("pending", None, None),
            JobState::Running { start, .. } => ("running", Some(*start), None),
            JobState::Done { start, end, .. } => ("done", Some(*start), Some(*end)),
            JobState::Failed { start, end, .. } => ("failed", Some(*start), Some(*end)),
        };
        let hosts: Vec<Value> = job.hosts().iter().map(|h| Value::from(h.label())).collect();
        let slots = job.total_slots(slots_per_node) as i64;
        // CPU seconds accrue while running (compute-bound approximation).
        let cpu_secs = match (start, end) {
            (Some(s), Some(e)) => (e - s) * slots,
            _ => 0,
        };
        jobj! {
            "job_number" => job.id.to_string(),
            "owner" => job.spec.user.as_str(),
            "job_name" => job.spec.name.as_str(),
            "state" => state,
            "submission_time" => job.submit_time.as_secs(),
            "start_time" => start.map(|t| t.as_secs()),
            "end_time" => end.map(|t| t.as_secs()),
            "slots" => slots,
            "granted_pe" => match job.spec.shape {
                JobShape::Parallel { .. } => Value::from("mpi"),
                _ => Value::Null,
            },
            "hosts" => Value::Array(hosts),
            "cpu" => cpu_secs,
            "mem_per_slot_gib" => job.spec.mem_per_slot_gib,
            "priority" => job.spec.priority as i64,
            // ARCo's usage blob: rusage fields a real record carries.
            "ru_wallclock" => end.zip(start).map(|(e, s)| e - s),
            "ru_utime" => cpu_secs as f64 * 0.97,
            "ru_stime" => cpu_secs as f64 * 0.03,
            "ru_maxrss" => (job.spec.mem_per_slot_gib * 1024.0 * 1024.0) as i64,
            "ru_ixrss" => 0i64,
            "ru_ismrss" => 0i64,
            "ru_idrss" => 0i64,
            "ru_isrss" => 0i64,
            "ru_minflt" => cpu_secs * 251,
            "ru_majflt" => cpu_secs / 17,
            "ru_nswap" => 0i64,
            "ru_inblock" => cpu_secs * 31,
            "ru_oublock" => cpu_secs * 13,
            "ru_msgsnd" => 0i64,
            "ru_msgrcv" => 0i64,
            "ru_nsignals" => 0i64,
            "ru_nvcsw" => cpu_secs * 97,
            "ru_nivcsw" => cpu_secs * 11,
            "maxvmem_gib" => job.spec.mem_per_slot_gib * slots as f64,
            "io" => cpu_secs as f64 * 0.0021,
            "iow" => cpu_secs as f64 * 0.0003,
            "category" => "-u all.q -l h_vmem=5.3G -pe mpi",
            "account" => "sge",
            "department" => "defaultdepartment",
            "project" => "NONE",
            "granted_req" => "h_vmem=5.3G",
            "sge_o_home" => format!("/home/{}", job.spec.user.as_str()),
            "sge_o_path" => "/opt/sge/bin/lx-amd64:/usr/local/bin:/usr/bin:/bin:/usr/local/sbin:/usr/sbin:/opt/ohpc/pub/mpi/openmpi3-gnu8/bin:/opt/ohpc/pub/compiler/gcc/8.3.0/bin",
            "sge_o_shell" => "/bin/bash",
            "sge_o_workdir" => format!("/home/{}/runs/{}", job.spec.user.as_str(), job.spec.name),
            "sge_o_host" => "quanah",
            "mail_list" => format!("{}@quanah.hpcc.ttu.edu", job.spec.user.as_str()),
            "submit_cmd" => format!("qsub -q omni.q -pe mpi {} -l h_vmem=5.3G {}", slots, job.spec.name),
            "context" => "NONE",
            // qstat -j verbosity: the job's submission environment and the
            // per-queue-instance scheduling diagnostics — on a production
            // cluster these sections dominate the record and push the per-job
            // payload into the tens of kilobytes the paper measures.
            "env" => job_environment(job),
            "scheduling_info" => scheduling_info(job),
            "per_host_usage" => Value::Array(
                job.hosts().iter().map(|h| {
                    jobj! {
                        "host" => h.label(),
                        "cpu" => cpu_secs as f64 / job.hosts().len().max(1) as f64,
                        "mem" => job.spec.mem_per_slot_gib,
                        "io" => 0.002f64,
                        "vmem" => format!("{:.3}G", job.spec.mem_per_slot_gib),
                        "maxvmem" => format!("{:.3}G", job.spec.mem_per_slot_gib * 1.08),
                    }
                }).collect()
            ),
        }
    }

    /// The submission environment `qstat -j` echoes back (representative UGE
    /// module environment on an OpenHPC system).
    fn job_environment(job: &Job) -> Value {
        let user = job.spec.user.as_str();
        jobj! {
            "HOME" => format!("/home/{user}"),
            "USER" => user,
            "LOGNAME" => user,
            "SHELL" => "/bin/bash",
            "TERM" => "xterm-256color",
            "LANG" => "en_US.UTF-8",
            "HOSTNAME" => "login-20-25.localdomain",
            "PWD" => format!("/home/{user}/runs/{}", job.spec.name),
            "PATH" => "/opt/sge/bin/lx-amd64:/opt/ohpc/pub/mpi/openmpi3-gnu8/bin:/opt/ohpc/pub/compiler/gcc/8.3.0/bin:/opt/ohpc/pub/utils/prun/1.3:/opt/ohpc/pub/utils/autotools/bin:/opt/ohpc/pub/bin:/usr/local/bin:/usr/bin:/usr/local/sbin:/usr/sbin",
            "LD_LIBRARY_PATH" => "/opt/ohpc/pub/mpi/openmpi3-gnu8/lib:/opt/ohpc/pub/compiler/gcc/8.3.0/lib64:/opt/sge/lib/lx-amd64",
            "MANPATH" => "/opt/ohpc/pub/mpi/openmpi3-gnu8/share/man:/opt/ohpc/pub/compiler/gcc/8.3.0/share/man:/usr/local/share/man:/usr/share/man",
            "MODULEPATH" => "/opt/ohpc/pub/moduledeps/gnu8-openmpi3:/opt/ohpc/pub/moduledeps/gnu8:/opt/ohpc/pub/modulefiles",
            "LOADEDMODULES" => "autotools:prun/1.3:gnu8/8.3.0:openmpi3/3.1.4:ohpc",
            "MPI_DIR" => "/opt/ohpc/pub/mpi/openmpi3-gnu8",
            "OMP_NUM_THREADS" => "1",
            "SGE_ROOT" => "/opt/sge",
            "SGE_CELL" => "default",
            "SGE_CLUSTER_NAME" => "quanah",
            "SGE_ARCH" => "lx-amd64",
            "SGE_EXECD_PORT" => "6445",
            "SGE_QMASTER_PORT" => "6444",
            "SGE_O_WORKDIR" => format!("/home/{user}/runs/{}", job.spec.name),
            "SGE_STDOUT_PATH" => format!("/home/{user}/runs/{}/{}.o{}", job.spec.name, job.spec.name, job.id),
            "SGE_STDERR_PATH" => format!("/home/{user}/runs/{}/{}.e{}", job.spec.name, job.spec.name, job.id),
            "SGE_TASK_ID" => match job.spec.shape {
                JobShape::ArrayTask { index, .. } => Value::from(index as i64),
                _ => Value::from("undefined"),
            },
            "NSLOTS" => job.total_slots(SLOTS_PER_NODE) as i64,
            "NQUEUES" => 1i64,
            "NHOSTS" => job.hosts().len() as i64,
            "PE_HOSTFILE" => format!("/opt/sge/default/spool/execd/active_jobs/{}.1/pe_hostfile", job.id),
            "TMPDIR" => format!("/tmp/{}.1.omni.q", job.id),
            "JOB_ID" => job.id.to_string(),
            "JOB_NAME" => job.spec.name.as_str(),
            "JOB_SCRIPT" => format!("/opt/sge/default/spool/execd/job_scripts/{}", job.id),
            "QUEUE" => "omni.q",
            "REQUEST" => job.spec.name.as_str(),
            "RESTARTED" => "0",
            "ENVIRONMENT" => "BATCH",
            "ARC" => "lx-amd64",
            "DISPLAY" => Value::Null,
            "XDG_RUNTIME_DIR" => format!("/run/user/{}", 20000 + (job.id.as_u64() % 1000)),
            "XDG_SESSION_ID" => (job.id.as_u64() % 10_000) as i64,
        }
    }

    /// The per-queue-instance scheduling diagnostics `qstat -j` appends — one
    /// line per representative queue instance explaining why the job did (or
    /// did not) land there. On the 467-node production cluster this section
    /// alone runs to many kilobytes.
    fn scheduling_info(job: &Job) -> Value {
        let lines: Vec<Value> = (0..80)
            .map(|i| {
                let chassis = i / 4 + 1;
                let slot = i % 4 + 1;
                Value::from(format!(
                    "queue instance \"omni.q@compute-{chassis}-{slot}.localdomain\" dropped because it is temporarily not available (load threshold np_load_avg=1.75 / job {} requests {} slots)",
                    job.id,
                    job.spec.shape.slots_per_host(SLOTS_PER_NODE),
                ))
            })
            .collect();
        Value::Array(lines)
    }
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    (1u16..400, 1u16..=4).prop_map(|(chassis, slot)| NodeId::new(chassis, slot))
}

/// Floats a resource model could produce, and ones it could not.
fn arb_float() -> BoxedStrategy<f64> {
    prop_oneof![
        (0u32..=36).prop_map(|s| s as f64 / 36.0),
        0.0..256.0f64,
        any::<f64>().prop_filter("finite", |f| f.is_finite()),
    ]
    .boxed()
}

/// Raw bit patterns: NaN and the infinities included.
fn any_float() -> BoxedStrategy<f64> {
    any::<f64>().boxed()
}

fn arb_report(float: fn() -> BoxedStrategy<f64>) -> impl Strategy<Value = LoadReport> {
    let floats = (float(), float(), float(), float(), float());
    (arb_node(), floats, prop::collection::vec(1u64..10_000_000, 0..40)).prop_map(
        |(node, (cpu_usage, mem_total_gib, mem_used_gib, swap_total_gib, swap_used_gib), jobs)| {
            LoadReport {
                node,
                cpu_usage,
                mem_total_gib,
                mem_used_gib,
                swap_total_gib,
                swap_used_gib,
                job_list: jobs.into_iter().map(JobId).collect(),
            }
        },
    )
}

fn arb_shape() -> impl Strategy<Value = JobShape> {
    prop_oneof![
        (1u32..=SLOTS_PER_NODE).prop_map(|slots| JobShape::Serial { slots }),
        (1u32..=64).prop_map(|nodes| JobShape::Parallel { nodes }),
        (1u64..10_000_000, 0u32..2_000)
            .prop_map(|(parent, index)| JobShape::ArrayTask { parent: JobId(parent), index }),
    ]
}

fn arb_state() -> impl Strategy<Value = JobState> {
    let placed = (
        0u8..4,
        1_587_340_800i64..1_600_000_000,
        0i64..1_000_000,
        prop::collection::vec(arb_node(), 0..6),
    );
    placed.prop_map(|(kind, start, ran, hosts)| {
        let (start, end) = (EpochSecs::new(start), EpochSecs::new(start + ran));
        match kind {
            0 => JobState::Pending,
            1 => JobState::Running { start, hosts },
            2 => JobState::Done { start, end, hosts },
            _ => JobState::Failed { start, end, hosts },
        }
    })
}

fn arb_job(float: fn() -> BoxedStrategy<f64>) -> impl Strategy<Value = Job> {
    let spec =
        ("[a-z]{1,8}", "[a-zA-Z0-9_.<&-]{1,16}", arb_shape(), 1i64..1_000_000, -9i32..9, float());
    (1u64..10_000_000, spec, 1_587_340_800i64..1_600_000_000, arb_state()).prop_map(
        |(id, (user, name, shape, runtime_secs, priority, mem_per_slot_gib), submit, state)| Job {
            id: JobId(id),
            spec: JobSpec {
                user: UserName::new(user),
                name,
                shape,
                runtime_secs,
                priority,
                mem_per_slot_gib,
            },
            submit_time: EpochSecs::new(submit),
            state,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn node_sinks_agree(report in arb_report(arb_float)) {
        let document = node_document(&report);
        prop_assert_eq!(&document, &reference::node_document(&report));
        prop_assert_eq!(node_wire_bytes(&report), to_xml("host", &document).len());
    }

    #[test]
    fn job_sinks_agree(job in arb_job(arb_float), slots_per_node in 1u32..=128) {
        let document = job_document(&job, slots_per_node);
        prop_assert_eq!(&document, &reference::job_document(&job, slots_per_node));
        prop_assert_eq!(
            job_wire_bytes(&job, slots_per_node),
            to_xml("job_info", &document).len()
        );
    }

    /// NaN and the infinities never equal themselves as `Value`s, but the
    /// counter still has to count what the renderer writes for them.
    #[test]
    fn counter_is_byte_exact_on_any_float(
        report in arb_report(any_float),
        job in arb_job(any_float),
    ) {
        prop_assert_eq!(node_wire_bytes(&report), to_xml("host", &node_document(&report)).len());
        prop_assert_eq!(
            job_wire_bytes(&job, SLOTS_PER_NODE),
            to_xml("job_info", &job_document(&job, SLOTS_PER_NODE)).len()
        );
    }
}

/// One step of a scheduler's life between two pulls.
#[derive(Debug, Clone)]
enum Step {
    Submit { shape: JobShape, runtime_secs: i64, mem_per_slot_gib: f64 },
    Advance(i64),
    FailExecd(usize),
    RecoverExecd(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let shape = prop_oneof![
        (1u32..=SLOTS_PER_NODE).prop_map(|slots| JobShape::Serial { slots }),
        (1u32..=3).prop_map(|nodes| JobShape::Parallel { nodes }),
        (0u32..50).prop_map(|index| JobShape::ArrayTask { parent: JobId(7), index }),
    ];
    prop_oneof![
        (shape, 20i64..1_500, 0.5..70.0f64).prop_map(|(shape, runtime_secs, mem_per_slot_gib)| {
            Step::Submit { shape, runtime_secs, mem_per_slot_gib }
        }),
        (1i64..400).prop_map(Step::Advance),
        (1i64..400).prop_map(Step::Advance),
        (0usize..6).prop_map(Step::FailExecd),
        (0usize..6).prop_map(Step::RecoverExecd),
    ]
}

/// What a pull must return, from the qmaster's public surface alone and
/// with every document rendered in full.
fn cold_pull(qm: &Qmaster) -> (Vec<LoadReport>, Vec<&Job>, usize) {
    let nodes = qm.all_load_reports();
    let jobs: Vec<&Job> = qm
        .jobs()
        .filter(|j| match &j.state {
            JobState::Pending => false,
            JobState::Running { .. } => true,
            JobState::Done { end, .. } | JobState::Failed { end, .. } => {
                qm.now() - *end <= RECENT_FINISH_WINDOW_SECS
            }
        })
        .collect();
    let bytes = nodes.iter().map(|r| to_xml("host", &node_document(r)).len()).sum::<usize>()
        + jobs
            .iter()
            .map(|j| to_xml("job_info", &job_document(j, SLOTS_PER_NODE)).len())
            .sum::<usize>();
    (nodes, jobs, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoized_pull_equals_cold_pull(steps in prop::collection::vec(arb_step(), 1..60)) {
        let config = QmasterConfig { nodes: 6, ..QmasterConfig::default() };
        let mut t = config.start_time;
        let mut qm = Qmaster::new(config);
        let nodes = qm.node_ids();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Submit { shape, runtime_secs, mem_per_slot_gib } => qm.submit_at(
                    t + 1,
                    JobSpec {
                        user: UserName::new(format!("u{}", i % 4)),
                        name: format!("step{i}.sh"),
                        shape,
                        runtime_secs,
                        priority: (i % 3) as i32,
                        mem_per_slot_gib,
                    },
                ),
                Step::Advance(secs) => {
                    t = t + secs;
                    qm.run_until(t);
                }
                Step::FailExecd(n) => qm.fail_execd_at(t + 1, nodes[n]),
                Step::RecoverExecd(n) => qm.recover_execd_at(t + 1, nodes[n]),
            }
            let (cold_nodes, cold_jobs, cold_bytes) = cold_pull(&qm);
            let pulled = cold_nodes.len() + cold_jobs.len();
            let (snapshot, bytes) = accounting_pull(&qm);
            prop_assert_eq!(snapshot.timestamp, qm.now());
            prop_assert_eq!(&snapshot.nodes, &cold_nodes);
            prop_assert_eq!(&snapshot.jobs, &cold_jobs);
            prop_assert_eq!(bytes, cold_bytes);
            let after_first = qm.accounting_memo_stats();
            prop_assert_eq!(after_first.docs_held, pulled);

            // Nothing moved: the second pull renders nothing and agrees.
            let (again, bytes_again) = accounting_pull(&qm);
            prop_assert_eq!(&again, &snapshot);
            prop_assert_eq!(bytes_again, cold_bytes);
            let after_second = qm.accounting_memo_stats();
            prop_assert_eq!(after_second.docs_rendered, after_first.docs_rendered);
            prop_assert_eq!(after_second.docs_reused, after_first.docs_reused + pulled as u64);
        }
    }
}
