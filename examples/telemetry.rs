//! The Telemetry Service upgrade (the paper's §VI future work): compare
//! 60-second polling against 10-second BMC-side telemetry sampling on a
//! workload with intra-interval load spikes.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use monster::analysis::served;
use monster::builder::{BuilderRequest, ExecMode};
use monster::collector::Source;
use monster::redfish::bmc::BmcConfig;
use monster::redfish::telemetry::TelemetryService;
use monster::scheduler::{JobShape, JobSpec};
use monster::tsdb::Aggregation;
use monster::util::UserName;
use monster::{Monster, MonsterConfig};

/// Submit a bursty workload: short 20-second jobs every other minute, which
/// per-interval polling can never catch in the act.
fn bursty_jobs(m: &mut Monster, minutes: i64) {
    let t0 = m.now();
    for k in 0..(minutes / 2) {
        m.qmaster_mut().submit_at(
            t0 + k * 120 + 20,
            JobSpec {
                user: UserName::new("bursty"),
                name: format!("burst{k}.sh"),
                shape: JobShape::Serial { slots: 36 },
                runtime_secs: 20,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
    }
}

fn deployment() -> Monster {
    Monster::new(MonsterConfig {
        nodes: 4,
        workload: None,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    })
}

fn power_series(m: &Monster, minutes: i64) -> Vec<f64> {
    let req = BuilderRequest::new(m.now() - minutes * 60, m.now() + 60, 10, Aggregation::Max)
        .expect("request");
    let out = m.builder_query(&req, ExecMode::Sequential).expect("query");
    let power = served::section(&out.document, "10.101.1.1", "power").expect("served");
    power.iter().filter_map(|(_, _, v)| v.as_f64()).collect()
}

fn sparkline(series: &[f64]) -> String {
    let lo = series.iter().cloned().fold(f64::MAX, f64::min);
    let hi = series.iter().cloned().fold(f64::MIN, f64::max);
    series
        .iter()
        .map(|v| {
            let level = if hi > lo { ((v - lo) / (hi - lo) * 7.0) as u32 } else { 0 };
            char::from_u32(0x2581 + level).unwrap()
        })
        .collect()
}

fn main() {
    const MINUTES: i64 = 20;
    println!("== Telemetry Service vs per-interval polling ==");
    println!("(bursty workload: 20 s full-load jobs every other minute)\n");

    // A: classic 60 s polling.
    let mut poll = deployment();
    bursty_jobs(&mut poll, MINUTES);
    poll.run_intervals(MINUTES as usize);

    // B: telemetry at 10 s.
    let mut tele = deployment();
    bursty_jobs(&mut tele, MINUTES);
    let mut service = TelemetryService::new();
    for _ in 0..MINUTES {
        tele.run_interval_from(Source::Telemetry(&mut service)).expect("telemetry interval");
    }

    let p_poll = power_series(&poll, MINUTES);
    let p_tele = power_series(&tele, MINUTES);
    let spread = |s: &[f64]| {
        let lo = s.iter().cloned().fold(f64::MAX, f64::min);
        let hi = s.iter().cloned().fold(f64::MIN, f64::max);
        hi - lo
    };

    println!(
        "polling   (60 s): {:3} samples, power swing observed {:6.1} W",
        p_poll.len(),
        spread(&p_poll)
    );
    println!("  {}", sparkline(&p_poll));
    println!(
        "telemetry (10 s): {:3} samples, power swing observed {:6.1} W",
        p_tele.len(),
        spread(&p_tele)
    );
    println!("  {}", sparkline(&p_tele));

    println!(
        "\nresolution gain: {}x more samples per node for the same one-request-per-interval cost",
        if p_poll.is_empty() { 0 } else { p_tele.len() / p_poll.len().max(1) }
    );
    println!("the 20-second bursts are invisible at 60 s and obvious at 10 s.");
}
