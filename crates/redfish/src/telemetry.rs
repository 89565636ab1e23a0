//! The Redfish Telemetry Service — the paper's future work, implemented.
//!
//! §VI: "MonSTer ... cannot retrieve BMC metrics within seconds. In the
//! near future, we will collect more metrics by using ... the upcoming
//! telemetry model." DMTF's TelemetryService changes the polling economics:
//! the BMC samples its own sensors on a fast internal cadence and hands the
//! collector a whole **metric report** (a batch of timestamped samples) for
//! the cost of a single request. One 4-second Redfish call then yields
//! every 10-second sample of the last minute instead of one instantaneous
//! reading per category.
//!
//! This module implements the service side ([`TelemetryService`]) — report
//! definitions, ring-buffered samples per node, Redfish `MetricReport`
//! payloads — and the parsing client side. The collector integrates it via
//! `monster-collector`'s telemetry path.

use crate::cluster::SimulatedCluster;
use monster_json::{jobj, Value};
use monster_util::{EpochSecs, Error, NodeId, Result};
use std::collections::{HashMap, VecDeque};

/// Internal BMC sampling cadence in seconds (DMTF reports commonly run at
/// 5–30 s; 10 s gives six samples per 60 s collection interval).
pub const SAMPLE_INTERVAL_SECS: i64 = 10;
/// Samples retained per node (ring buffer, like the BMC's bounded report
/// store).
const SAMPLES_KEPT: usize = 60;

/// One internally-sampled observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// Sample time.
    pub time: EpochSecs,
    /// Node power draw, W.
    pub power: f64,
    /// CPU temperatures, °C.
    pub cpu_temps: [f64; 2],
    /// Inlet temperature, °C.
    pub inlet: f64,
    /// Fan speeds, RPM.
    pub fans: [f64; 4],
}

/// The fleet-wide telemetry service: per-node ring buffers plus report
/// sequence numbers.
#[derive(Default)]
pub struct TelemetryService {
    buffers: HashMap<NodeId, VecDeque<MetricSample>>,
    sequence: u64,
}

impl TelemetryService {
    /// A service with empty buffers.
    pub fn new() -> Self {
        TelemetryService::default()
    }

    /// Record one fleet-wide sample from the cluster's current sensor
    /// state (call once per [`SAMPLE_INTERVAL_SECS`] of simulated time,
    /// interleaved with `cluster.step`).
    pub fn record(&mut self, cluster: &SimulatedCluster, now: EpochSecs) {
        for &node in cluster.node_ids() {
            let s = cluster.sensors(node).expect("node exists");
            let buf =
                self.buffers.entry(node).or_insert_with(|| VecDeque::with_capacity(SAMPLES_KEPT));
            if buf.len() == SAMPLES_KEPT {
                buf.pop_front();
            }
            buf.push_back(MetricSample {
                time: now,
                power: s.power,
                cpu_temps: s.cpu_temps,
                inlet: s.inlet,
                fans: s.fans,
            });
        }
    }

    /// Build the Redfish `MetricReport` payload for a node and drain the
    /// buffer (`ReportUpdates: Overwrite` semantics: one fetch consumes
    /// the window).
    pub fn take_report(&mut self, node: NodeId) -> Result<Value> {
        let buf = self
            .buffers
            .get_mut(&node)
            .ok_or_else(|| Error::not_found(format!("no telemetry for {node}")))?;
        let samples: Vec<MetricSample> = buf.drain(..).collect();
        self.sequence += 1;
        Ok(report_payload(node, self.sequence, &samples))
    }
}

fn metric_value(prop: &str, t: EpochSecs, v: f64) -> Value {
    jobj! {
        "MetricProperty" => prop,
        "Timestamp" => t.to_rfc3339(),
        "MetricValue" => format!("{v:.1}"),
    }
}

/// Render a `MetricReport` document (trimmed DMTF schema).
fn report_payload(node: NodeId, sequence: u64, samples: &[MetricSample]) -> Value {
    let mut values: Vec<Value> = Vec::with_capacity(samples.len() * 8);
    for s in samples {
        values.push(metric_value("/Power/PowerConsumedWatts", s.time, s.power));
        for (i, t) in s.cpu_temps.iter().enumerate() {
            values.push(metric_value(
                &format!("/Thermal/Temperatures/{i}/ReadingCelsius"),
                s.time,
                *t,
            ));
        }
        values.push(metric_value("/Thermal/Temperatures/2/ReadingCelsius", s.time, s.inlet));
        for (i, f) in s.fans.iter().enumerate() {
            values.push(metric_value(&format!("/Thermal/Fans/{i}/Reading"), s.time, *f));
        }
    }
    jobj! {
        "@odata.id" => format!("/redfish/v1/TelemetryService/MetricReports/Node"),
        "Id" => format!("Node-{}", node.label()),
        "Name" => format!("Metric report for {}", node.bmc_addr()),
        "ReportSequence" => sequence as i64,
        "MetricReportDefinition" => jobj! {
            "@odata.id" => "/redfish/v1/TelemetryService/MetricReportDefinitions/NodeSensors"
        },
        "MetricValues" => Value::Array(values),
    }
}

/// Parse a `MetricReport` payload back into samples (client side).
pub fn parse_report(v: &Value) -> Result<Vec<MetricSample>> {
    let values = v
        .get("MetricValues")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::parse("MetricReport missing MetricValues"))?;
    // Group by timestamp, filling one sample per instant.
    let mut by_time: Vec<(EpochSecs, MetricSample)> = Vec::new();
    for mv in values {
        let prop = mv
            .get("MetricProperty")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::parse("metric value missing MetricProperty"))?;
        let t = EpochSecs::parse_rfc3339(
            mv.get("Timestamp")
                .and_then(Value::as_str)
                .ok_or_else(|| Error::parse("metric value missing Timestamp"))?,
        )?;
        let val: f64 = mv
            .get("MetricValue")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::parse("metric value missing MetricValue"))?;
        let sample = match by_time.iter_mut().find(|(time, _)| *time == t) {
            Some((_, s)) => s,
            None => {
                by_time.push((
                    t,
                    MetricSample {
                        time: t,
                        power: 0.0,
                        cpu_temps: [0.0; 2],
                        inlet: 0.0,
                        fans: [0.0; 4],
                    },
                ));
                &mut by_time.last_mut().expect("just pushed").1
            }
        };
        if prop == "/Power/PowerConsumedWatts" {
            sample.power = val;
        } else if let Some(rest) = prop.strip_prefix("/Thermal/Temperatures/") {
            let idx: usize = rest
                .split('/')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Error::parse(format!("bad property {prop:?}")))?;
            if idx < 2 {
                sample.cpu_temps[idx] = val;
            } else {
                sample.inlet = val;
            }
        } else if let Some(rest) = prop.strip_prefix("/Thermal/Fans/") {
            let idx: usize = rest
                .split('/')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Error::parse(format!("bad property {prop:?}")))?;
            if idx < 4 {
                sample.fans[idx] = val;
            }
        } else {
            return Err(Error::parse(format!("unknown metric property {prop:?}")));
        }
    }
    Ok(by_time.into_iter().map(|(_, s)| s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::BmcConfig;
    use crate::cluster::ClusterConfig;

    fn cluster(nodes: usize) -> SimulatedCluster {
        SimulatedCluster::new(ClusterConfig {
            nodes,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(nodes, 17)
        })
    }

    /// Samples currently buffered for a node.
    fn buffered(ts: &TelemetryService, node: NodeId) -> usize {
        ts.buffers.get(&node).map(VecDeque::len).unwrap_or(0)
    }

    #[test]
    fn record_and_take_report_round_trips() {
        let c = cluster(3);
        let mut ts = TelemetryService::new();
        for i in 0..6 {
            c.step(10.0, |_| 0.4);
            ts.record(&c, EpochSecs::new(i * 10));
        }
        let node = c.node_ids()[1];
        assert_eq!(buffered(&ts, node), 6);
        let report = ts.take_report(node).unwrap();
        assert_eq!(buffered(&ts, node), 0, "take drains the buffer");
        let samples = parse_report(&report).unwrap();
        assert_eq!(samples.len(), 6);
        // Timestamps at the 10 s cadence.
        assert_eq!(samples[0].time, EpochSecs::new(0));
        assert_eq!(samples[5].time, EpochSecs::new(50));
        // Values physical (0.1-rounded by the wire format).
        for s in &samples {
            assert!(s.power > 80.0 && s.power < 500.0);
            assert!(s.cpu_temps[0] > 15.0 && s.cpu_temps[0] < 105.0);
            assert!(s.fans[3] >= 2000.0);
        }
    }

    #[test]
    fn sub_interval_resolution_beats_polling() {
        // A load spike entirely inside one 60 s interval is invisible to
        // per-interval polling but visible in the telemetry report.
        let c = cluster(1);
        let node = c.node_ids()[0];
        let mut ts = TelemetryService::new();
        for i in 0..6 {
            let load = if i == 3 { 1.0 } else { 0.0 };
            // Long dt per substep so power responds fully.
            c.step(10.0, |_| load);
            ts.record(&c, EpochSecs::new(i * 10));
        }
        let samples = parse_report(&ts.take_report(node).unwrap()).unwrap();
        let powers: Vec<f64> = samples.iter().map(|s| s.power).collect();
        let spike = powers.iter().cloned().fold(f64::MIN, f64::max);
        let baseline = powers[0];
        assert!(
            spike > baseline + 150.0,
            "spike {spike:.0} W not visible over baseline {baseline:.0} W: {powers:?}"
        );
    }

    #[test]
    fn ring_buffer_bounds_memory() {
        let c = cluster(1);
        let mut ts = TelemetryService::new();
        for i in 0..SAMPLES_KEPT as i64 + 16 {
            ts.record(&c, EpochSecs::new(i * 10));
        }
        let node = c.node_ids()[0];
        assert_eq!(buffered(&ts, node), SAMPLES_KEPT);
        let samples = parse_report(&ts.take_report(node).unwrap()).unwrap();
        // Oldest samples were overwritten.
        assert_eq!(samples[0].time, EpochSecs::new(160));
    }

    #[test]
    fn sequence_numbers_increase() {
        let c = cluster(2);
        let mut ts = TelemetryService::new();
        ts.record(&c, EpochSecs::new(0));
        let r1 = ts.take_report(c.node_ids()[0]).unwrap();
        let r2 = ts.take_report(c.node_ids()[1]).unwrap();
        assert!(
            r2.get("ReportSequence").unwrap().as_i64().unwrap()
                > r1.get("ReportSequence").unwrap().as_i64().unwrap()
        );
    }

    #[test]
    fn unknown_node_and_garbage_rejected() {
        let mut ts = TelemetryService::new();
        assert!(ts.take_report(NodeId::new(9, 9)).is_err());
        assert!(parse_report(&jobj! { "nope" => 1i64 }).is_err());
    }
}
