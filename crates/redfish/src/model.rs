//! Redfish resource payloads.
//!
//! Builds JSON documents shaped like real iDRAC Redfish responses (DMTF
//! Redfish 1.x schemas, trimmed to the members MonSTer reads) and parses
//! them back into [`NodeReading`]s. Keeping both directions here means the
//! collector is tested against the same payload shapes a real BMC would
//! produce.
//!
//! A document is described once. The category's skeleton holds the members
//! no two nodes differ in (ids, units, firmware, the sensors' names);
//! `write_over` writes what does differ — the node's name, its readings,
//! its health — over it. [`payload`] is a fresh skeleton written over. A BMC
//! answering a request builds nothing: each thread keeps one payload a
//! category and [`with_payload`] writes the next node over it and lends it
//! out. Per thread, not per node: four templates a sweep worker, where one
//! a node would keep 1 868 trees resident.

use crate::sensors::{NodeSensors, CPU_TEMP_LABELS, FAN_LABELS, VOLTAGE_RAILS};
use crate::types::{Category, HealthState, NodeReading};
use monster_json::{jobj, Object, Value};
use monster_util::{Error, NodeId, Result};
use std::cell::RefCell;
use std::fmt::{self, Write};

thread_local! {
    static TEMPLATES: RefCell<[Option<Value>; 4]> = RefCell::default();
}

/// Lend `f` the [`payload`] of `category` for `node`, written over this
/// thread's template (built by [`payload`] on first use, and anew for a
/// request answered inside another's `f`).
pub fn with_payload<R>(
    category: Category,
    node: NodeId,
    s: &NodeSensors,
    f: impl FnOnce(&Value) -> R,
) -> R {
    TEMPLATES.with(|templates| match templates.try_borrow_mut() {
        Ok(mut templates) => match &mut templates[category as usize] {
            Some(v) => {
                write_over(category, v, node, s);
                f(v)
            }
            slot => f(slot.insert(payload(category, node, s))),
        },
        Err(_) => f(&payload(category, node, s)),
    })
}

/// Write what differs between two nodes' [`payload`]s over `v`: the one
/// place a reading's path, its rounding and its health string are named.
fn write_over(category: Category, v: &mut Value, node: NodeId, s: &NodeSensors) {
    let name = at(v, "Name");
    match category {
        Category::System => set_str(name, format_args!("System ({})", node.label_display())),
        _ => set_str(name, format_args!("{category} ({node})")),
    }
    match category {
        Category::Thermal => {
            let Value::Array(temps) = at(v, "Temperatures") else { unreachable!() };
            let (inlet, cpus) = temps.split_last_mut().expect("an inlet entry");
            *at(inlet, "ReadingCelsius") = Value::Float(round1(s.inlet));
            for (t, &reading) in cpus.iter_mut().zip(&s.cpu_temps) {
                *at(t, "ReadingCelsius") = Value::Float(round1(reading));
                set_health(t, s.host_health);
            }
            let Value::Array(fans) = at(v, "Fans") else { unreachable!() };
            for (fan, &reading) in fans.iter_mut().zip(&s.fans) {
                *at(fan, "Reading") = Value::Float(round1(reading));
            }
        }
        Category::Power => {
            *at(v, "PowerControl/0/PowerConsumedWatts") = Value::Float(round1(s.power))
        }
        Category::Manager => set_health(v, s.bmc_health),
        Category::System => set_health(v, s.host_health),
    }
}

/// [`Value::pointer`], mutable, into a template: the path is there.
fn at<'v>(v: &'v mut Value, path: &str) -> &'v mut Value {
    path.split('/').fold(v, |v, seg| {
        match v {
            Value::Object(o) => o.get_mut(seg),
            Value::Array(a) => seg.parse().ok().and_then(|i: usize| a.get_mut(i)),
            _ => None,
        }
        .expect("a template member")
    })
}

fn set_str(v: &mut Value, text: fmt::Arguments<'_>) {
    let Value::Str(s) = v else { unreachable!("a template string") };
    s.clear();
    s.write_fmt(text).expect("a String takes any text");
}

fn set_health(v: &mut Value, health: HealthState) {
    set_str(at(v, "Status/Health"), format_args!("{}", health.as_str()));
}

/// Build the JSON payload for one category from a node's sensor state.
pub fn payload(category: Category, node: NodeId, s: &NodeSensors) -> Value {
    let mut v = match category {
        Category::Thermal => thermal(),
        Category::Power => power(),
        Category::Manager => manager(),
        Category::System => system(),
    };
    write_over(category, &mut v, node, s);
    v
}

/// A `Status` member; `write_over` sets `Health` where it follows a node.
fn status() -> Value {
    jobj! { "State" => "Enabled", "Health" => HealthState::Ok.as_str() }
}

fn thermal() -> Value {
    let temp =
        |name: String| jobj! { "Name" => name, "ReadingCelsius" => 0.0, "Status" => status() };
    let mut temps: Vec<Value> = CPU_TEMP_LABELS.iter().map(|&name| temp(name.into())).collect();
    temps.push(temp("System Board Inlet Temp".into()));
    let fans: Vec<Value> = FAN_LABELS
        .iter()
        .map(|&name| {
            jobj! {
                "Name" => name,
                "Reading" => 0.0,
                "ReadingUnits" => "RPM",
                "Status" => status(),
            }
        })
        .collect();
    jobj! {
        "@odata.id" => "/redfish/v1/Chassis/System.Embedded.1/Thermal",
        "Id" => "Thermal",
        "Name" => "",
        "Temperatures" => Value::Array(temps),
        "Fans" => Value::Array(fans),
    }
}

fn power() -> Value {
    let voltages: Vec<Value> = VOLTAGE_RAILS
        .iter()
        .map(|v| {
            jobj! {
                "Name" => format!("PS Voltage {v}V"),
                "ReadingVolts" => round2(*v),
                "Status" => status(),
            }
        })
        .collect();
    jobj! {
        "@odata.id" => "/redfish/v1/Chassis/System.Embedded.1/Power",
        "Id" => "Power",
        "Name" => "",
        "PowerControl" => Value::Array(vec![jobj! {
            "Name" => "System Power Control",
            "PowerConsumedWatts" => 0.0,
        }]),
        "Voltages" => Value::Array(voltages),
    }
}

fn manager() -> Value {
    jobj! {
        "@odata.id" => "/redfish/v1/Managers/iDRAC.Embedded.1",
        "Id" => "iDRAC.Embedded.1",
        "Name" => "",
        "ManagerType" => "BMC",
        "Model" => "13G DCS",
        "FirmwareVersion" => "2.63.60.61",
        "Status" => status(),
    }
}

fn system() -> Value {
    jobj! {
        "@odata.id" => "/redfish/v1/Systems/System.Embedded.1",
        "Id" => "System.Embedded.1",
        "Name" => "",
        "Model" => "PowerEdge C6320",
        "Status" => status(),
        "ProcessorSummary" => jobj! { "Count" => 2i64, "LogicalProcessorCount" => 36i64 },
    }
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Parse a category payload back into a [`NodeReading`].
pub fn parse_reading(category: Category, v: &Value) -> Result<NodeReading> {
    let bad = |what: &str| Error::parse(format!("redfish {category} payload missing {what}"));
    match category {
        Category::Thermal => {
            let temps = v
                .get("Temperatures")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("Temperatures"))?;
            let mut cpu_temps = Vec::new();
            let mut inlet = None;
            for t in temps {
                let name = t.get("Name").and_then(Value::as_str).unwrap_or("");
                let reading = t
                    .get("ReadingCelsius")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("ReadingCelsius"))?;
                if name.starts_with("CPU") {
                    cpu_temps.push(reading);
                } else if name.contains("Inlet") {
                    inlet = Some(reading);
                }
            }
            let fans = v
                .get("Fans")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("Fans"))?
                .iter()
                .map(|f| f.get("Reading").and_then(Value::as_f64).ok_or_else(|| bad("Fan Reading")))
                .collect::<Result<Vec<f64>>>()?;
            Ok(NodeReading::Thermal {
                cpu_temps,
                inlet: inlet.ok_or_else(|| bad("Inlet Temp"))?,
                fans,
            })
        }
        Category::Power => {
            let usage = v
                .pointer("PowerControl/0/PowerConsumedWatts")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("PowerConsumedWatts"))?;
            let voltages = v
                .get("Voltages")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("Voltages"))?
                .iter()
                .map(|x| {
                    x.get("ReadingVolts").and_then(Value::as_f64).ok_or_else(|| bad("ReadingVolts"))
                })
                .collect::<Result<Vec<f64>>>()?;
            Ok(NodeReading::Power { usage_watts: usage, voltages })
        }
        Category::Manager => Ok(NodeReading::Manager { health: parse_health(v)? }),
        Category::System => Ok(NodeReading::System { health: parse_health(v)? }),
    }
}

fn parse_health(v: &Value) -> Result<HealthState> {
    v.pointer("Status/Health")
        .and_then(Value::as_str)
        .and_then(HealthState::parse)
        .ok_or_else(|| Error::parse("redfish payload missing Status/Health"))
}

/// An `Object` helper exported for gateway error bodies.
pub fn redfish_error(message: &str) -> Value {
    let mut o = Object::new();
    o.insert("error", jobj! { "message" => message });
    Value::Object(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_sim::SimRng;

    fn sample() -> NodeSensors {
        let mut rng = SimRng::derive(1, "model-test");
        let mut s = NodeSensors::new(&mut rng);
        for _ in 0..20 {
            s.step(0.6, 60.0, &mut rng);
        }
        s
    }

    #[test]
    fn thermal_payload_round_trips() {
        let s = sample();
        let v = payload(Category::Thermal, NodeId::new(1, 1), &s);
        match parse_reading(Category::Thermal, &v).unwrap() {
            NodeReading::Thermal { cpu_temps, inlet, fans } => {
                assert_eq!(cpu_temps.len(), 2);
                assert_eq!(fans.len(), 4);
                assert!((inlet - s.inlet).abs() < 0.06); // 0.1 rounding
                assert!((cpu_temps[0] - s.cpu_temps[0]).abs() < 0.06);
            }
            other => panic!("wrong reading {other:?}"),
        }
    }

    #[test]
    fn power_payload_round_trips() {
        let s = sample();
        let v = payload(Category::Power, NodeId::new(2, 3), &s);
        match parse_reading(Category::Power, &v).unwrap() {
            NodeReading::Power { usage_watts, voltages } => {
                assert!((usage_watts - s.power).abs() < 0.06);
                assert_eq!(voltages, vec![12.0, 5.0, 3.3]);
            }
            other => panic!("wrong reading {other:?}"),
        }
    }

    #[test]
    fn health_payloads_expose_paper_firmware() {
        let s = sample();
        let v = payload(Category::Manager, NodeId::new(1, 1), &s);
        // The firmware version quoted in §III-B1.
        assert_eq!(v.get("FirmwareVersion").unwrap().as_str(), Some("2.63.60.61"));
        assert_eq!(v.get("Model").unwrap().as_str(), Some("13G DCS"));
        assert!(matches!(
            parse_reading(Category::Manager, &v).unwrap(),
            NodeReading::Manager { .. }
        ));
        let v = payload(Category::System, NodeId::new(1, 1), &s);
        // 36 logical processors per node (Quanah's spec).
        assert_eq!(v.pointer("ProcessorSummary/LogicalProcessorCount").unwrap().as_i64(), Some(36));
    }

    #[test]
    fn parse_rejects_malformed_payloads() {
        let junk = jobj! { "nothing" => true };
        for c in Category::ALL {
            assert!(parse_reading(c, &junk).is_err(), "category {c}");
        }
    }

    #[test]
    fn payloads_serialize_to_realistic_sizes() {
        // Sanity: a thermal payload is O(1 KB), like a real trimmed
        // Redfish response.
        let s = sample();
        let v = payload(Category::Thermal, NodeId::new(1, 1), &s);
        let len = v.to_string_compact().len();
        assert!((300..4096).contains(&len), "payload {len} bytes");
    }
}
