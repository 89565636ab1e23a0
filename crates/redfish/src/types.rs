//! Shared Redfish types: categories, health states, parsed readings.

use monster_util::NodeId;
use std::fmt;

/// The four telemetry categories the current iDRAC firmware exposes
/// (§III-B1, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// `/redfish/v1/Chassis/System.Embedded.1/Thermal/` — CPU temps, inlet
    /// temp, fan speeds.
    Thermal,
    /// `/redfish/v1/Chassis/System.Embedded.1/Power/` — power usage,
    /// voltages.
    Power,
    /// `/redfish/v1/Managers/iDRAC.Embedded.1` — BMC health.
    Manager,
    /// `/redfish/v1/Systems/System.Embedded.1` — host system health.
    System,
}

impl Category {
    /// All categories, in the order the collector polls them.
    pub const ALL: [Category; 4] =
        [Category::Thermal, Category::Power, Category::Manager, Category::System];

    /// The resource path under `/redfish/v1/`.
    pub fn path(&self) -> &'static str {
        match self {
            Category::Thermal => "Chassis/System.Embedded.1/Thermal/",
            Category::Power => "Chassis/System.Embedded.1/Power/",
            Category::Manager => "Managers/iDRAC.Embedded.1",
            Category::System => "Systems/System.Embedded.1",
        }
    }

    /// The full query URL for a node, as the paper writes them
    /// (`https://10.101.1.1/redfish/v1/...`).
    pub fn url(&self, node: NodeId) -> String {
        format!("https://{}/redfish/v1/{}", node.bmc_addr(), self.path())
    }

    /// The category's name, as `Display` writes it.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Thermal => "Thermal",
            Category::Power => "Power",
            Category::Manager => "Manager",
            Category::System => "System",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Redfish health states, plus the binary-integer code MonSTer stores
/// instead of the string (the §III-B3 pre-processing optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Everything nominal.
    Ok,
    /// Degraded but operating.
    Warning,
    /// Failed or about to.
    Critical,
}

impl HealthState {
    /// The Redfish wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Ok => "OK",
            HealthState::Warning => "Warning",
            HealthState::Critical => "Critical",
        }
    }

    /// The compact integer code MonSTer stores (0/1/2).
    pub fn code(&self) -> i64 {
        match self {
            HealthState::Ok => 0,
            HealthState::Warning => 1,
            HealthState::Critical => 2,
        }
    }

    /// Parse the wire string.
    pub fn parse(s: &str) -> Option<HealthState> {
        match s {
            "OK" => Some(HealthState::Ok),
            "Warning" => Some(HealthState::Warning),
            "Critical" => Some(HealthState::Critical),
            _ => None,
        }
    }
}

/// One node's parsed telemetry for one category.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeReading {
    /// Thermal: CPU temps (°C), inlet temp (°C), fan speeds (RPM).
    Thermal {
        /// Per-socket CPU temperatures.
        cpu_temps: Vec<f64>,
        /// Chassis inlet temperature.
        inlet: f64,
        /// Fan speeds, RPM (Fan 1–4 in Table I).
        fans: Vec<f64>,
    },
    /// Power: node power draw (W) and PSU voltages (V).
    Power {
        /// System power usage.
        usage_watts: f64,
        /// Rail voltages.
        voltages: Vec<f64>,
    },
    /// BMC (iDRAC) health.
    Manager {
        /// BMC health state.
        health: HealthState,
    },
    /// Host system health.
    System {
        /// Host health rollup.
        health: HealthState,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urls_match_paper_format() {
        // The exact URL quoted in §III-B1.
        assert_eq!(
            Category::Thermal.url(NodeId::new(1, 1)),
            "https://10.101.1.1/redfish/v1/Chassis/System.Embedded.1/Thermal/"
        );
    }

    #[test]
    fn four_categories_times_467_nodes_is_1868() {
        // The paper's request-pool size.
        assert_eq!(Category::ALL.len() * 467, 1868);
    }

    #[test]
    fn health_codes_round_trip() {
        for h in [HealthState::Ok, HealthState::Warning, HealthState::Critical] {
            assert_eq!(HealthState::parse(h.as_str()), Some(h));
        }
        assert_eq!(HealthState::Ok.code(), 0);
        assert_eq!(HealthState::Warning.code(), 1);
        assert_eq!(HealthState::Critical.code(), 2);
        assert_eq!(HealthState::parse("Degraded"), None);
    }
}
