//! Network cost model: RTT plus bandwidth-limited transfer.
//!
//! All three MonSTer service hosts sit on 1 Gbit/s Ethernet (Table III);
//! the management network the BMC traffic crosses is the same class. The
//! transmission-time experiments (Figs. 17 & 19) use this model.

use crate::vtime::VDuration;

/// A point-to-point network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Human label for reports.
    pub name: &'static str,
    /// Usable bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Round-trip time in seconds.
    pub rtt: f64,
}

impl NetModel {
    /// 1 Gbit/s Ethernet with a LAN RTT, derated to ~70% achievable
    /// throughput for HTTP/TCP framing overhead (a conservative, standard
    /// derating for single-stream TCP on GigE).
    pub const GIGABIT_LAN: NetModel =
        NetModel { name: "1GbE LAN", bandwidth: 1.0e9 / 8.0 * 0.70, rtt: 200.0e-6 };

    /// A consumer invoking the Metrics Builder API from a campus network
    /// (the remote-analysis case of §IV-B4): ~200 Mbit/s effective, higher
    /// RTT. On this path transmission dominates query time for long ranges,
    /// which is what motivates response compression.
    pub const CAMPUS: NetModel = NetModel { name: "campus", bandwidth: 200.0e6 / 8.0, rtt: 4.0e-3 };

    /// Time to move `bytes` across the path once (one RTT of setup plus
    /// bandwidth-limited transfer).
    pub fn transfer_cost(&self, bytes: u64) -> VDuration {
        VDuration::from_secs_f64(self.rtt + bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_size() {
        let small = NetModel::GIGABIT_LAN.transfer_cost(1 << 10);
        let big = NetModel::GIGABIT_LAN.transfer_cost(100 << 20);
        assert!(big > small);
        // 100 MiB at ~87.5 MB/s effective ≈ 1.2 s.
        assert!(big.as_secs_f64() > 1.0 && big.as_secs_f64() < 1.5);
    }

    #[test]
    fn rtt_floors_small_transfers() {
        let c = NetModel::CAMPUS.transfer_cost(1);
        assert!(c.as_secs_f64() >= 4.0e-3);
    }

    #[test]
    fn monitoring_traffic_is_negligible_on_gige() {
        // The paper's point: ~300 KB/s vs ~87 MB/s effective GigE.
        let fraction = 300.0 * 1024.0 / NetModel::GIGABIT_LAN.bandwidth;
        assert!(fraction < 0.005);
    }
}
