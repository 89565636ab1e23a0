//! Storage-device cost models for the HDD/SSD experiments.
//!
//! The paper measured 103 MB/s on the original HDD host and 391 MB/s after
//! migrating InfluxDB to SSDs (§IV-B1) and observed a 1.5–2.1× query
//! speedup. The query engine's cost model (`monster_tsdb::cost`) charges
//! every read against one of these models: a fixed per-access latency
//! (seek/IOP cost) plus bytes divided by sequential bandwidth.

/// A storage device's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Human label for reports ("HDD", "SSD").
    pub name: &'static str,
    /// Sequential read bandwidth in bytes/second.
    pub read_bw: f64,
    /// Fixed cost per discrete access (head seek for HDD, IOP overhead for
    /// SSD), in seconds.
    pub access_latency: f64,
}

impl DiskModel {
    /// The paper's HDD storage host: 103 MB/s, ~8 ms average seek.
    pub const HDD: DiskModel = DiskModel { name: "HDD", read_bw: 103.0e6, access_latency: 8.0e-3 };

    /// The paper's SSD storage host: 391 MB/s, ~80 µs access.
    pub const SSD: DiskModel = DiskModel { name: "SSD", read_bw: 391.0e6, access_latency: 80.0e-6 };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidths() {
        assert_eq!(DiskModel::HDD.read_bw, 103.0e6);
        assert_eq!(DiskModel::SSD.read_bw, 391.0e6);
        // "nearly 4x faster than an HDD" (§IV-B1).
        let ratio = DiskModel::SSD.read_bw / DiskModel::HDD.read_bw;
        assert!(ratio > 3.7 && ratio < 3.9);
    }
}
