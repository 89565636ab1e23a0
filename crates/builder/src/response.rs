//! Response encoding: JSON serialization, optional compression
//! (§IV-B4), and simulated transfer cost.

use crate::exec::BuilderOutcome;
use monster_compress::Level;
use monster_obs::Registry;
use monster_sim::{NetModel, VDuration};

/// An encoded API response ready for the wire.
#[derive(Debug, Clone)]
pub struct EncodedResponse {
    /// The body as it would travel (compressed when requested).
    pub body: Vec<u8>,
    /// Size of the uncompressed JSON serialization.
    pub raw_bytes: usize,
    /// Whether `body` is compressed.
    pub compressed: bool,
    /// Simulated time to push `body` across the consumer's network.
    pub transfer_time: VDuration,
}

impl EncodedResponse {
    /// Bytes that actually cross the wire.
    pub fn wire_bytes(&self) -> usize {
        self.body.len()
    }

    /// Compression ratio (wire / raw); 1.0 when uncompressed.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.body.len() as f64 / self.raw_bytes as f64
        }
    }
}

/// Serialize an outcome's document, optionally compress it, and price the
/// transfer against `net`, counting the response in `obs`.
pub fn encode_response(
    outcome: &BuilderOutcome,
    compress: bool,
    level: Level,
    net: &NetModel,
    obs: &Registry,
) -> EncodedResponse {
    let json = outcome.document.to_string_compact();
    let raw_bytes = json.len();
    let body = if compress {
        monster_compress::compress(json.as_bytes(), level)
    } else {
        json.into_bytes()
    };
    let transfer_time = net.transfer_cost(body.len() as u64);
    obs.counter("monster_builder_responses_total").inc();
    obs.counter("monster_builder_response_bytes_total").add(body.len() as u64);
    EncodedResponse { body, raw_bytes, compressed: compress, transfer_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_json::jobj;
    use monster_sim::VDuration;
    use monster_tsdb::QueryCost;

    fn outcome() -> BuilderOutcome {
        let doc = jobj! {
            "10.101.1.1" => jobj! {
                "power" => monster_json::Value::Array(
                    (0..200)
                        .map(|i| jobj! { "time" => i * 300, "value" => 250.0 })
                        .collect(),
                ),
            },
        };
        BuilderOutcome {
            document: doc,
            points_out: 200,
            cost: QueryCost::default(),
            query_time: VDuration::ZERO,
            processing_time: VDuration::ZERO,
        }
    }

    #[test]
    fn compression_shrinks_repetitive_documents() {
        let (out, obs) = (outcome(), Registry::new());
        let plain = encode_response(&out, false, Level::default(), &NetModel::CAMPUS, &obs);
        let packed = encode_response(&out, true, Level::default(), &NetModel::CAMPUS, &obs);
        assert!(!plain.compressed);
        assert!(packed.compressed);
        assert_eq!(plain.raw_bytes, packed.raw_bytes);
        assert!(packed.wire_bytes() < plain.wire_bytes() / 2);
        assert!(packed.ratio() < 0.5);
        assert!(packed.transfer_time < plain.transfer_time);
        // Round-trips back to the same JSON.
        let restored = monster_compress::decompress(&packed.body).unwrap();
        assert_eq!(restored, plain.body);
    }
}
