//! Response encoding: the served text, optionally compressed (§IV-B4),
//! and its simulated transfer cost.

use crate::exec::{run, ExecMode};
use crate::plan::PlannedQuery;
use monster_compress::Level;
use monster_obs::{Counter, Histo, Registry};
use monster_sim::{NetModel, VDuration};
use monster_tsdb::Db;
use monster_util::Result;
use std::sync::Arc;
use std::time::Instant;

/// An encoded API response ready for the wire.
#[derive(Debug, Clone)]
pub struct EncodedResponse {
    /// The body as it would travel (compressed when requested).
    pub body: Vec<u8>,
    /// Simulated time to push `body` across the consumer's network.
    pub transfer_time: VDuration,
}

/// The registry handles a deflate updates, resolved once: the service
/// keeps a set beside its other handles; [`encode_response`] resolves its
/// own from the database's registry.
pub(crate) struct CompressMetrics {
    seconds: Arc<Histo>,
    /// Bytes into and out of the compressor.
    raw: Arc<Counter>,
    wire: Arc<Counter>,
}

impl CompressMetrics {
    pub(crate) fn new(obs: &Registry) -> CompressMetrics {
        let bytes = |kind: &str, help: &str| {
            obs.counter_help(
                &format!("monster_builder_compress_bytes_total{{kind=\"{kind}\"}}"),
                help,
            )
        };
        CompressMetrics {
            seconds: obs.histo_help(
                "monster_builder_compress_seconds",
                "Wall time spent deflating one compress=true /v1/metrics body.",
            ),
            raw: bytes("raw", "JSON bytes handed to the compressor."),
            wire: bytes("wire", "Container bytes the compressor returned."),
        }
    }
}

/// Deflate a `/v1/metrics` body at `level`, timing it and counting its
/// bytes: the one compressor of the service's misses and of
/// [`encode_response`].
pub(crate) fn deflate(json: &[u8], level: Level, metrics: &CompressMetrics) -> Vec<u8> {
    let started = Instant::now();
    let packed = monster_compress::compress(json, level);
    metrics.seconds.observe(started.elapsed().as_secs_f64());
    metrics.raw.add(json.len() as u64);
    metrics.wire.add(packed.len() as u64);
    packed
}

/// Execute `plan` against `db` and encode the reply as a `/v1/metrics`
/// miss does — the served text, deflated when `compress` — priced for a
/// consumer on `net`. No `Value` tree is built.
pub fn encode_response(
    db: &Db,
    plan: &[PlannedQuery],
    mode: ExecMode,
    compress: bool,
    level: Level,
    net: &NetModel,
) -> Result<EncodedResponse> {
    let json = run(db, plan, mode)?.render_into(db, plan).document;
    let body =
        if compress { deflate(&json, level, &CompressMetrics::new(db.registry())) } else { json };
    Ok(EncodedResponse { transfer_time: net.transfer_cost(body.len() as u64), body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, BuilderRequest};
    use monster_collector::SchemaVersion;
    use monster_tsdb::{Aggregation, DataPoint, DbConfig};
    use monster_util::{EpochSecs, NodeId};

    #[test]
    fn compression_shrinks_repetitive_documents_and_is_counted() {
        let db = Db::new_in(DbConfig::default(), &Arc::default());
        let nodes = NodeId::enumerate(1, 4);
        let power = |i: i64| {
            DataPoint::new("Power", EpochSecs::new(i * 60))
                .tag("NodeId", nodes[0].bmc_addr())
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0)
        };
        db.write_batch(&(0..200).map(power).collect::<Vec<_>>()).unwrap();
        let req =
            BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(12_000), 60, Aggregation::Max)
                .unwrap();
        let plan = build_plan(SchemaVersion::Optimized, &nodes, &req);
        let encode = |compress| {
            encode_response(
                &db,
                &plan,
                ExecMode::Sequential,
                compress,
                Level::default(),
                &NetModel::CAMPUS,
            )
            .unwrap()
        };

        let plain = encode(false);
        let packed = encode(true);
        assert!(packed.body.len() < plain.body.len() / 2);
        assert!(packed.transfer_time < plain.transfer_time);
        // Round-trips back to the same JSON, and only the deflate is counted.
        assert_eq!(monster_compress::decompress(&packed.body).unwrap(), plain.body);
        let obs = db.registry();
        assert_eq!(obs.histo("monster_builder_compress_seconds").count(), 1);
        let bytes = |kind: &str| {
            obs.counter_value(&format!("monster_builder_compress_bytes_total{{kind=\"{kind}\"}}"))
        };
        assert_eq!(bytes("raw"), plain.body.len() as u64);
        assert_eq!(bytes("wire"), packed.body.len() as u64);
    }
}
