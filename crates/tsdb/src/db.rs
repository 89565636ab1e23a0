//! The database: write path, shard management, query execution, stats.
//!
//! # Locking hierarchy (sharded-lock engine)
//!
//! The engine holds three kinds of locks, ordered **shard-map → index →
//! shard**; a thread may only acquire a lock *later* in that order while
//! holding an earlier one, so cycles are impossible:
//!
//! * the **shard map** (`RwLock<BTreeMap<i64, Arc<RwLock<Shard>>>>`) — a
//!   short-critical-section outer lock guarding only the map of shard
//!   handles, never shard data;
//! * the **series index** (`RwLock<SeriesIndex>`) — series and field-name
//!   resolution and the ref cache in front of them; writers resolve every
//!   id *up front* under one read acquisition per batch, plus one write
//!   acquisition when the cache missed a point;
//! * the **per-shard locks** (`RwLock<Shard>`) — actual column data.
//!   Writers never hold two shard locks at once: `write_batch` pre-groups
//!   its points by shard and visits the shards one at a time, so writers
//!   to different time shards append fully in parallel and readers only
//!   contend with writers on the shards they actually scan.
//!
//! Nothing leaves the store: a shard, once in the map, stays there for the
//! life of the database (its one lifecycle is hot → cold,
//! [`Db::tier_cold_shards`]), and a series id, once issued, names its
//! series for good. A handle fetched from the map is therefore never
//! stale, and ids are dense.
//!
//! Write-level statistics (`points`, `encoded_bytes`, …) are maintained
//! incrementally in atomics on the write, seal and tiering paths, making
//! [`Db::stats`] O(1) instead of a walk over every column.

use crate::column::{AggScan, DecodeScratch, ScanItem};
use crate::cost::{CostParams, QueryCost};
use crate::point::DataPoint;
use crate::query::exec::WindowAggregator;
use crate::query::{parse_query, Aggregation, Query, ResultSet, SeriesResult};
use crate::retention::{TierConfig, TierReport, COLD_DISK};
use crate::series::{FieldId, SeriesId, SeriesIndex, SeriesKey};
use crate::shard::Shard;
use crate::snapshot;
use crate::wal_record;
use crate::watermark::{MeasurementMark, WatermarkRegistry};
use monster_sim::DiskModel;
use monster_util::pool;
use monster_util::{EpochSecs, Error, Result};
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Database configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Shard length in seconds (default one day, like InfluxDB's default
    /// shard group duration for short retention policies).
    pub shard_duration: i64,
    /// Storage device model charged for reads (Figs. 12/14 swap this).
    pub disk: DiskModel,
    /// Simulated-cost conversion constants.
    pub cost: CostParams,
    /// Upper bound on the threads one [`Db::query_batch`] — and so one
    /// [`Db::query`] — may scan on, the calling thread included (1 = always
    /// on the calling thread). The batch also never uses more threads than
    /// its caller allows, than the machine has cores, or than it has
    /// queries. Results are byte-identical for every value.
    pub scan_workers: usize,
    /// Aggregation pushdown: when a sealed block is fully contained in one
    /// aggregation window (and the query range), answer it from its
    /// zone-map summary instead of decompressing. Results are bit-identical
    /// either way (the forced-decode path folds the same per-block partial
    /// from decoded points); `false` exists as the benchmark baseline.
    pub pushdown: bool,
    /// Write-ahead-log tuning: group-commit thresholds and segment size.
    /// The WAL itself is enabled by opening the database against a
    /// directory via [`Db::recover`]; [`Db::new`] stays memory-only and
    /// these knobs are inert.
    pub wal: crate::wal::WalTuning,
    /// Age-based storage tiering (`None` = single-tier, the historical
    /// behavior): shards older than [`TierConfig::hot_secs`] are compacted
    /// into immutable segment files and their scans priced by the archive
    /// device `retention::COLD_DISK` instead of [`DbConfig::disk`]. See
    /// [`Db::tier_cold_shards`].
    pub tiering: Option<TierConfig>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            shard_duration: 86_400,
            disk: DiskModel::HDD,
            cost: CostParams::default(),
            scan_workers: 4,
            pushdown: true,
            wal: crate::wal::WalTuning::default(),
            tiering: None,
        }
    }
}

/// Database statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Points currently stored (one per field value; nothing removes
    /// them).
    pub points: usize,
    /// Raw line-protocol bytes as received.
    pub wire_bytes: usize,
    /// Encoded at-rest bytes.
    pub encoded_bytes: usize,
    /// Series cardinality.
    pub cardinality: usize,
    /// Number of measurements.
    pub measurements: usize,
    /// Number of shards.
    pub shards: usize,
    /// Write batches accepted.
    pub batches: usize,
}

type QueryResult = Result<(ResultSet, QueryCost)>;

/// Registry handles the write path updates, resolved once per [`Db`].
struct WriteMetrics {
    points: Arc<monster_obs::Counter>,
    batches: Arc<monster_obs::Counter>,
    batch_points: Arc<monster_obs::Histo>,
    series: Arc<monster_obs::Gauge>,
    shards: Arc<monster_obs::Gauge>,
    /// Points the ref cache missed: each took the index's own lookups.
    ref_misses: Arc<monster_obs::Counter>,
    /// Entries in the ref cache.
    refs: Arc<monster_obs::Gauge>,
}

/// Registry handles the read path updates, resolved once per [`Db`].
struct QueryMetrics {
    queries: Arc<monster_obs::Counter>,
    points: Arc<monster_obs::Counter>,
    blocks_decoded: Arc<monster_obs::Counter>,
    blocks_summarized: Arc<monster_obs::Counter>,
    seconds: Arc<monster_obs::Histo>,
}

/// A batch of queries resolved against the index and the shard map.
struct BatchPlan<'q> {
    /// The valid queries, in input order.
    queries: Vec<Planned<'q>>,
    /// Every query's selected series, back to back.
    series: Vec<SeriesId>,
    /// Their keys, parallel to `series`: what an answer is labelled with.
    keys: Vec<Arc<SeriesKey>>,
    /// The shards any query overlaps, in time order, each with whether it
    /// is on the cold tier.
    shards: Vec<(i64, Arc<RwLock<Shard>>, bool)>,
}

/// One query of a [`BatchPlan`].
struct Planned<'q> {
    /// Position in the batch.
    at: usize,
    query: &'q Query,
    /// `None` when the field was never written: its items scan nothing.
    fid: Option<FieldId>,
    agg: Option<AggScan>,
    index_entries: usize,
    /// Selected series, a range of [`BatchPlan::series`].
    series: Range<usize>,
    /// Overlapping shards, a range of [`BatchPlan::shards`].
    shards: Range<usize>,
}

/// A batch of queries [`Db::prepare`] has resolved: the *Plan* step of a
/// request, done once for both its price ([`Prepared::estimate`]) and its
/// scan ([`Db::answer`]).
pub struct Prepared<'q> {
    /// One slot a query: the refusal of an invalid one, `None` otherwise.
    results: Vec<Option<QueryResult>>,
    plan: BatchPlan<'q>,
    /// What the estimate prorates, read with the plan.
    duration: i64,
    shard_count: usize,
    points: usize,
    bytes: usize,
}

impl Prepared<'_> {
    /// The batch's physical cost, summed over its queries, *without
    /// scanning anything*: the input to cost-based admission. Cardinality
    /// and series selection are exact (the plan's); points and bytes
    /// prorate the stored totals by the selected-series fraction and by
    /// how much of each overlapping shard the range covers. Deterministic,
    /// monotone in range width and series count, and conservative rather
    /// than precise. A refused query costs its count alone.
    pub fn estimate(&self) -> QueryCost {
        let refused = self.results.len() - self.plan.queries.len();
        let mut total = QueryCost { queries: refused, ..QueryCost::default() };
        for p in &self.plan.queries {
            total.absorb(&self.price(p));
        }
        total
    }

    /// One planned query's share of [`Prepared::estimate`].
    fn price(&self, p: &Planned<'_>) -> QueryCost {
        let (series, overlap) = (p.series.len(), p.shards.len());
        let cost = QueryCost {
            queries: 1,
            index_entries: p.index_entries,
            series,
            shards_scanned: overlap,
            ..QueryCost::default()
        };
        if series == 0 || overlap == 0 {
            return cost;
        }
        let (qs, qe, duration) = (p.query.start.as_secs(), p.query.end.as_secs(), self.duration);
        let frac = |start: i64| (qe.min(start + duration) - qs.max(start)) as f64 / duration as f64;
        let shards = &self.plan.shards[p.shards.clone()];
        let covered: f64 = shards.iter().map(|&(start, ..)| frac(start)).sum();
        let cold = shards.iter().filter(|&&(.., cold)| cold).map(|&(start, ..)| start);
        let (covered_cold, cold) = cold.fold((0.0, 0), |(f, n), start| (f + frac(start), n + 1));
        let series_frac = series as f64 / p.index_entries.max(1) as f64;
        let share = |total: usize, covered: f64| {
            (total as f64 * series_frac * (covered / self.shard_count.max(1) as f64)).ceil()
                as usize
        };
        let (points, points_cold) = (share(self.points, covered), share(self.points, covered_cold));
        QueryCost {
            points,
            // One partial block per (series, shard) plus the sealed interior.
            blocks: points / crate::column::BLOCK_SIZE + series * overlap,
            bytes: share(self.bytes, covered),
            blocks_cold: points_cold / crate::column::BLOCK_SIZE + series * cold,
            bytes_cold: share(self.bytes, covered_cold),
            ..cost
        }
    }
}

/// A lock guard from [`Db::timed`]: dropping it releases the lock, then
/// records the wait and the hold in the lock histograms.
struct Timed<'d, G> {
    /// `Some` until the drop takes it.
    guard: Option<G>,
    db: &'d Db,
    wait: Instant,
    acquired: Instant,
}

impl<G: Deref> Deref for Timed<'_, G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        self.guard.as_ref().expect("held until dropped")
    }
}

impl<G: DerefMut> DerefMut for Timed<'_, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        self.guard.as_mut().expect("held until dropped")
    }
}

impl<G> Drop for Timed<'_, G> {
    fn drop(&mut self) {
        drop(self.guard.take());
        // The wait histogram parks an exemplar pointing at whichever trace
        // was stalled, so a lock-contention spike links to the sweep or
        // query that suffered it.
        let wait = self.acquired.duration_since(self.wait).as_secs_f64();
        self.db.lock_wait.observe_traced(wait, monster_obs::trace::current());
        self.db.lock_hold.observe(self.acquired.elapsed().as_secs_f64());
    }
}

/// One point of a batch after id resolution — what [`Db::apply`] appends.
/// [`Db::write_batch`] makes them from `DataPoint`s, recovery from decoded
/// WAL records.
pub(crate) struct Resolved<'a, F> {
    pub series: SeriesId,
    pub measurement: &'a str,
    pub ts: i64,
    /// The point's line-protocol size ([`DataPoint::wire_size`]).
    pub wire: usize,
    /// Its fields, in point order.
    pub fields: F,
}

/// What one [`Db::apply`] did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Applied {
    /// Points taken (not skipped).
    pub points: usize,
    /// Points skipped because their shard is covered by a segment file.
    pub skipped: usize,
}

/// An embedded time-series database. Cloneable across threads via `Arc`;
/// all methods take `&self` (interior locking, sharded as described in the
/// module docs).
pub struct Db {
    config: DbConfig,
    /// Series/field-name resolution. Lock order: after the shard map,
    /// before any shard.
    index: RwLock<SeriesIndex>,
    /// Outer shard map: `shard start → shard handle`. Critical sections on
    /// this lock only clone/insert `Arc`s — never touch shard data.
    shards: RwLock<BTreeMap<i64, Arc<RwLock<Shard>>>>,
    /// Incremental statistics (kept exact by the write, seal and tiering
    /// paths; see [`Db::recompute_stats`] for the walking cross-check).
    points: AtomicUsize,
    wire_bytes: AtomicUsize,
    encoded_bytes: AtomicI64,
    batches: AtomicUsize,
    /// Per-measurement ingest watermarks (see [`crate::watermark`]);
    /// updated after each batch applies, read by cache-validity checks.
    watermarks: WatermarkRegistry,
    /// Pre-resolved lock instrumentation handles (`monster_tsdb_lock_*`),
    /// updated lock-free outside critical sections.
    lock_wait: Arc<monster_obs::Histo>,
    lock_hold: Arc<monster_obs::Histo>,
    /// Pre-resolved write-path handles (`monster_tsdb_points_written_total`,
    /// `…_write_batch*`, `…_series*`, `…_shards`); each shard keeps its own
    /// points gauge.
    write_metrics: WriteMetrics,
    /// Pre-resolved read-path handles (`monster_tsdb_quer*`, `…_blocks_*`).
    query_metrics: QueryMetrics,
    /// The registry this database reports to, and that a service over it
    /// exports.
    obs: Arc<monster_obs::Registry>,
    /// Write-ahead log, present when the database was opened against a
    /// directory ([`Db::recover`]). Appended *before* batches publish;
    /// its mutex is independent of the engine's lock hierarchy (taken
    /// while holding no engine lock).
    wal: Option<crate::wal::Wal>,
}

impl Db {
    /// [`Db::new_in`] the process default registry.
    // Goes with ROADMAP item 8(ii): the benchmark harness calls it.
    pub fn new(config: DbConfig) -> Db {
        Db::new_in(config, monster_obs::global())
    }

    /// Create an empty database reporting to `obs`.
    pub fn new_in(config: DbConfig, obs: &Arc<monster_obs::Registry>) -> Db {
        assert!(config.shard_duration > 0);
        assert!(config.scan_workers > 0, "scan_workers must be at least 1");
        Db {
            config,
            index: RwLock::new(SeriesIndex::new()),
            shards: RwLock::new(BTreeMap::new()),
            points: AtomicUsize::new(0),
            wire_bytes: AtomicUsize::new(0),
            encoded_bytes: AtomicI64::new(0),
            batches: AtomicUsize::new(0),
            watermarks: WatermarkRegistry::default(),
            lock_wait: obs.histo("monster_tsdb_lock_wait_seconds"),
            lock_hold: obs.histo("monster_tsdb_lock_hold_seconds"),
            write_metrics: WriteMetrics {
                points: obs.counter("monster_tsdb_points_written_total"),
                batches: obs.counter("monster_tsdb_write_batches_total"),
                batch_points: obs.histo("monster_tsdb_write_batch_points"),
                series: obs.gauge("monster_tsdb_series"),
                shards: obs.gauge("monster_tsdb_shards"),
                ref_misses: obs.counter("monster_tsdb_series_ref_misses_total"),
                refs: obs.gauge("monster_tsdb_series_refs"),
            },
            query_metrics: QueryMetrics {
                queries: obs.counter("monster_tsdb_queries_total"),
                points: obs.counter("monster_tsdb_query_points_total"),
                blocks_decoded: obs.counter("monster_tsdb_blocks_decoded_total"),
                blocks_summarized: obs.counter("monster_tsdb_blocks_summarized_total"),
                seconds: obs.histo("monster_tsdb_query_seconds"),
            },
            obs: Arc::clone(obs),
            wal: None,
        }
    }

    /// Attach the write-ahead log after recovery replay (replay must not
    /// re-log the records it is applying).
    pub(crate) fn set_wal(&mut self, wal: crate::wal::Wal) {
        self.wal = Some(wal);
    }

    /// Appender state of the write-ahead log, if one is attached.
    pub fn wal_status(&self) -> Option<crate::wal::WalStatus> {
        self.wal.as_ref().map(crate::wal::Wal::status)
    }

    /// Force a WAL group commit: every accepted batch is durable when this
    /// returns. No-op without a WAL.
    pub fn wal_sync(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The registry this database reports to.
    pub fn registry(&self) -> &Arc<monster_obs::Registry> {
        &self.obs
    }

    /// Take a lock with `lock` and time it: the guard releases the lock
    /// when dropped and then records how long we queued for it and how
    /// long we held it (`monster_tsdb_lock_*`), outside the critical
    /// section — on every path out of the caller, early returns included.
    fn timed<G>(&self, lock: impl FnOnce() -> G) -> Timed<'_, G> {
        let wait = Instant::now();
        let guard = Some(lock());
        Timed { guard, db: self, wait, acquired: Instant::now() }
    }

    /// Fetch the shard covering `start`, creating it if needed. Only the
    /// shard-map lock is touched; the returned handle is locked by the
    /// caller.
    pub(crate) fn shard_for(&self, start: i64) -> Arc<RwLock<Shard>> {
        if let Some(s) = self.timed(|| self.shards.read()).get(&start) {
            return Arc::clone(s);
        }
        let mut map = self.timed(|| self.shards.write());
        let duration = self.config.shard_duration;
        let shard = map
            .entry(start)
            .or_insert_with(|| Arc::new(RwLock::new(Shard::new(start, start + duration))));
        Arc::clone(shard)
    }

    /// Snapshot the current shard handles in time order (short shard-map
    /// read; no shard data touched).
    pub(crate) fn shard_handles(&self) -> Vec<Arc<RwLock<Shard>>> {
        self.timed(|| self.shards.read()).values().cloned().collect()
    }

    /// Write one point.
    pub fn write(&self, point: DataPoint) -> Result<()> {
        self.write_batch(&[point])
    }

    /// Write a batch of points atomically per shard with respect to
    /// readers.
    ///
    /// The paper's collector batches ~10 000 points per interval because
    /// that is "the ideal batch size for InfluxDB" (§III-C); here batching
    /// amortizes id resolution (one index acquisition) and shard lookup
    /// (one shard-lock acquisition per distinct shard). The order is
    /// validate → resolve ids → log → apply: all series/field ids are
    /// resolved up front (from the ref cache for an identity seen before),
    /// the write-ahead log records the resolved batch,
    /// and the apply step pre-groups it by shard *before* any shard lock is
    /// taken, so the per-point critical section is a pure `(u32, u32)`-keyed
    /// append — no string hashing, no allocation, and never more than one
    /// shard lock held at a time.
    pub fn write_batch(&self, points: &[DataPoint]) -> Result<()> {
        self.validate_points(points)?;
        let total_fields: usize = points.iter().map(|p| p.fields.len()).sum();
        let mut sids: Vec<SeriesId> = Vec::with_capacity(points.len());
        let mut fids: Vec<FieldId> = Vec::with_capacity(total_fields);
        let mut fixed: Vec<usize> = Vec::with_capacity(points.len());
        self.resolve_ids(points, &mut sids, &mut fids, &mut fixed);

        // --- write-ahead: log the batch before any of it becomes visible --
        // A refusal or an I/O failure rejects the batch wholesale: nothing
        // applied, so nothing unlogged is readable (series it named for
        // the first time stay registered, and empty).
        if let Some(wal) = &self.wal {
            wal.append_batch(points, &sids, &fids)?;
        }

        let resolved = wal_record::batch_points(points, &sids, &fids).zip(points).zip(fixed).map(
            |((p, point), fixed)| Resolved {
                series: p.series,
                measurement: p.measurement,
                ts: p.ts,
                wire: fixed + point.values_wire_size(),
                fields: p.fields.map(|(id, _, value)| (id, value)),
            },
        );
        self.apply(resolved, total_fields, &[]).0
    }

    /// Append a resolved batch: the step [`Db::write_batch`] ends with and
    /// WAL replay ([`Db::recover`]) re-runs record by record, so a replayed
    /// database cannot differ from one that never stopped — shard grouping,
    /// per-span appends, statistics, watermarks and metrics are this code
    /// both times. Points whose shard starts at one of `covered` (sorted;
    /// the shards recovery already loaded from segment files) are skipped
    /// and counted. `fields_hint` sizes the grouping buffer.
    ///
    /// A failed append (a field-type conflict) stops the batch there: the
    /// error comes back with the prefix that landed still applied.
    pub(crate) fn apply<'a, F>(
        &self,
        points: impl Iterator<Item = Resolved<'a, F>>,
        fields_hint: usize,
        covered: &[i64],
    ) -> (Result<()>, Applied)
    where
        F: Iterator<Item = (FieldId, &'a crate::FieldValue)>,
    {
        // --- pre-group by shard (no locks held) --------------------------
        let duration = self.config.shard_duration;
        let mut groups: BTreeMap<i64, Vec<(SeriesId, FieldId, i64, &crate::FieldValue)>> =
            BTreeMap::new();
        // Per-measurement [min, max] timestamp spans for the watermark
        // registry; batches touch a handful of measurements, so a linear
        // scan beats a map.
        let mut spans: Vec<(&str, i64, i64)> = Vec::new();
        let mut counts = Applied::default();
        let mut wire = 0usize;
        for p in points {
            let shard_start = p.ts.div_euclid(duration) * duration;
            if covered.binary_search(&shard_start).is_ok() {
                counts.skipped += 1;
                continue;
            }
            counts.points += 1;
            wire += p.wire;
            match spans.iter_mut().find(|(m, _, _)| *m == p.measurement) {
                Some((_, lo, hi)) => {
                    *lo = (*lo).min(p.ts);
                    *hi = (*hi).max(p.ts);
                }
                None => spans.push((p.measurement, p.ts, p.ts)),
            }
            // Capacity for the whole batch in the first group: nearly every
            // batch lands in one shard (collector intervals share a
            // timestamp), and the map is batch-lived, so over-reserving
            // beats reallocating. Further groups grow as they fill — a batch
            // spread over many shards must not reserve itself once a shard.
            let reserve = if groups.is_empty() { fields_hint } else { 0 };
            let group = groups.entry(shard_start).or_insert_with(|| Vec::with_capacity(reserve));
            group.extend(p.fields.map(|(fid, value)| (p.series, fid, p.ts, value)));
        }

        // --- apply, one shard lock at a time -----------------------------
        let mut applied = 0usize;
        let mut encoded_delta = 0i64;
        let mut shard_gauges = Vec::with_capacity(groups.len());
        let mut result: Result<()> = Ok(());
        for (start, group) in &groups {
            let shard_arc = self.shard_for(*start);
            let mut shard = self.timed(|| shard_arc.write());
            let bytes_before = shard.encoded_bytes();
            // Walk maximal consecutive same-(series, field) spans: one
            // column lookup per span instead of per point, in exactly the
            // original batch order.
            let mut i = 0usize;
            while i < group.len() {
                let (sid, fid, _, _) = group[i];
                let mut j = i + 1;
                while j < group.len() && group[j].0 == sid && group[j].1 == fid {
                    j += 1;
                }
                if let Err(e) = shard.append_span(sid, fid, &group[i..j], &mut applied) {
                    result = Err(e);
                    break;
                }
                i = j;
            }
            encoded_delta += shard.encoded_bytes() as i64 - bytes_before as i64;
            shard_gauges.push((shard.points_gauge(&self.obs), shard.point_count() as i64));
            drop(shard);
            if result.is_err() {
                break;
            }
        }

        // --- incremental statistics & self-monitoring --------------------
        self.batches.fetch_add(1, Ordering::Relaxed);
        if result.is_ok() {
            self.wire_bytes.fetch_add(wire, Ordering::Relaxed);
        }
        self.points.fetch_add(applied, Ordering::Relaxed);
        self.encoded_bytes.fetch_add(encoded_delta, Ordering::Relaxed);
        let metrics = &self.write_metrics;
        metrics.points.add(applied as u64);
        // Watermarks advance only after shard data is visible to readers
        // (a concurrent cache-validity snapshot may go spuriously stale,
        // never stale-but-valid). A failed batch may still have applied a
        // prefix, so note the spans unconditionally — over-invalidation is
        // safe.
        self.watermarks.note_spans(&spans);

        metrics.batches.inc();
        metrics.batch_points.observe(counts.points as f64);
        self.update_topology_gauges();
        for (gauge, count) in &shard_gauges {
            gauge.set(*count);
        }
        (result, counts)
    }

    /// Whether a shard can hold `ts`: the `[start, start + shard_duration)`
    /// around it must be representable.
    pub(crate) fn in_range(&self, ts: i64) -> bool {
        let duration = self.config.shard_duration;
        (i64::MIN + duration..=i64::MAX - duration).contains(&ts)
    }

    /// Reject batches containing field-less points, points that name a
    /// tag key twice (the index takes a key to name one tag of an identity)
    /// or timestamps no shard can hold — whole-batch, before any state
    /// changes.
    fn validate_points(&self, points: &[DataPoint]) -> Result<()> {
        for p in points {
            if !p.is_valid() {
                return Err(Error::invalid(format!(
                    "point for measurement {:?} has no fields",
                    p.measurement
                )));
            }
            let tags = &p.tags;
            let repeated =
                (1..tags.len()).find(|&i| tags[..i].iter().any(|(k, _)| *k == tags[i].0));
            if let Some(i) = repeated {
                return Err(Error::invalid(format!(
                    "point for measurement {:?} names tag key {:?} twice",
                    p.measurement, tags[i].0
                )));
            }
            if !self.in_range(p.time.as_secs()) {
                return Err(Error::invalid(format!(
                    "timestamp {} is outside the storable range",
                    p.time.as_secs()
                )));
            }
        }
        Ok(())
    }

    /// Resolve every series and field id for `points` into the
    /// caller-provided buffers (cleared first; `fids` gets one entry per
    /// field in point order, `fixed` each point's fixed wire bytes). Under
    /// one index read lock each point is looked up in the ref cache; the
    /// points it missed are then resolved through the index under one
    /// write acquisition, which registers what is new and remembers them.
    fn resolve_ids(
        &self,
        points: &[DataPoint],
        sids: &mut Vec<SeriesId>,
        fids: &mut Vec<FieldId>,
        fixed: &mut Vec<usize>,
    ) {
        // The placeholder of a missed point between the two passes; ids
        // are dense, so it is none the index hands out.
        const MISSED: SeriesId = SeriesId(u32::MAX);
        sids.clear();
        fids.clear();
        fixed.clear();
        let mut misses = 0u64;
        {
            let idx = self.timed(|| self.index.read());
            for p in points {
                let (sid, bytes) = match idx.cached(p, fids) {
                    Some(hit) => hit,
                    None => {
                        misses += 1;
                        fids.resize(fids.len() + p.fields.len(), FieldId(u32::MAX));
                        (MISSED, 0)
                    }
                };
                sids.push(sid);
                fixed.push(bytes);
            }
        }
        if misses == 0 {
            return;
        }
        self.write_metrics.ref_misses.add(misses);
        let mut idx = self.timed(|| self.index.write());
        let mut at = 0;
        for ((p, sid), bytes) in points.iter().zip(sids).zip(fixed) {
            let n = p.fields.len();
            if *sid == MISSED {
                (*sid, *bytes) = idx.resolve(p, &mut fids[at..at + n]);
            }
            at += n;
        }
        let refs = idx.ref_count();
        drop(idx);
        self.write_metrics.refs.set(refs as i64);
    }

    /// Register the series and field names a WAL record defines, as
    /// [`Db::write_batch`] registered them before it logged the record:
    /// their ids, in order.
    pub(crate) fn define(
        &self,
        series: &[SeriesKey],
        fields: &[String],
    ) -> (Vec<SeriesId>, Vec<FieldId>) {
        let mut idx = self.index.write();
        (
            series.iter().map(|key| idx.get_or_create(key)).collect(),
            fields.iter().map(|name| idx.intern_field(name)).collect(),
        )
    }

    /// Current ingest watermark for `measurement` (default mark if never
    /// written). A shared-lock map lookup — cheap enough to call once per
    /// covered measurement on every cache probe.
    pub fn measurement_mark(&self, measurement: &str) -> MeasurementMark {
        self.watermarks.get(measurement)
    }

    /// Every measurement's current ingest watermark, sorted by name.
    /// Recovery must republish these exactly (the builder's response cache
    /// keys on them); tests compare whole tables. Not a hot-path call.
    // kept: the watermark oracle the WAL recovery tests compare with a twin that never stopped
    pub fn measurement_marks(&self) -> Vec<(String, MeasurementMark)> {
        self.watermarks.snapshot()
    }

    /// Refresh the series/shard-count gauges (short index + shard-map
    /// reads; no shard data touched).
    fn update_topology_gauges(&self) {
        let series = self.index.read().cardinality() as i64;
        let shard_count = self.shards.read().len() as i64;
        self.write_metrics.series.set(series);
        self.write_metrics.shards.set(shard_count);
    }

    /// Parse and run a query string.
    pub fn query_str(&self, text: &str) -> Result<(ResultSet, QueryCost)> {
        let q = parse_query(text)?;
        self.query(&q)
    }

    /// Run a query, returning results plus the physical cost incurred: a
    /// one-query [`Db::query_batch`].
    pub fn query(&self, q: &Query) -> Result<(ResultSet, QueryCost)> {
        self.query_batch(std::slice::from_ref(q), usize::MAX).pop().expect("one result per query")
    }

    /// Run a batch of queries — a dashboard request's whole plan — as one
    /// scan: [`Db::answer`] what [`Db::prepare`] resolved.
    pub fn query_batch<Q: Borrow<Query>>(
        &self,
        queries: &[Q],
        workers: usize,
    ) -> Vec<Result<(ResultSet, QueryCost)>> {
        self.answer(self.prepare(queries), workers)
    }

    /// Answer a prepared batch, returning each query's results and physical
    /// cost in input order (an invalid query or a failed scan is an `Err`
    /// in its slot and does not disturb its neighbours).
    ///
    /// This is the engine's single level of read parallelism. The batch is
    /// cut between queries, by count: with `threads = min(workers,
    /// scan_workers, cores, queries)`, chunk `k` holds planned queries
    /// `[k·n/threads, (k+1)·n/threads)`. Chunk 0 runs on the calling thread
    /// and the others on scoped threads. A query is scanned straight into
    /// its answer by exactly one thread, in series-major, shard-time order,
    /// so results and costs are identical for every thread count. A shard's
    /// read lock is held for one query's items in that shard at a time: a
    /// writer waits for one query's column scans and window folds, never
    /// for a batch.
    pub fn answer(
        &self,
        prepared: Prepared<'_>,
        workers: usize,
    ) -> Vec<Result<(ResultSet, QueryCost)>> {
        let threads = self.scan_threads(&prepared, workers);
        self.run_batch(prepared, threads)
    }

    /// The threads [`Db::answer`] scans `prepared` on when allowed
    /// `workers`.
    pub(crate) fn scan_threads(&self, prepared: &Prepared<'_>, workers: usize) -> usize {
        let threads = workers.min(self.config.scan_workers).min(pool::cores());
        threads.min(prepared.plan.queries.len()).max(1)
    }

    /// Answer `prepared` in `threads` chunks of consecutive queries, one
    /// thread each, put every planned query's result in its slot, and
    /// account for the scans.
    fn run_batch(&self, prepared: Prepared<'_>, threads: usize) -> Vec<QueryResult> {
        let Prepared { mut results, plan, .. } = prepared;
        let n = plan.queries.len();
        let chunk = |k: usize| &plan.queries[k * n / threads..(k + 1) * n / threads];
        let answered = pool::scope_parts(threads, |k| self.scan_chunk(&plan, chunk(k)));
        // Accounting on the calling thread, so the exemplars link to the
        // caller's trace context.
        let ctx = monster_obs::trace::current();
        for (k, answered) in answered.into_iter().enumerate().filter(|(_, a)| !a.is_empty()) {
            let mut total = QueryCost::default();
            for (p, answer) in chunk(k).iter().zip(answered) {
                if let Ok((_, cost)) = &answer {
                    self.query_metrics
                        .seconds
                        .observe_vdur_traced(self.simulate_elapsed(cost), ctx);
                    total.absorb(cost);
                }
                results[p.at] = Some(answer);
            }
            // Self-monitoring: what the scans cost, in counts and in
            // simulated seconds (`monster_tsdb_*` on `/metrics`).
            self.query_metrics.queries.add(total.queries as u64);
            self.query_metrics.points.add(total.points as u64);
            self.query_metrics.blocks_decoded.add(total.blocks as u64);
            self.query_metrics.blocks_summarized.add(total.blocks_summarized as u64);
        }
        results.into_iter().map(|r| r.expect("every query is refused or planned")).collect()
    }

    /// Resolve a batch of queries once, for its price and its scan: each
    /// query is validated (a refusal takes its slot); the valid ones'
    /// overlapping shards come from one shard-map snapshot, which also
    /// counts the map, and their series, keys and field ids from one index
    /// read. The stored point and byte totals are read beside them.
    pub fn prepare<'q, Q: Borrow<Query>>(&self, queries: &'q [Q]) -> Prepared<'q> {
        let results: Vec<Option<QueryResult>> =
            queries.iter().map(|q| q.borrow().validate().err().map(Err)).collect();
        let valid = || {
            let all = queries.iter().map(Borrow::borrow).enumerate();
            all.filter(|(at, _)| results[*at].is_none())
        };
        // Shard starts are the map keys and every shard spans
        // `shard_duration`, so overlap is decided without touching a shard.
        let duration = self.config.shard_duration;
        let from = valid().map(|(_, q)| q.start.as_secs()).min().unwrap_or(0);
        let to = valid().map(|(_, q)| q.end.as_secs()).max().unwrap_or(from);
        let map = self.timed(|| self.shards.read());
        let mut shards: Vec<(i64, Arc<RwLock<Shard>>, bool)> = map
            .range(from.saturating_sub(duration - 1)..to)
            .map(|(&start, s)| (start, Arc::clone(s), false))
            .collect();
        let shard_count = map.len();
        drop(map);
        for (_, shard, cold) in &mut shards {
            *cold = shard.read().is_cold();
        }

        let mut plan =
            BatchPlan { queries: Vec::new(), series: Vec::new(), keys: Vec::new(), shards };
        // Planning under the index read lock: the index work scales with
        // total cardinality — the series-cardinality tax the paper's
        // schema redesign attacks.
        let idx = self.timed(|| self.index.read());
        let index_entries = idx.cardinality();
        for (at, q) in valid() {
            let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
            let series_from = plan.series.len();
            idx.select_into(&q.measurement, &q.predicates, &mut plan.series);
            let planned = Planned {
                at,
                query: q,
                fid: idx.field_id(&q.field),
                agg: q.agg.map(|agg| AggScan {
                    start: qs,
                    end: qe,
                    window: q.group_by,
                    countable: agg == Aggregation::Count,
                    decode_all: !self.config.pushdown,
                }),
                index_entries,
                series: series_from..plan.series.len(),
                shards: plan.shards.partition_point(|(start, ..)| start + duration <= qs)
                    ..plan.shards.partition_point(|(start, ..)| *start < qe),
            };
            plan.queries.push(planned);
        }
        plan.keys = plan.series.iter().map(|&id| Arc::clone(idx.key_of(id))).collect();
        Prepared {
            results,
            plan,
            duration,
            shard_count,
            points: self.points.load(Ordering::Relaxed),
            bytes: self.encoded_bytes.load(Ordering::Relaxed).max(0) as usize,
        }
    }

    /// Answer `queries`, in order, with one decode scratch and one window
    /// aggregator between them.
    fn scan_chunk(&self, plan: &BatchPlan<'_>, queries: &[Planned<'_>]) -> Vec<QueryResult> {
        let mut scratch = DecodeScratch::new();
        let mut windows = None;
        queries.iter().map(|p| self.scan_query(plan, p, &mut scratch, &mut windows)).collect()
    }

    /// Answer `p`: scan its (series, shard) items in series-major order,
    /// folding each straight into its series' windows (or raw points) as
    /// it is read; then fill, cut to the LIMIT, label and sort the series
    /// by key. The first failed scan fails the query. A shard's read lock
    /// is held for this query's items in that shard — all of them when one
    /// shard overlaps the range, one at a time otherwise (series-major
    /// order alternates shards) — and never from one query to the next, so
    /// a writer waits for one query's column scans and window folds at
    /// most.
    fn scan_query(
        &self,
        plan: &BatchPlan<'_>,
        p: &Planned<'_>,
        scratch: &mut DecodeScratch,
        windows: &mut Option<WindowAggregator>,
    ) -> QueryResult {
        let q = p.query;
        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
        let mut cost = QueryCost {
            queries: 1,
            index_entries: p.index_entries,
            shards_scanned: p.shards.len(),
            ..QueryCost::default()
        };
        // A field never written has no column to look for: nothing is locked.
        let shards = if p.fid.is_some() { &plan.shards[p.shards.clone()] } else { &[] };
        let held = match shards {
            [(_, one, _)] if !p.series.is_empty() => Some(self.timed(|| one.read())),
            _ => None,
        };
        let mut series = Vec::with_capacity(p.series.len());
        for s in p.series.clone() {
            let mut windows = q.agg.map(|agg| {
                let w = windows.get_or_insert_with(|| WindowAggregator::new(agg, q.group_by, qs));
                w.restart(agg, q.group_by, qs);
                w
            });
            let mut raw = Vec::new();
            let mut scanned = false;
            let mut scan = |shard: &Shard| -> Result<()> {
                let Some(col) = p.fid.and_then(|fid| shard.column(plan.series[s], fid)) else {
                    return Ok(());
                };
                let stats = match (&mut windows, p.agg) {
                    (Some(w), Some(spec)) => col.scan_agg(scratch, spec, |item| match item {
                        ScanItem::Point(t, v) => w.push(t, &v),
                        ScanItem::Partial(block) => w.push_partial(&block),
                    })?,
                    // Raw selects never carry an AggScan spec.
                    _ => col.scan_with(scratch, qs, qe, |t, v| raw.push((EpochSecs::new(t), v)))?,
                };
                scanned |= stats.points > 0 || stats.blocks_summarized > 0;
                cost.blocks += stats.blocks;
                cost.blocks_summarized += stats.blocks_summarized;
                cost.points += stats.points;
                cost.bytes += stats.bytes;
                if shard.is_cold() {
                    cost.blocks_cold += stats.blocks;
                    cost.bytes_cold += stats.bytes;
                }
                Ok(())
            };
            match &held {
                Some(shard) => scan(shard)?,
                None => {
                    for (_, shard, _) in shards {
                        scan(&self.timed(|| shard.read()))?;
                    }
                }
            }
            cost.series += usize::from(scanned);
            let mut points = match windows {
                Some(w) => w.finish_filled(q.fill, qs, qe),
                None => {
                    raw.sort_by_key(|(t, _)| *t);
                    raw
                }
            };
            if let Some(limit) = q.limit {
                points.truncate(limit);
            }
            if !points.is_empty() {
                series.push(SeriesResult { key: Arc::clone(&plan.keys[s]), points });
            }
        }
        drop(held);
        series.sort_by(|a, b| a.key.cmp(&b.key));
        Ok((ResultSet { series }, cost))
    }

    /// Simulated elapsed time for a cost under this database's disk and
    /// cost parameters. With tiering configured, the cold share of the
    /// cost (`blocks_cold`/`bytes_cold`) is priced against the archive
    /// device instead of the hot disk.
    pub fn simulate_elapsed(&self, cost: &QueryCost) -> monster_sim::VDuration {
        let (hot, cold) = self.devices();
        let (cpu, io) = self.config.cost.price(cost, hot, cold);
        cpu + io
    }

    /// The devices this database prices I/O against, hot and cold: the
    /// cold shards' is the archive device when tiering is configured, else
    /// the hot disk. The one place the cold tier's device is chosen, for
    /// both execution modes.
    pub(crate) fn devices(&self) -> (&DiskModel, &DiskModel) {
        let cold = if self.config.tiering.is_some() { &COLD_DISK } else { &self.config.disk };
        (&self.config.disk, cold)
    }

    /// Snapshot of write-path statistics. O(1): every field is either an
    /// incrementally-maintained atomic or a constant-time index/map read —
    /// no shard or column walk (contrast [`Db::recompute_stats`]).
    pub fn stats(&self) -> DbStats {
        let (cardinality, measurements) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.measurement_count())
        };
        DbStats {
            points: self.points.load(Ordering::Relaxed),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            encoded_bytes: self.encoded_bytes.load(Ordering::Relaxed).max(0) as usize,
            cardinality,
            measurements,
            shards: self.shards.read().len(),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Recompute the statistics the slow way — walking every shard
    /// and column — as a cross-check that the incremental counters behind
    /// [`Db::stats`] are exact. Intended for tests and debugging; it takes
    /// every shard's read lock in turn.
    // kept: the walking oracle that tests hold the O(1) `stats()` counters to
    pub fn recompute_stats(&self) -> DbStats {
        let mut points = 0usize;
        let mut encoded = 0usize;
        let mut shards = 0usize;
        for handle in self.shard_handles() {
            let shard = handle.read();
            points += shard.point_count();
            encoded += shard.encoded_bytes();
            shards += 1;
        }
        let (cardinality, measurements) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.measurement_count())
        };
        DbStats {
            points,
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            encoded_bytes: encoded,
            cardinality,
            measurements,
            shards,
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Compact the database: seal all raw tails into compressed blocks.
    ///
    /// A column's tail self-seals at [`crate::column::BLOCK_SIZE`] points,
    /// but slow series (health codes, job metadata) can sit in raw form for
    /// days; periodic compaction — InfluxDB's TSM compaction cycle — trades
    /// a little CPU for at-rest volume. Returns (columns sealed, bytes
    /// saved). Shards are compacted one lock at a time, so ingest and
    /// queries on other shards proceed concurrently.
    pub fn compact(&self) -> (usize, i64) {
        let mut sealed = 0usize;
        let mut saved = 0i64;
        for handle in self.shard_handles() {
            let mut shard = self.timed(|| handle.write());
            let before = shard.encoded_bytes() as i64;
            sealed += shard.compact();
            let delta = shard.encoded_bytes() as i64 - before;
            drop(shard);
            self.encoded_bytes.fetch_add(delta, Ordering::Relaxed);
            saved -= delta;
        }
        (sealed, saved)
    }

    /// Migrate shards older than the tiering threshold to the cold tier.
    ///
    /// For every shard whose range lies entirely before
    /// `now - tiering.hot_secs` (rounded down to a shard boundary), the
    /// pass compacts the shard, writes it record by record to an immutable
    /// segment file (`shard-<start>.seg`, [`crate::snapshot`]) next to the
    /// WAL, and marks it cold so scans are priced by the cold-tier disk
    /// model. Once every such shard is durable as a segment — file and
    /// directory entry fsynced — WAL segments whose records all predate
    /// the cut are reclaimed: the tiered data no longer needs replay.
    ///
    /// Without a WAL the pass only re-prices (marks cold, writes nothing).
    /// No-op unless [`DbConfig::tiering`] is set. The pass holds each
    /// shard's write lock across its segment-file write, so a racing
    /// writer to that shard cannot slip points between the export and the
    /// cold mark; out-of-order ingest older than the hot horizon that
    /// arrives *after* a shard was tiered is not re-exported and survives
    /// only as long as its WAL segment (live deployments ingest current
    /// data, so the horizon — days — dwarfs collector skew — seconds).
    pub fn tier_cold_shards(&self, now: monster_util::EpochSecs) -> Result<TierReport> {
        let Some(tier) = self.config.tiering else {
            return Ok(TierReport::default());
        };
        let dur = self.config.shard_duration;
        let cut = (now.as_secs() - tier.hot_secs).div_euclid(dur) * dur;
        let mut report = TierReport::default();
        let candidates: Vec<(i64, Arc<RwLock<Shard>>)> = self
            .timed(|| self.shards.read())
            .range(..cut)
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        for (start, handle) in candidates {
            // Index read before shard write: the sanctioned nesting. The
            // writer names series from the index record by record, so both
            // are held through the durable segment write (see above).
            let idx = self.index.read();
            let mut shard = self.timed(|| handle.write());
            if shard.is_cold() {
                continue;
            }
            let before = shard.encoded_bytes() as i64;
            shard.compact();
            let delta = shard.encoded_bytes() as i64 - before;
            if let Some(wal) = &self.wal {
                let path = wal.dir().join(format!("shard-{start}.seg"));
                let written = snapshot::write_file(&path, |file| {
                    snapshot::write_sealed(file, snapshot::SEGMENT, &idx, |visit| {
                        shard.export(visit)
                    })
                });
                match written {
                    Ok(stats) => report.segment_bytes_written += stats.stored_bytes as u64,
                    // Leave the shard hot: a later pass retries, and the WAL
                    // keeps covering it (reclaim below never runs).
                    Err(e) => return Err(e),
                }
            }
            drop(idx);
            let pts = shard.point_count();
            shard.mark_cold();
            drop(shard);
            self.encoded_bytes.fetch_add(delta, Ordering::Relaxed);
            report.shards_tiered += 1;
            report.points_tiered += pts;
        }
        if report.shards_tiered > 0 {
            self.obs.counter("monster_tsdb_shards_tiered_total").add(report.shards_tiered as u64);
        }
        // Every point in a cold shard has ts < cut, so WAL segments whose
        // max record timestamp predates the cut replay nothing that is not
        // already durable in a segment file.
        if let Some(wal) = &self.wal {
            report.wal_segments_reclaimed = wal.reclaim_before(cut)?;
        }
        Ok(report)
    }

    /// Raw (unsealed) points awaiting compaction.
    // kept: the raw-tail oracle the compaction tests read before and after `compact`
    pub fn tail_points(&self) -> usize {
        self.shard_handles().iter().map(|h| h.read().tail_points()).sum()
    }

    /// Series keys, optionally scoped to one measurement (rendered as
    /// `measurement,tag=value,...`).
    pub fn series_keys(&self, measurement: Option<&str>) -> Vec<String> {
        let idx = self.index.read();
        let mut out = Vec::new();
        for id in 0..idx.cardinality() {
            let key = idx.key_of(SeriesId(id as u32));
            if measurement.map(|m| m == key.measurement).unwrap_or(true) {
                out.push(key.to_string());
            }
        }
        out
    }

    /// Distinct tag keys used within a measurement, sorted.
    pub fn tag_keys(&self, measurement: &str) -> Vec<String> {
        let idx = self.index.read();
        let mut keys: Vec<String> = Vec::new();
        for id in 0..idx.cardinality() {
            let key = idx.key_of(SeriesId(id as u32));
            if key.measurement == measurement {
                for (k, _) in &key.tags {
                    if !keys.contains(k) {
                        keys.push(k.clone());
                    }
                }
            }
        }
        keys.sort();
        keys
    }

    /// Distinct values of `tag` within a measurement, sorted.
    pub fn tag_values(&self, measurement: &str, tag: &str) -> Vec<String> {
        let idx = self.index.read();
        let mut values: Vec<String> = Vec::new();
        for id in 0..idx.cardinality() {
            let key = idx.key_of(SeriesId(id as u32));
            if key.measurement == measurement {
                if let Some(v) = key.tag(tag) {
                    if !values.iter().any(|x| x == v) {
                        values.push(v.to_string());
                    }
                }
            }
        }
        values.sort();
        values
    }

    /// Distinct field keys written to a measurement, sorted.
    pub fn field_keys(&self, measurement: &str) -> Vec<String> {
        let ids: std::collections::HashSet<SeriesId> =
            self.index.read().select(measurement, &[]).into_iter().collect();
        let mut fids: std::collections::HashSet<FieldId> = std::collections::HashSet::new();
        for handle in self.shard_handles() {
            let shard = handle.read();
            for (sid, fid) in shard.column_keys() {
                if ids.contains(&sid) {
                    fids.insert(fid);
                }
            }
        }
        let idx = self.index.read();
        let mut keys: Vec<String> =
            fids.into_iter().map(|f| idx.field_name(f).to_string()).collect();
        keys.sort();
        keys
    }

    /// All measurement names, sorted.
    pub fn measurements(&self) -> Vec<String> {
        let mut m: Vec<String> = self.index.read().measurements().map(str::to_string).collect();
        m.sort();
        m
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;
    use crate::FieldValue;
    use monster_util::EpochSecs;

    fn power_point(node: &str, ts: i64, reading: f64) -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(ts))
            .tag("NodeId", node)
            .tag("Label", "NodePower")
            .field_f64("Reading", reading)
    }

    /// Two nodes, two hours of 60 s samples starting 2020-04-20T12:00Z.
    fn seeded_db() -> Db {
        let db = Db::new(DbConfig::default());
        let mut batch = Vec::new();
        for node in ["10.101.1.1", "10.101.1.2"] {
            for i in 0..120 {
                batch.push(power_point(node, 1_587_384_000 + i * 60, 250.0 + i as f64));
            }
        }
        db.write_batch(&batch).unwrap();
        db
    }

    /// One node, three days of 5-minute samples (spans multiple shards).
    fn multi_day_db() -> Db {
        let db = Db::new(DbConfig::default());
        let mut batch = Vec::new();
        for i in 0..(3 * 288) {
            batch.push(power_point("10.101.1.1", 1_587_340_800 + i * 300, 250.0));
        }
        db.write_batch(&batch).unwrap();
        db
    }

    #[test]
    fn write_then_query_max_per_window() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_000 + 7200),
        )
        .aggregate(Aggregation::Max)
        .where_tag("NodeId", "10.101.1.1")
        .group_by_time(300);
        let (rs, cost) = db.query(&q).unwrap();
        assert_eq!(rs.series.len(), 1);
        // 2 hours / 5 min = 24 windows.
        assert_eq!(rs.series[0].points.len(), 24);
        // First window covers samples 0..5 → max reading 254.
        assert_eq!(rs.series[0].points[0].1.as_f64(), Some(254.0));
        assert!(cost.points >= 120);
        assert_eq!(cost.series, 1);
        assert_eq!(cost.queries, 1);
    }

    #[test]
    fn query_without_predicates_fans_across_series() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_000 + 3600),
        )
        .aggregate(Aggregation::Mean);
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.series.len(), 2);
        assert!(rs.series.iter().any(|s| s.key.tag("NodeId") == Some("10.101.1.2")));
    }

    #[test]
    fn raw_select_returns_original_points_sorted() {
        let db = Db::new(DbConfig::default());
        // Write out of order.
        for ts in [300i64, 100, 200] {
            db.write(DataPoint::new("m", EpochSecs::new(ts)).tag("n", "a").field_i64("v", ts))
                .unwrap();
        }
        let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(1000));
        let (rs, _) = db.query(&q).unwrap();
        let ts: Vec<i64> = rs.series[0].points.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn shards_partition_by_time() {
        let db = Db::new(DbConfig { shard_duration: 3600, ..DbConfig::default() });
        for i in 0..10 {
            db.write(power_point("n", i * 3600, 1.0)).unwrap();
        }
        assert_eq!(db.stats().shards, 10);
        // A one-hour query touches one shard's blocks only.
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(3600))
            .aggregate(Aggregation::Count);
        let (rs, cost) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 1);
        assert_eq!(cost.blocks, 1);
    }

    #[test]
    fn longer_ranges_cost_more() {
        let db = multi_day_db();
        let mk = |hours: i64| {
            Query::select(
                "Power",
                "Reading",
                EpochSecs::new(1_587_340_800),
                EpochSecs::new(1_587_340_800 + hours * 3600),
            )
            .aggregate(Aggregation::Max)
            .group_by_time(300)
        };
        let (_, c1) = db.query(&mk(24)).unwrap();
        let (_, c2) = db.query(&mk(48)).unwrap();
        assert!(c2.points > c1.points, "c1={c1:?} c2={c2:?}");
        assert!(db.simulate_elapsed(&c2) > db.simulate_elapsed(&c1));
    }

    #[test]
    fn query_str_end_to_end() {
        let db = seeded_db();
        let (rs, _) = db
            .query_str(
                "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
                 Label='NodePower' AND time >= '2020-04-20T12:00:00Z' AND \
                 time < '2020-04-21T12:00:00Z' GROUP BY time(5m)",
            )
            .unwrap();
        assert_eq!(rs.series.len(), 1);
        assert!(rs.point_count() > 0);
    }

    #[test]
    fn unknown_measurement_is_empty_not_error() {
        let db = seeded_db();
        let q = Query::select("Nope", "x", EpochSecs::new(0), EpochSecs::new(10));
        let (rs, cost) = db.query(&q).unwrap();
        assert!(rs.series.is_empty());
        assert_eq!(cost.series, 0);
    }

    #[test]
    fn invalid_points_rejected_whole_batch() {
        let db = Db::new(DbConfig::default());
        let good = power_point("n", 0, 1.0);
        let bad = DataPoint::new("m", EpochSecs::new(0)); // no fields
        assert!(db.write_batch(&[good.clone(), bad]).is_err());
        // No shard's `[start, start + duration)` can hold either end.
        for ts in [i64::MIN, i64::MAX] {
            assert!(db.write_batch(&[good.clone(), power_point("n", ts, 1.0)]).is_err());
        }
        assert_eq!(db.stats().points, 0);
    }

    #[test]
    fn a_repeated_tag_key_is_refused_and_mints_no_series() {
        let db = Db::new(DbConfig::default());
        let twice =
            DataPoint::new("m", EpochSecs::new(0)).tag("k", "1").tag("k", "2").field_f64("v", 1.0);
        for _ in 0..5 {
            let err = db.write_batch(&[power_point("n", 0, 1.0), twice.clone()]).unwrap_err();
            assert!(matches!(&err, Error::Invalid(m) if m.contains("\"k\"")), "{err}");
        }
        let stats = db.stats();
        assert_eq!((stats.cardinality, stats.points, stats.batches), (0, 0, 0));
    }

    /// Resolve `batch` into fresh buffers, as `write_batch` does.
    fn resolved(db: &Db, batch: &[DataPoint]) -> (Vec<SeriesId>, Vec<FieldId>, Vec<usize>) {
        let (mut sids, mut fids, mut fixed) = (Vec::new(), Vec::new(), Vec::new());
        db.resolve_ids(batch, &mut sids, &mut fids, &mut fixed);
        (sids, fids, fixed)
    }

    #[test]
    fn cached_and_uncached_resolution_agree_batch_for_batch() {
        let point = |m: &str, tags: &[(&str, &str)], fields: &[&str], ts: i64| DataPoint {
            measurement: m.into(),
            tags: tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            fields: fields.iter().map(|f| (f.to_string(), FieldValue::Int(ts))).collect(),
            time: EpochSecs::new(ts),
        };
        let interval = |ts: i64, nodes: usize| -> Vec<DataPoint> {
            let mut batch = Vec::new();
            for n in 0..nodes {
                let node = format!("n{n}");
                batch.push(point("Power", &[("NodeId", &node), ("Label", "P")], &["Reading"], ts));
                // Tags in the other order every other node, and a field
                // subset that changes every other interval.
                let tags = [("Label", "T"), ("NodeId", node.as_str())];
                let tags = if n % 2 == 0 { &tags[..] } else { &[tags[1], tags[0]] };
                let fields: &[&str] = if ts % 240 < 120 { &["a", "b"] } else { &["b"] };
                batch.push(point("Thermal", tags, fields, ts));
            }
            // One identity twice in a batch, and a job that is new each time.
            batch.push(batch[0].clone());
            batch.push(point("JobsInfo", &[("JobId", &ts.to_string())], &["User"], ts));
            batch
        };
        let cached = Db::new(DbConfig::default());
        let uncached = Db::new(DbConfig::default());
        for (k, nodes) in [2, 2, 3, 3, 5, 2, 5].into_iter().enumerate() {
            let batch = interval(60 * k as i64, nodes);
            let idx = cached.index.read();
            let warm = batch.iter().filter(|p| idx.cached(p, &mut Vec::new()).is_some()).count();
            drop(idx);
            uncached.index.write().forget_refs();
            let ids = resolved(&cached, &batch);
            assert_eq!(ids, resolved(&uncached, &batch), "batch {k}");
            for (p, fixed) in batch.iter().zip(&ids.2) {
                assert_eq!(fixed + p.values_wire_size(), p.wire_size());
            }
            if k == 1 || k == 3 {
                // The batch before had the same nodes and fields: all but
                // the new job hit.
                assert_eq!(warm, batch.len() - 1);
            }
            uncached.index.write().forget_refs();
            cached.write_batch(&batch).unwrap();
            uncached.write_batch(&batch).unwrap();
        }
        assert_eq!(cached.stats(), uncached.stats());
        assert_eq!(cached.series_keys(None), uncached.series_keys(None));
    }

    #[test]
    fn stats_track_volume_and_cardinality() {
        let db = seeded_db();
        let s = db.stats();
        assert_eq!(s.points, 240);
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.measurements, 1);
        assert!(s.wire_bytes > 0);
        assert!(s.encoded_bytes > 0);
        assert_eq!(s.batches, 1);
        // Encoded storage beats raw wire size for regular data.
        assert!(s.encoded_bytes < s.wire_bytes);
    }

    #[test]
    fn type_conflict_surfaces_from_write() {
        let db = Db::new(DbConfig::default());
        db.write(DataPoint::new("m", EpochSecs::new(0)).tag("n", "a").field_f64("v", 1.0)).unwrap();
        let err = db
            .write(DataPoint::new("m", EpochSecs::new(1)).tag("n", "a").field_str("v", "x"))
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = std::sync::Arc::new(Db::new(DbConfig::default()));
        std::thread::scope(|s| {
            for w in 0..4 {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..200 {
                        db.write(power_point(&format!("n{w}"), i * 60, i as f64)).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move || {
                    for _ in 0..50 {
                        let q = Query::select(
                            "Power",
                            "Reading",
                            EpochSecs::new(0),
                            EpochSecs::new(200 * 60),
                        )
                        .aggregate(Aggregation::Count);
                        let _ = db.query(&q).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.stats().points, 800);
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(200 * 60))
            .aggregate(Aggregation::Count);
        let (rs, _) = db.query(&q).unwrap();
        let total: f64 =
            rs.series.iter().flat_map(|s| s.points.iter()).filter_map(|(_, v)| v.as_f64()).sum();
        assert_eq!(total, 800.0);
    }

    #[test]
    fn stats_match_recompute_after_churn() {
        let db = Db::new(DbConfig { shard_duration: 3600, ..DbConfig::default() });
        for i in 0..48 {
            db.write(power_point("a", i * 1800, i as f64)).unwrap();
            db.write(power_point("b", i * 1800, i as f64)).unwrap();
        }
        assert_eq!(db.stats(), db.recompute_stats());
        db.compact();
        assert_eq!(db.stats(), db.recompute_stats());
    }

    #[test]
    fn scan_worker_count_does_not_change_results() {
        let mk = |workers: usize| {
            let db = Db::new(DbConfig {
                shard_duration: 3600,
                scan_workers: workers,
                ..DbConfig::default()
            });
            let mut batch = Vec::new();
            for node in ["n1", "n2", "n3"] {
                for i in 0..240 {
                    batch.push(power_point(node, i * 300, 0.1 + i as f64 * 0.7));
                }
            }
            db.write_batch(&batch).unwrap();
            db
        };
        let serial = mk(1);
        let fanned = mk(8);
        for agg in [None, Some(Aggregation::Mean), Some(Aggregation::Count)] {
            let mut q =
                Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(240 * 300));
            q.agg = agg;
            if agg.is_some() {
                q = q.group_by_time(900);
            }
            let (rs1, c1) = serial.query(&q).unwrap();
            let (rs8, c8) = fanned.query(&q).unwrap();
            assert_eq!(rs1, rs8, "agg {agg:?}");
            assert_eq!(c1, c8, "agg {agg:?}");
            assert_eq!(c1.shards_scanned, 20);
        }
    }

    #[test]
    fn every_thread_count_gives_the_same_answers() {
        // Three series over twenty hourly shards, sealed and raw, in a
        // batch of seven queries: chunks of one query each, of several, and
        // more chunks than queries.
        let db = Db::new(DbConfig { shard_duration: 3600, ..DbConfig::default() });
        let mut batch = Vec::new();
        for node in ["n1", "n2", "n3"] {
            for i in 0..2400 {
                batch.push(power_point(node, i * 30, 0.1 + (i % 89) as f64 * 0.7));
            }
        }
        db.write_batch(&batch).unwrap();
        db.compact();
        db.write_batch(&batch).unwrap(); // again, raw: every column is blocks + a tail
        let range = |from: i64, to: i64| {
            Query::select("Power", "Reading", EpochSecs::new(from), EpochSecs::new(to))
        };
        let queries = vec![
            range(0, 72_000).aggregate(Aggregation::Mean).group_by_time(900),
            range(7_000, 7_100).where_tag("NodeId", "n2"),
            range(10, 10), // invalid: stays an error in its slot
            range(0, 72_000).aggregate(Aggregation::Count).group_by_time(7200),
            range(100_000, 200_000).aggregate(Aggregation::Max), // no shard overlaps
            range(3_000, 50_000).where_tag("NodeId", "nobody"),
            range(3_000, 50_000).where_tag("NodeId", "n3").aggregate(Aggregation::Sum),
        ];
        let run = |threads: &dyn Fn(usize) -> usize| {
            let prepared = db.prepare(&queries);
            let planned = &prepared.plan.queries;
            let items: usize = planned.iter().map(|p| p.series.len() * p.shards.len()).sum();
            let threads = threads(planned.len());
            let done = db.run_batch(prepared, threads).into_iter();
            (items, done.map(|r| r.map_err(|e| e.to_string())).collect::<Vec<_>>())
        };
        let (items, whole) = run(&|_| 1);
        assert_eq!(items, 60 + 1 + 60 + 14, "(series, shard) items of the six valid queries");
        assert!(whole[2].is_err() && whole.iter().filter(|r| r.is_err()).count() == 1);
        assert_eq!(whole[0].as_ref().unwrap().0.series.len(), 3);
        assert_eq!(whole[1].as_ref().unwrap().0.point_count(), 3 + 3);
        for threads in [2, 3, 6, 8] {
            assert_eq!(run(&|_| threads), (items, whole.clone()), "{threads} threads");
        }
        assert_eq!(run(&|planned| planned), (items, whole), "a chunk per query");
    }

    #[test]
    fn pushdown_summarizes_contained_blocks_and_matches_forced_decode() {
        let mk = |pushdown: bool| {
            let db = Db::new(DbConfig { pushdown, ..DbConfig::default() });
            let mut batch = Vec::new();
            for i in 0..4096i64 {
                batch.push(power_point("n1", i, 250.0 + (i % 97) as f64 * 0.37));
            }
            db.write_batch(&batch).unwrap();
            db.compact();
            db
        };
        let push = mk(true);
        let full = mk(false);
        for agg in [
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::Max,
            Aggregation::Min,
            Aggregation::First,
            Aggregation::Last,
        ] {
            let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(4096))
                .aggregate(agg)
                .group_by_time(4096);
            let (rs_p, c_p) = push.query(&q).unwrap();
            let (rs_f, c_f) = full.query(&q).unwrap();
            assert_eq!(rs_p, rs_f, "agg {agg:?}");
            // All four sealed blocks land inside the single window: the
            // pushdown run probes zone maps, the baseline decodes.
            assert_eq!(c_p.blocks_summarized, 4, "agg {agg:?}");
            assert_eq!(c_p.blocks, 0);
            assert_eq!(c_p.points, 0);
            assert_eq!(c_f.blocks_summarized, 0);
            assert_eq!(c_f.blocks, 4);
            assert_eq!(c_f.points, 4096);
            // The series still counts as scanned on the summary-only path.
            assert_eq!(c_p.series, 1);
            assert!(push.simulate_elapsed(&c_p) < full.simulate_elapsed(&c_f));
        }
        // A window narrower than a block forces decoding in both modes.
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(4096))
            .aggregate(Aggregation::Mean)
            .group_by_time(256);
        let (rs_p, c_p) = push.query(&q).unwrap();
        let (rs_f, c_f) = full.query(&q).unwrap();
        assert_eq!(rs_p, rs_f);
        assert_eq!(c_p, c_f);
        assert_eq!(c_p.blocks_summarized, 0);
    }

    #[test]
    fn field_value_reexport_used_in_results() {
        let db = seeded_db();
        let q = Query::select(
            "Power",
            "Reading",
            EpochSecs::new(1_587_384_000),
            EpochSecs::new(1_587_384_060),
        );
        let (rs, _) = db.query(&q).unwrap();
        assert!(matches!(rs.series[0].points[0].1, FieldValue::Float(_)));
    }
}
