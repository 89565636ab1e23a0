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
//!   resolution; writers resolve every id *up front* under one read (or,
//!   for new series, one write) acquisition per batch;
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

use crate::column::{AggScan, DecodeScratch, ScanItem, ScanStats};
use crate::cost::{CostParams, QueryCost};
use crate::point::DataPoint;
use crate::query::exec::WindowAggregator;
use crate::query::{parse_query, Aggregation, Query, ResultSet, SeriesResult};
use crate::retention::{TierConfig, TierReport};
use crate::series::{FieldId, SeriesId, SeriesIndex, SeriesKey};
use crate::shard::Shard;
use crate::snapshot;
use crate::wal_record;
use crate::watermark::{MeasurementMark, WatermarkRegistry};
use monster_sim::DiskModel;
use monster_util::pool;
use monster_util::{Error, Result};
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// its caller allows, than the machine has cores, or than its weight
    /// pays for. Results are byte-identical for every value.
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
    /// into immutable segment files and their scans priced by
    /// [`TierConfig::cold_disk`] instead of [`DbConfig::disk`]. See
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

/// A batch whose items weigh less than this in total runs on the calling
/// thread: a scoped thread's spawn and join (14–50 µs here) plus the weighing
/// pass cost more than the half of the scan the thread would take over. The
/// unit is [`Column::scan_weight`]'s — one raw tail point examined, ≈ 3 ns —
/// so this is ≈ 0.4 ms of scanning. DESIGN.md §19 has the measurement.
///
/// [`Column::scan_weight`]: crate::column::Column::scan_weight
const INLINE_SCAN_WEIGHT: usize = 131_072;

/// What one scan item costs before it touches a point (shard lock, column
/// lookup, result bookkeeping), in the same unit — the part of it that a
/// second thread actually takes off the first (≈ 0.1 of the ≈ 1 µs: the
/// rest is updates to shared lock words and histograms).
const ITEM_WEIGHT: usize = 32;

type QueryResult = Result<(ResultSet, QueryCost)>;

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
    /// The shards any query overlaps, in time order.
    shards: Vec<(i64, Arc<RwLock<Shard>>)>,
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
    /// Where this query's items start in the batch's item list.
    first_item: usize,
}

impl Planned<'_> {
    /// This query's scan items in the batch's item list: its series ×
    /// shards in series-major order — and never none, so that a query
    /// selecting nothing still belongs to exactly one chunk.
    fn items(&self) -> Range<usize> {
        self.first_item..self.first_item + (self.series.len() * self.shards.len()).max(1)
    }

    /// The field whose columns the items scan; `None` when there is
    /// nothing to look for (no such field, no series, or no shard).
    fn scanned_field(&self) -> Option<FieldId> {
        self.fid.filter(|_| !self.series.is_empty() && !self.shards.is_empty())
    }
}

/// What scanning one item produced, besides its [`ScanItem`]s.
#[derive(Default)]
struct ItemScan {
    /// How many of [`Scanned::items`] are this item's.
    len: usize,
    stats: ScanStats,
    cold: bool,
}

/// Consecutive scanned items of one query: the merge's input.
#[derive(Default)]
struct Scanned {
    scans: Vec<ItemScan>,
    /// The items' points and zone-map partials, back to back.
    items: Vec<ScanItem>,
    /// The first scan error; the query's remaining items are skipped.
    failed: Option<Error>,
    /// The merge's aggregator, kept for its buckets' allocation.
    windows: Option<WindowAggregator>,
}

/// One query's merged output: points per series (an index into
/// [`BatchPlan::series`]; series with no points are left out) and the cost.
struct Merged {
    series: Vec<(usize, Vec<(monster_util::EpochSecs, crate::FieldValue)>)>,
    cost: QueryCost,
}

/// What one chunk of a batch hands back.
#[derive(Default)]
struct ChunkOut {
    /// The queries the chunk held completely, by [`BatchPlan::queries`]
    /// index.
    merged: Vec<(usize, Result<Merged>)>,
    /// Its scans of the queries a cut split, in item order.
    pieces: Vec<(usize, Scanned)>,
}

impl Scanned {
    /// Append the scans of the items that follow this piece's.
    fn append(&mut self, mut next: Scanned) {
        self.scans.append(&mut next.scans);
        self.items.append(&mut next.items);
        self.failed = self.failed.take().or(next.failed);
    }

    /// Merge all of `p`'s scanned items, in series-major, shard-time
    /// order — the order a sequential scan produces — leaving `self` empty
    /// for the next query.
    fn merge(&mut self, p: &Planned<'_>) -> Result<Merged> {
        let mut scans = self.scans.drain(..);
        let mut items = self.items.drain(..);
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let q = p.query;
        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
        let mut cost = QueryCost {
            queries: 1,
            index_entries: p.index_entries,
            shards_scanned: p.shards.len(),
            ..QueryCost::default()
        };
        let mut series = Vec::with_capacity(p.series.len());
        for s in p.series.clone() {
            let mut scanned = false;
            let mut windows = q.agg.map(|agg| {
                let new = || WindowAggregator::new(agg, q.group_by, qs);
                let w = self.windows.get_or_insert_with(new);
                w.restart(agg, q.group_by, qs);
                w
            });
            let mut raw = Vec::new();
            for scan in scans.by_ref().take(p.shards.len()) {
                for item in items.by_ref().take(scan.len) {
                    match (&mut windows, item) {
                        (Some(w), ScanItem::Point(t, v)) => w.push(t, &v),
                        (Some(w), ScanItem::Partial(block)) => w.push_partial(&block),
                        (None, ScanItem::Point(t, v)) => {
                            raw.push((monster_util::EpochSecs::new(t), v))
                        }
                        // Raw selects never carry an AggScan spec.
                        (None, ScanItem::Partial(_)) => unreachable!("partial in raw scan"),
                    }
                }
                scanned |= scan.stats.points > 0 || scan.stats.blocks_summarized > 0;
                cost.blocks += scan.stats.blocks;
                cost.blocks_summarized += scan.stats.blocks_summarized;
                cost.points += scan.stats.points;
                cost.bytes += scan.stats.bytes;
                if scan.cold {
                    cost.blocks_cold += scan.stats.blocks;
                    cost.bytes_cold += scan.stats.bytes;
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
                series.push((s, points));
            }
        }
        Ok(Merged { series, cost })
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
    /// Field values appended.
    pub values: usize,
    /// Shards appended to.
    pub shards: usize,
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
    /// Pre-resolved read-path handles (`monster_tsdb_quer*`, `…_blocks_*`).
    query_metrics: QueryMetrics,
    /// Write-ahead log, present when the database was opened against a
    /// directory ([`Db::recover`]). Appended *before* batches publish;
    /// its mutex is independent of the engine's lock hierarchy (taken
    /// while holding no engine lock).
    wal: Option<crate::wal::Wal>,
}

impl Db {
    /// Create an empty database.
    pub fn new(config: DbConfig) -> Db {
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
            lock_wait: monster_obs::histo("monster_tsdb_lock_wait_seconds"),
            lock_hold: monster_obs::histo("monster_tsdb_lock_hold_seconds"),
            query_metrics: QueryMetrics {
                queries: monster_obs::counter("monster_tsdb_queries_total"),
                points: monster_obs::counter("monster_tsdb_query_points_total"),
                blocks_decoded: monster_obs::counter("monster_tsdb_blocks_decoded_total"),
                blocks_summarized: monster_obs::counter("monster_tsdb_blocks_summarized_total"),
                seconds: monster_obs::histo("monster_tsdb_query_seconds"),
            },
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

    /// Record one lock acquisition: how long we queued for it and how long
    /// we held it. Histogram updates are lock-free and happen after the
    /// guard is dropped (the PR 1 "outside critical sections" convention).
    fn observe_lock(&self, wait_start: Instant, acquired: Instant) {
        // The wait histogram parks an exemplar pointing at whichever trace
        // was stalled, so a lock-contention spike links to the sweep or
        // query that suffered it.
        self.lock_wait.observe_traced(
            acquired.duration_since(wait_start).as_secs_f64(),
            monster_obs::trace::current(),
        );
        self.lock_hold.observe(acquired.elapsed().as_secs_f64());
    }

    /// Fetch the shard covering `start`, creating it if needed. Only the
    /// shard-map lock is touched; the returned handle is locked by the
    /// caller.
    pub(crate) fn shard_for(&self, start: i64) -> Arc<RwLock<Shard>> {
        let wait = Instant::now();
        {
            let map = self.shards.read();
            let acquired = Instant::now();
            if let Some(s) = map.get(&start) {
                let s = Arc::clone(s);
                drop(map);
                self.observe_lock(wait, acquired);
                return s;
            }
        }
        let wait = Instant::now();
        let mut map = self.shards.write();
        let acquired = Instant::now();
        let duration = self.config.shard_duration;
        let s = Arc::clone(
            map.entry(start)
                .or_insert_with(|| Arc::new(RwLock::new(Shard::new(start, start + duration)))),
        );
        drop(map);
        self.observe_lock(wait, acquired);
        s
    }

    /// Snapshot the current shard handles in time order (short shard-map
    /// read; no shard data touched).
    pub(crate) fn shard_handles(&self) -> Vec<Arc<RwLock<Shard>>> {
        let wait = Instant::now();
        let map = self.shards.read();
        let acquired = Instant::now();
        let out = map.values().cloned().collect();
        drop(map);
        self.observe_lock(wait, acquired);
        out
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
    /// resolved up front, the write-ahead log records the resolved batch,
    /// and the apply step pre-groups it by shard *before* any shard lock is
    /// taken, so the per-point critical section is a pure `(u32, u32)`-keyed
    /// append — no string hashing, no allocation, and never more than one
    /// shard lock held at a time.
    pub fn write_batch(&self, points: &[DataPoint]) -> Result<()> {
        // Joins the collector's interval trace when one is installed on
        // this thread, so "shard 7 write" hangs off "sweep 812". Untraced
        // writes skip the span: steady-state ingest stays allocation-free.
        let mut span = monster_obs::trace::current().map(|ctx| {
            let mut s = monster_obs::Span::child_of("tsdb.write_batch", ctx);
            s.set_attr("points", points.len().to_string());
            s
        });
        self.validate_points(points)?;
        let total_fields: usize = points.iter().map(|p| p.fields.len()).sum();
        let mut sids: Vec<SeriesId> = Vec::with_capacity(points.len());
        let mut fids: Vec<FieldId> = Vec::with_capacity(total_fields);
        self.resolve_ids(points, &mut sids, &mut fids);

        // --- write-ahead: log the batch before any of it becomes visible --
        // A refusal or an I/O failure rejects the batch wholesale: nothing
        // applied, so nothing unlogged is readable (series it named for
        // the first time stay registered, and empty).
        if let Some(wal) = &self.wal {
            wal.append_batch(points, &sids, &fids)?;
        }

        let resolved =
            wal_record::batch_points(points, &sids, &fids).zip(points).map(|(p, point)| Resolved {
                series: p.series,
                measurement: p.measurement,
                ts: p.ts,
                wire: point.wire_size(),
                fields: p.fields.map(|(id, _, value)| (id, value)),
            });
        let (result, applied) = self.apply(resolved, total_fields, &[]);
        if let Some(mut span) = span.take() {
            span.set_attr("applied", applied.values.to_string());
            span.set_attr("shards", applied.shards.to_string());
            span.finish();
        }
        result
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
        let mut shard_gauges: Vec<(i64, i64)> = Vec::with_capacity(groups.len());
        let mut result: Result<()> = Ok(());
        for (start, group) in &groups {
            let shard_arc = self.shard_for(*start);
            let wait = Instant::now();
            let mut shard = shard_arc.write();
            let acquired = Instant::now();
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
            shard_gauges.push((*start, shard.point_count() as i64));
            drop(shard);
            self.observe_lock(wait, acquired);
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
        monster_obs::counter("monster_tsdb_points_written_total").add(applied as u64);
        // Watermarks advance only after shard data is visible to readers
        // (a concurrent cache-validity snapshot may go spuriously stale,
        // never stale-but-valid). A failed batch may still have applied a
        // prefix, so note the spans unconditionally — over-invalidation is
        // safe.
        self.watermarks.note_spans(&spans);

        monster_obs::counter("monster_tsdb_write_batches_total").inc();
        monster_obs::histo("monster_tsdb_write_batch_points").observe(counts.points as f64);
        self.update_topology_gauges();
        for (start, count) in &shard_gauges {
            monster_obs::gauge(&format!("monster_tsdb_shard_points{{shard=\"{start}\"}}"))
                .set(*count);
        }
        counts.values = applied;
        counts.shards = shard_gauges.len();
        (result, counts)
    }

    /// Whether a shard can hold `ts`: the `[start, start + shard_duration)`
    /// around it must be representable.
    pub(crate) fn in_range(&self, ts: i64) -> bool {
        let duration = self.config.shard_duration;
        (i64::MIN + duration..=i64::MAX - duration).contains(&ts)
    }

    /// Reject batches containing field-less points or timestamps no shard
    /// can hold — whole-batch, before any state changes.
    fn validate_points(&self, points: &[DataPoint]) -> Result<()> {
        for p in points {
            if !p.is_valid() {
                return Err(Error::invalid(format!(
                    "point for measurement {:?} has no fields",
                    p.measurement
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
    /// field in point order). One index read-lock acquisition on the fast
    /// path, plus one write acquisition only when new series or field names
    /// appear.
    fn resolve_ids(&self, points: &[DataPoint], sids: &mut Vec<SeriesId>, fids: &mut Vec<FieldId>) {
        // Placeholders between the two passes; ids are dense, so neither
        // is one the index hands out.
        const NEW_SERIES: SeriesId = SeriesId(u32::MAX);
        const NEW_FIELD: FieldId = FieldId(u32::MAX);
        sids.clear();
        fids.clear();
        {
            // Fast path: everything already known — a shared read lock.
            let wait = Instant::now();
            let idx = self.index.read();
            let acquired = Instant::now();
            for p in points {
                sids.push(idx.id_of_point(p).unwrap_or(NEW_SERIES));
                fids.extend(
                    p.fields.iter().map(|(name, _)| idx.field_id(name).unwrap_or(NEW_FIELD)),
                );
            }
            drop(idx);
            self.observe_lock(wait, acquired);
        }
        if sids.contains(&NEW_SERIES) || fids.contains(&NEW_FIELD) {
            // Slow path: register new series/fields under the write lock.
            let wait = Instant::now();
            let mut idx = self.index.write();
            let acquired = Instant::now();
            let mut fids = fids.iter_mut();
            for (p, sid) in points.iter().zip(sids) {
                if *sid == NEW_SERIES {
                    *sid = idx.get_or_create(&SeriesKey::of(p));
                }
                for ((name, _), fid) in p.fields.iter().zip(fids.by_ref()) {
                    if *fid == NEW_FIELD {
                        *fid = idx.intern_field(name);
                    }
                }
            }
            drop(idx);
            self.observe_lock(wait, acquired);
        }
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

    /// Estimate a query's physical cost *without executing it* — the
    /// planning-time input to cost-based admission. Index cardinality and
    /// series selection are exact (one index read); points/blocks/bytes
    /// are scaled from the incremental statistics by the selected-series
    /// and overlapping-shard fractions. Deterministic for a given database
    /// state, monotone in range width and series count, and intentionally
    /// conservative rather than precise — admission thresholds are set
    /// relative to the same model.
    pub fn estimate_cost(&self, q: &Query) -> QueryCost {
        let mut cost = QueryCost { queries: 1, ..QueryCost::default() };
        if q.validate().is_err() {
            return cost;
        }
        let (card, series) = {
            let idx = self.index.read();
            (idx.cardinality(), idx.select_count(&q.measurement, &q.predicates))
        };
        cost.index_entries = card;
        cost.series = series;
        let (qs, qe) = (q.start.as_secs(), q.end.as_secs());
        let duration = self.config.shard_duration;
        // Prorate each overlapping shard by how much of it the range
        // actually covers, so a 30-minute window prices below a
        // whole-shard scan even when every shard spans a day.
        let (overlap, covered, total_shards) = {
            let map = self.shards.read();
            let mut overlap = 0usize;
            let mut covered = 0.0f64;
            for &start in map.keys() {
                let lo = qs.max(start);
                let hi = qe.min(start + duration);
                if lo < hi {
                    overlap += 1;
                    covered += (hi - lo) as f64 / duration as f64;
                }
            }
            (overlap, covered, map.len())
        };
        cost.shards_scanned = overlap;
        if series == 0 || overlap == 0 {
            return cost;
        }
        let series_frac = series as f64 / card.max(1) as f64;
        let shard_frac = covered / total_shards.max(1) as f64;
        let total_points = self.points.load(Ordering::Relaxed) as f64;
        let total_bytes = self.encoded_bytes.load(Ordering::Relaxed).max(0) as f64;
        cost.points = (total_points * series_frac * shard_frac).ceil() as usize;
        // One partial block per (series, shard) plus the sealed interior.
        cost.blocks = cost.points / crate::column::BLOCK_SIZE + series * overlap;
        cost.bytes = (total_bytes * series_frac * shard_frac).ceil() as usize;
        cost
    }

    /// Refresh the series/shard-count gauges (short index + shard-map
    /// reads; no shard data touched).
    fn update_topology_gauges(&self) {
        let series = self.index.read().cardinality() as i64;
        let shard_count = self.shards.read().len() as i64;
        monster_obs::gauge("monster_tsdb_series").set(series);
        monster_obs::gauge("monster_tsdb_shards").set(shard_count);
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
    /// scan, returning each query's results and physical cost in input
    /// order (an invalid query or a failed scan is an `Err` in its slot and
    /// does not disturb its neighbours).
    ///
    /// This is the engine's single level of read parallelism. The batch is
    /// resolved under one index read lock and one shard-map snapshot and
    /// flattened into `(query, series, shard)` scan items; the item list is
    /// cut into contiguous chunks of equal weight ([`Column::scan_weight`]:
    /// what each item will cost to scan), chunk 0 runs on the calling
    /// thread and the others on scoped threads. The thread count is
    /// `min(workers, scan_workers, cores)`, and 1 when the whole batch
    /// weighs less than [`INLINE_SCAN_WEIGHT`]. A chunk merges the queries
    /// it scanned completely; a query cut by a chunk boundary is merged by
    /// the caller from its pieces. Either way the merge consumes a query's
    /// items in series-major, shard-time order, so results and costs are
    /// identical for every thread count. A shard's read lock is held for
    /// one query's items in that shard at a time: a writer waits for a few
    /// column scans, never for a batch.
    ///
    /// [`Column::scan_weight`]: crate::column::Column::scan_weight
    pub fn query_batch<Q: Borrow<Query> + Sync>(
        &self,
        queries: &[Q],
        workers: usize,
    ) -> Vec<Result<(ResultSet, QueryCost)>> {
        let mut results: Vec<Option<QueryResult>> =
            queries.iter().map(|q| q.borrow().validate().err().map(Err)).collect();
        let (plan, keys) = self.plan_batch(queries, &results);
        let cuts = self.cut_batch(&plan, workers);
        self.run_batch(&plan, &keys, &cuts, &mut results);
        results.into_iter().map(|r| r.expect("every query is refused or planned")).collect()
    }

    /// Scan and merge `plan`, one thread per chunk (`cuts[k]..cuts[k + 1]`
    /// of its items), and put every planned query's result in its slot.
    fn run_batch(
        &self,
        plan: &BatchPlan<'_>,
        keys: &[Arc<SeriesKey>],
        cuts: &[usize],
        results: &mut [Option<QueryResult>],
    ) {
        let threads = cuts.len() - 1;
        let mut chunks =
            pool::scope_parts(threads, |k| self.scan_chunk(plan, cuts[k]..cuts[k + 1]));

        // Stitch the queries the cuts split: their pieces sit, in order, at
        // the edges of neighbouring chunks. The caller merges them.
        let mut pieces = chunks.iter_mut().flat_map(|c| c.pieces.drain(..)).peekable();
        let mut split = Vec::new();
        while let Some((pi, mut whole)) = pieces.next() {
            while let Some((_, more)) = pieces.next_if(|(next, _)| *next == pi) {
                whole.append(more);
            }
            split.push((pi, whole.merge(&plan.queries[pi])));
        }
        drop(pieces);
        chunks[0].merged.append(&mut split);

        // Keys, accounting and one span per chunk, on the calling thread
        // (so the spans are children of the caller's trace context).
        for chunk in chunks.into_iter().filter(|c| !c.merged.is_empty()) {
            let mut span = monster_obs::Span::enter("tsdb.query_scan");
            let ctx = Some(span.context());
            let (mut total, mut elapsed) = (QueryCost::default(), monster_sim::VDuration::ZERO);
            for (pi, merged) in chunk.merged {
                results[plan.queries[pi].at] = Some(merged.map(|m| {
                    let query_elapsed = self.simulate_elapsed(&m.cost);
                    self.query_metrics.seconds.observe_vdur_traced(query_elapsed, ctx);
                    elapsed += query_elapsed;
                    total.absorb(&m.cost);
                    let label = |(s, points): (usize, _)| SeriesResult {
                        key: Arc::clone(&keys[s]),
                        points,
                    };
                    let mut series: Vec<SeriesResult> = m.series.into_iter().map(label).collect();
                    series.sort_by(|a, b| a.key.cmp(&b.key));
                    (ResultSet { series }, m.cost)
                }));
            }
            // Self-monitoring: what the scans cost, in counts and in
            // simulated seconds (`monster_tsdb_*` on `/metrics`).
            self.query_metrics.queries.add(total.queries as u64);
            self.query_metrics.points.add(total.points as u64);
            self.query_metrics.blocks_decoded.add(total.blocks as u64);
            self.query_metrics.blocks_summarized.add(total.blocks_summarized as u64);
            span.set_attr("queries", total.queries.to_string());
            span.set_attr("points", total.points.to_string());
            span.set_attr("blocks", total.blocks.to_string());
            span.set_attr("threads", threads.to_string());
            // Queries overlap other pipeline work in virtual time, so the
            // span covers its simulated cost without advancing the clock.
            span.finish_spanning(elapsed);
        }
    }

    /// Resolve the batch's valid queries (those with no refusal in
    /// `results` yet): series under one index read lock, overlapping shards
    /// from one shard-map snapshot. Also returns the selected series' keys,
    /// parallel to [`BatchPlan::series`], for the caller to label results.
    fn plan_batch<'q, Q: Borrow<Query>>(
        &self,
        queries: &'q [Q],
        results: &[Option<QueryResult>],
    ) -> (BatchPlan<'q>, Vec<Arc<SeriesKey>>) {
        let valid = || {
            let all = queries.iter().map(Borrow::borrow).enumerate();
            all.filter(|(at, _)| results[*at].is_none())
        };
        // Shard starts are the map keys and every shard spans
        // `shard_duration`, so overlap is decided without touching a shard.
        let duration = self.config.shard_duration;
        let from = valid().map(|(_, q)| q.start.as_secs()).min().unwrap_or(0);
        let to = valid().map(|(_, q)| q.end.as_secs()).max().unwrap_or(from);
        let shards: Vec<(i64, Arc<RwLock<Shard>>)> = {
            let wait = Instant::now();
            let map = self.shards.read();
            let acquired = Instant::now();
            let out = map
                .range(from.saturating_sub(duration - 1)..to)
                .map(|(&start, s)| (start, Arc::clone(s)))
                .collect();
            drop(map);
            self.observe_lock(wait, acquired);
            out
        };

        let mut plan = BatchPlan { queries: Vec::new(), series: Vec::new(), shards };
        // Planning under the index read lock: the index work scales with
        // total cardinality — the series-cardinality tax the paper's
        // schema redesign attacks.
        let wait = Instant::now();
        let idx = self.index.read();
        let acquired = Instant::now();
        let index_entries = idx.cardinality();
        let mut first_item = 0;
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
                shards: plan.shards.partition_point(|(start, _)| start + duration <= qs)
                    ..plan.shards.partition_point(|(start, _)| *start < qe),
                first_item,
            };
            first_item = planned.items().end;
            plan.queries.push(planned);
        }
        let keys = plan.series.iter().map(|&id| Arc::clone(idx.key_of(id))).collect();
        drop(idx);
        self.observe_lock(wait, acquired);
        (plan, keys)
    }

    /// Where to cut the plan's item list: `cuts[k]..cuts[k + 1]` is chunk
    /// `k`. One chunk unless more than one thread is allowed *and* the
    /// batch is heavy enough to pay for a hand-off; then up to that many
    /// chunks of equal weight.
    fn cut_batch(&self, plan: &BatchPlan<'_>, workers: usize) -> Vec<usize> {
        let items = plan.queries.last().map_or(0, |p| p.items().end);
        let threads = workers.min(self.config.scan_workers).min(pool::cores()).min(items);
        if threads < 2 {
            return vec![0, items];
        }
        // Weigh every item, one (query, shard) lock acquisition at a time.
        let mut weights = vec![ITEM_WEIGHT; items];
        for p in &plan.queries {
            let Some(fid) = p.scanned_field() else { continue };
            let (qs, qe) = (p.query.start.as_secs(), p.query.end.as_secs());
            let mine = &mut weights[p.items()];
            for (h, (_, shard)) in plan.shards[p.shards.clone()].iter().enumerate() {
                // A peek at block headers: timing the lock would cost more
                // than holding it.
                let shard = shard.read();
                for (s, sid) in plan.series[p.series.clone()].iter().enumerate() {
                    if let Some(col) = shard.column(*sid, fid) {
                        mine[s * p.shards.len() + h] += col.scan_weight(qs, qe, p.agg.as_ref());
                    }
                }
            }
        }
        // `before[i]` is the weight of the items ahead of item `i`.
        let mut before = Vec::with_capacity(items + 1);
        before.push(0);
        for w in weights {
            before.push(before[before.len() - 1] + w);
        }
        let total = before[items];
        if total < INLINE_SCAN_WEIGHT {
            return vec![0, items];
        }
        let mut cuts: Vec<usize> =
            (0..=threads).map(|k| before.partition_point(|&w| w < total * k / threads)).collect();
        cuts[threads] = items;
        cuts.dedup();
        cuts
    }

    /// Scan the plan's items `range` in order, merging every query the
    /// range holds completely and handing back the scans of the (at most
    /// two) queries it shares with its neighbours.
    fn scan_chunk(&self, plan: &BatchPlan<'_>, range: Range<usize>) -> ChunkOut {
        let mut out = ChunkOut::default();
        let mut scratch = DecodeScratch::new();
        let mut scanned = Scanned::default();
        let first = plan.queries.partition_point(|p| p.items().end <= range.start);
        for (pi, p) in plan.queries.iter().enumerate().skip(first) {
            let items = p.items();
            if items.start >= range.end {
                break;
            }
            let mine = items.start.max(range.start)..items.end.min(range.end);
            let run = mine.start - items.start..mine.end - items.start;
            self.scan_run(plan, p, run, &mut scratch, &mut scanned);
            if mine == items {
                out.merged.push((pi, scanned.merge(p)));
            } else {
                out.pieces.push((pi, std::mem::take(&mut scanned)));
            }
        }
        out
    }

    /// Scan `p`'s items `run` (counted from its first) into `into`, in
    /// order. A shard's read lock is held for this query's consecutive
    /// items in that shard — all of them when one shard overlaps the
    /// range, one otherwise (series-major order alternates shards) — and
    /// never from one query to the next, so a writer waits for one query's
    /// column scans at most.
    fn scan_run(
        &self,
        plan: &BatchPlan<'_>,
        p: &Planned<'_>,
        run: Range<usize>,
        scratch: &mut DecodeScratch,
        into: &mut Scanned,
    ) {
        let Some(fid) = p.scanned_field() else {
            into.scans.extend(run.map(|_| ItemScan::default()));
            return;
        };
        let ns = p.shards.len();
        let (qs, qe) = (p.query.start.as_secs(), p.query.end.as_secs());
        let mut next = run.start;
        while next < run.end {
            let held = next..if ns == 1 { run.end } else { next + 1 };
            next = held.end;
            let wait = Instant::now();
            let shard = plan.shards[p.shards.start + held.start % ns].1.read();
            let acquired = Instant::now();
            for item in held {
                let kept = into.items.len();
                // After a failed scan the query's other items are skipped.
                let sid = plan.series[p.series.start + item / ns];
                let col = shard.column(sid, fid).filter(|_| into.failed.is_none());
                let stats = match (col, p.agg) {
                    (None, _) => Ok(ScanStats::default()),
                    (Some(col), Some(spec)) => {
                        col.scan_agg(scratch, spec, |item| into.items.push(item))
                    }
                    (Some(col), None) => col
                        .scan_with(scratch, qs, qe, |t, v| into.items.push(ScanItem::Point(t, v))),
                };
                let stats = stats.unwrap_or_else(|e| {
                    into.items.truncate(kept);
                    into.failed = Some(e);
                    ScanStats::default()
                });
                let len = into.items.len() - kept;
                into.scans.push(ItemScan { len, stats, cold: shard.is_cold() });
            }
            drop(shard);
            self.observe_lock(wait, acquired);
        }
    }

    /// Simulated elapsed time for a cost under this database's disk and
    /// cost parameters. With tiering configured, the cold share of the
    /// cost (`blocks_cold`/`bytes_cold`) is priced against the archive
    /// device instead of the hot disk.
    pub fn simulate_elapsed(&self, cost: &QueryCost) -> monster_sim::VDuration {
        match &self.config.tiering {
            Some(tier) => self.config.cost.elapsed_tiered(cost, &self.config.disk, &tier.cold_disk),
            None => self.config.cost.elapsed(cost, &self.config.disk),
        }
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
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            let before = shard.encoded_bytes() as i64;
            sealed += shard.compact();
            let delta = shard.encoded_bytes() as i64 - before;
            drop(shard);
            self.observe_lock(wait, acquired);
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
        let candidates: Vec<(i64, Arc<RwLock<Shard>>)> = {
            let wait = Instant::now();
            let map = self.shards.read();
            let acquired = Instant::now();
            let out = map.range(..cut).map(|(k, v)| (*k, Arc::clone(v))).collect();
            drop(map);
            self.observe_lock(wait, acquired);
            out
        };
        for (start, handle) in candidates {
            // Index read before shard write: the sanctioned nesting. The
            // writer names series from the index record by record, so both
            // are held through the durable segment write (see above).
            let idx = self.index.read();
            let wait = Instant::now();
            let mut shard = handle.write();
            let acquired = Instant::now();
            if shard.is_cold() {
                drop(shard);
                drop(idx);
                self.observe_lock(wait, acquired);
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
                    Err(e) => {
                        // Leave the shard hot: a later pass retries, and the
                        // WAL keeps covering it (reclaim below never runs).
                        drop(shard);
                        self.observe_lock(wait, acquired);
                        return Err(e);
                    }
                }
            }
            drop(idx);
            let pts = shard.point_count();
            shard.mark_cold();
            drop(shard);
            self.observe_lock(wait, acquired);
            self.encoded_bytes.fetch_add(delta, Ordering::Relaxed);
            report.shards_tiered += 1;
            report.points_tiered += pts;
        }
        if report.shards_tiered > 0 {
            monster_obs::counter("monster_tsdb_shards_tiered_total")
                .add(report.shards_tiered as u64);
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
    fn every_cut_placement_gives_the_same_answers() {
        // Three series over twenty hourly shards, sealed and raw: the
        // unfiltered query alone is 60 scan items, so cuts land inside
        // queries, inside series, and on every boundary in between — far
        // more chunks than this machine would ever be given threads.
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
        let run = |cuts_of: &dyn Fn(usize) -> Vec<usize>| {
            let mut results: Vec<Option<QueryResult>> =
                queries.iter().map(|q| q.validate().err().map(Err)).collect();
            let (plan, keys) = db.plan_batch(&queries, &results);
            let items = plan.queries.last().map_or(0, |p| p.items().end);
            db.run_batch(&plan, &keys, &cuts_of(items), &mut results);
            let done = results.into_iter().map(|r| r.expect("every slot filled"));
            (items, done.map(|r| r.map_err(|e| e.to_string())).collect::<Vec<_>>())
        };
        let (items, whole) = run(&|items| vec![0, items]);
        assert_eq!(items, 60 + 1 + 60 + 1 + 1 + 14, "items of the six valid queries");
        assert!(whole[2].is_err() && whole.iter().filter(|r| r.is_err()).count() == 1);
        assert_eq!(whole[0].as_ref().unwrap().0.series.len(), 3);
        assert_eq!(whole[1].as_ref().unwrap().0.point_count(), 3 + 3);
        for step in [1usize, 2, 7, 59, 61, 100] {
            let (_, cut) = run(&|items| (0..items).step_by(step).chain([items]).collect());
            assert_eq!(cut, whole, "a chunk every {step} items");
        }
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
