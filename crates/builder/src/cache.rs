//! Watermark-validity response cache.
//!
//! Dashboards are *repeated* queries over sliding windows, so the cache is
//! where a serving tier lives or dies. The first-generation cache stamped
//! every entry with the database's global write-batch count — any write
//! anywhere invalidated everything, so under a 60 s collection cadence the
//! hit rate was effectively zero. This version derives validity from the
//! per-measurement ingest watermarks the TSDB now tracks
//! ([`monster_tsdb::MeasurementMark`]):
//!
//! * an entry records, per measurement its plan touched, the mark observed
//!   *before* execution, plus the query's exclusive `end` bound;
//! * on probe, a measurement whose mark is unchanged proves nothing moved;
//! * if the mark advanced but only by in-order appends (`backfills`
//!   unchanged) and the entry's window was already **closed** (`end <=
//!   max_ts` at build time), the entry is still byte-valid — new points
//!   land strictly above the old watermark, outside `[start, end)`. Closed
//!   historical windows therefore never expire;
//! * any backfill invalidates.
//!
//! Nothing removes data from the store (a shard goes hot → cold and stays
//! readable), so the watermarks are the whole validity rule.
//!
//! Bodies are shared: entries hold `Arc<Response>` and the response body
//! itself is a shared [`monster_http::Body`], so serving a hit clones a
//! reference count and a small header map — never the payload.
//!
//! Deterministic request rejections (unparsable parameters) are cached
//! too, with [`Validity::Always`] — the negative cache. They depend on no
//! data, only on the URL, and are capacity-bounded like everything else.

use crate::qlog::CacheVerdict;
use monster_http::Response;
use monster_tsdb::{Db, MeasurementMark};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The watermark state a cached entry was built against: one mark per
/// measurement the plan touched and the query's exclusive `end` bound.
#[derive(Debug, Clone)]
pub struct ValiditySnapshot {
    end: i64,
    marks: Vec<(String, MeasurementMark)>,
}

impl ValiditySnapshot {
    /// Snapshot the current marks for `measurements` (deduplicated) and
    /// the window's exclusive `end`. Must be taken **before** the query
    /// executes: a write racing the execution then at worst invalidates a
    /// correct entry, never validates a stale one.
    pub fn capture<'m>(
        db: &Db,
        measurements: impl IntoIterator<Item = &'m str>,
        end: i64,
    ) -> ValiditySnapshot {
        let mut marks: Vec<(String, MeasurementMark)> = Vec::new();
        for m in measurements {
            if marks.iter().any(|(name, _)| name == m) {
                continue;
            }
            marks.push((m.to_string(), db.measurement_mark(m)));
        }
        ValiditySnapshot { end, marks }
    }

    /// Is an entry built against this snapshot still byte-valid?
    pub fn still_valid(&self, db: &Db) -> bool {
        for (measurement, stamp) in &self.marks {
            let cur = db.measurement_mark(measurement);
            if cur == *stamp {
                continue;
            }
            if cur.backfills != stamp.backfills {
                return false;
            }
            // Closed window: everything since the snapshot was an in-order
            // append at a timestamp strictly above `stamp.max_ts >= end`,
            // outside this entry's half-open range.
            if self.end <= stamp.max_ts {
                continue;
            }
            return false;
        }
        true
    }
}

/// How long a cache entry stays servable.
#[derive(Debug, Clone)]
pub enum Validity {
    /// Forever (deterministic, data-independent responses — the negative
    /// cache for known-invalid requests). Bounded only by LRU capacity.
    Always,
    /// Until the watermark snapshot stops validating.
    Watermarks(ValiditySnapshot),
}

#[derive(Debug)]
struct Entry {
    validity: Validity,
    last_used: u64,
    response: Arc<Response>,
}

#[derive(Default)]
struct Inner {
    /// Monotonic use counter backing LRU ordering.
    tick: u64,
    entries: HashMap<String, Entry>,
}

/// A capacity-bounded LRU response cache with watermark validity. All
/// methods take `&self` (interior mutex); hits are clone-free on the body.
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: Arc<monster_obs::Counter>,
    misses: Arc<monster_obs::Counter>,
    evictions: Arc<monster_obs::Counter>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: monster_obs::counter_help(
                "monster_builder_cache_hits_total",
                "Requests served from the response cache without executing.",
            ),
            misses: monster_obs::counter_help(
                "monster_builder_cache_misses_total",
                "Cache probes that found no still-valid entry.",
            ),
            evictions: monster_obs::counter_help(
                "monster_builder_cache_evictions_total",
                "Response-cache entries evicted (LRU pressure or staleness).",
            ),
        }
    }

    /// Look up `key`, validating the entry's watermark snapshot against
    /// `db`. Invalid entries are dropped eagerly. A hit shares the stored
    /// response — no body bytes are copied.
    pub fn get(&self, key: &str, db: &Db) -> Option<Arc<Response>> {
        self.probe(key, db).0
    }

    /// [`ResponseCache::get`] plus *why*: the [`CacheVerdict`] the flight
    /// recorder and `?explain=true` report. The response is `Some` exactly
    /// for [`CacheVerdict::Valid`] and [`CacheVerdict::Negative`].
    pub fn probe(&self, key: &str, db: &Db) -> (Option<Arc<Response>>, CacheVerdict) {
        let found = self.lookup(key, db);
        if found.0.is_none() {
            self.misses.inc();
        }
        found
    }

    /// [`ResponseCache::probe`] without the miss count: a second look on
    /// behalf of a request `probe` has already counted.
    pub(crate) fn lookup(&self, key: &str, db: &Db) -> (Option<Arc<Response>>, CacheVerdict) {
        if self.capacity == 0 {
            return (None, CacheVerdict::Absent);
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let verdict = match inner.entries.get(key) {
            Some(entry) => match &entry.validity {
                Validity::Always => CacheVerdict::Negative,
                Validity::Watermarks(snap) if snap.still_valid(db) => CacheVerdict::Valid,
                Validity::Watermarks(_) => CacheVerdict::Invalidated,
            },
            None => return (None, CacheVerdict::Absent),
        };
        if verdict == CacheVerdict::Invalidated {
            inner.entries.remove(key);
            return (None, verdict);
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key).expect("checked above");
        entry.last_used = tick;
        self.hits.inc();
        (Some(Arc::clone(&entry.response)), verdict)
    }

    /// Insert a response under `key`, evicting the least-recently-used
    /// entry if at capacity. Returns the shared handle (callers complete
    /// coalesced flights with it). With capacity 0 the response is still
    /// wrapped and returned, just not retained.
    pub fn put(&self, key: &str, validity: Validity, response: Response) -> Arc<Response> {
        let response = Arc::new(response);
        if self.capacity == 0 {
            return response;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(key) && inner.entries.len() >= self.capacity {
            if let Some(victim) =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.inc();
            }
        }
        inner.entries.insert(
            key.to_string(),
            Entry { validity, last_used: tick, response: Arc::clone(&response) },
        );
        response
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_tsdb::{DataPoint, DbConfig};
    use monster_util::EpochSecs;

    fn resp(body: &str) -> Response {
        Response::bytes(body.as_bytes().to_vec(), "text/plain")
    }

    fn power_point(ts: i64) -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(ts))
            .tag("NodeId", "10.101.1.1")
            .field_f64("Reading", 250.0)
    }

    fn snap(db: &Db, end: i64) -> Validity {
        Validity::Watermarks(ValiditySnapshot::capture(db, ["Power"], end))
    }

    #[test]
    fn open_window_invalidated_by_any_append() {
        let db = Db::new(DbConfig::default());
        db.write(power_point(100)).unwrap();
        let cache = ResponseCache::new(4);
        // Open window: end (1000) is above the watermark (100).
        cache.put("k", snap(&db, 1000), resp("a"));
        assert!(cache.get("k", &db).is_some());
        db.write(power_point(200)).unwrap();
        assert!(cache.get("k", &db).is_none(), "append into the open window must invalidate");
    }

    #[test]
    fn closed_window_survives_in_order_appends() {
        let db = Db::new(DbConfig::default());
        db.write(power_point(500)).unwrap();
        let cache = ResponseCache::new(4);
        // Closed window: end (300) is at/below the watermark (500).
        cache.put("k", snap(&db, 300), resp("a"));
        db.write(power_point(600)).unwrap();
        db.write(power_point(700)).unwrap();
        let hit = cache.get("k", &db).expect("closed window never expires on appends");
        assert_eq!(hit.body, b"a");
    }

    #[test]
    fn closed_window_invalidated_by_backfill() {
        let db = Db::new(DbConfig::default());
        db.write(power_point(500)).unwrap();
        let cache = ResponseCache::new(4);
        cache.put("k", snap(&db, 300), resp("a"));
        // Backfill at ts=100, inside history: rewrites the closed window.
        db.write(power_point(100)).unwrap();
        assert!(cache.get("k", &db).is_none(), "backfill must invalidate closed windows");
    }

    #[test]
    fn unrelated_measurement_writes_do_not_invalidate() {
        let db = Db::new(DbConfig::default());
        db.write(power_point(100)).unwrap();
        let cache = ResponseCache::new(4);
        cache.put("k", snap(&db, 1000), resp("a"));
        db.write(
            DataPoint::new("Thermal", EpochSecs::new(50))
                .tag("NodeId", "10.101.1.1")
                .field_f64("Reading", 40.0),
        )
        .unwrap();
        assert!(cache.get("k", &db).is_some(), "other measurements are irrelevant");
    }

    #[test]
    fn negative_entries_valid_across_any_writes() {
        let db = Db::new(DbConfig::default());
        let cache = ResponseCache::new(4);
        cache.put("bad", Validity::Always, resp("nope"));
        db.write(power_point(100)).unwrap();
        db.write(power_point(50)).unwrap();
        assert_eq!(cache.get("bad", &db).unwrap().body, b"nope");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let db = Db::new(DbConfig::default());
        let cache = ResponseCache::new(2);
        cache.put("a", Validity::Always, resp("a"));
        cache.put("b", Validity::Always, resp("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a", &db).is_some());
        cache.put("c", Validity::Always, resp("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a", &db).is_some());
        assert!(cache.get("b", &db).is_none());
        assert!(cache.get("c", &db).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let db = Db::new(DbConfig::default());
        let cache = ResponseCache::new(0);
        let shared = cache.put("k", Validity::Always, resp("a"));
        assert_eq!(shared.body, b"a", "put still returns the shared handle");
        assert!(cache.get("k", &db).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn probe_verdicts_name_the_reason() {
        let db = Db::new(DbConfig::default());
        db.write(power_point(100)).unwrap();
        let cache = ResponseCache::new(4);

        let (resp0, verdict) = cache.probe("k", &db);
        assert!(resp0.is_none());
        assert_eq!(verdict, CacheVerdict::Absent);

        cache.put("k", snap(&db, 1000), resp("a"));
        let (resp1, verdict) = cache.probe("k", &db);
        assert!(resp1.is_some());
        assert_eq!(verdict, CacheVerdict::Valid);

        cache.put("bad", Validity::Always, resp("nope"));
        let (resp2, verdict) = cache.probe("bad", &db);
        assert!(resp2.is_some());
        assert_eq!(verdict, CacheVerdict::Negative);

        // Append into the open window: invalidated, then gone.
        db.write(power_point(200)).unwrap();
        let (resp3, verdict) = cache.probe("k", &db);
        assert!(resp3.is_none());
        assert_eq!(verdict, CacheVerdict::Invalidated);
        assert_eq!(cache.probe("k", &db).1, CacheVerdict::Absent, "invalid entries drop eagerly");
    }

    #[test]
    fn hits_share_one_body_allocation() {
        let db = Db::new(DbConfig::default());
        let cache = ResponseCache::new(4);
        cache.put("k", Validity::Always, resp("shared-body"));
        let a = cache.get("k", &db).unwrap();
        let b = cache.get("k", &db).unwrap();
        // Same Arc<Response>: the body bytes exist exactly once.
        assert!(Arc::ptr_eq(&a, &b));
        // And a per-request clone still shares the body storage.
        let served = (*a).clone();
        assert_eq!(served.body.as_ptr(), a.body.as_ptr());
    }
}
