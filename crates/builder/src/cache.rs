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
//!
//! The cache is also the single-flight (request coalescing), the way
//! Guava's `LoadingCache` is: a load in progress is itself the entry. 10 000
//! dashboards refreshing the same panel in the same instant are 10 000
//! identical requests; only one of them needs to touch storage. A request
//! the probe missed makes one [`ResponseCache::claim`], which under the
//! cache's one lock finds a stored answer (a hit), a flight in progress
//! (joined, and waited out outside the lock: `X-Cache: coalesced`) or
//! nothing, in which case the request leads and holds a [`Ticket`] until it
//! settles it. A completed flight's answer is in the map the moment its
//! flight leaves it, so no claim can miss both and execute a key twice.
//! Flights are never counted against the capacity and never evicted.

use crate::qlog::CacheVerdict;
use monster_http::Response;
use monster_obs::Registry;
use monster_tsdb::{Db, MeasurementMark};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, PoisonError};

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

impl Entry {
    fn verdict(&self, db: &Db) -> CacheVerdict {
        match &self.validity {
            Validity::Always => CacheVerdict::Negative,
            Validity::Watermarks(snap) if snap.still_valid(db) => CacheVerdict::Valid,
            Validity::Watermarks(_) => CacheVerdict::Invalidated,
        }
    }
}

/// What the cache holds under a key.
enum Slot {
    /// A stored answer.
    Answered(Entry),
    /// A leader is executing the key; joiners wait on the flight.
    Flying(Arc<Flight>),
}

/// One execution in progress: `None` until its leader lands it, then the
/// shared answer (`Some(None)`: the leader failed).
#[derive(Default)]
struct Flight {
    answer: std::sync::Mutex<Option<Option<Arc<Response>>>>,
    landed: Condvar,
}

impl Flight {
    fn land(&self, answer: Option<Arc<Response>>) {
        *self.answer.lock().unwrap_or_else(PoisonError::into_inner) = Some(answer);
        self.landed.notify_all();
    }

    fn wait(&self) -> Option<Arc<Response>> {
        let answer = self.answer.lock().unwrap_or_else(PoisonError::into_inner);
        let answer =
            self.landed.wait_while(answer, |a| a.is_none()).unwrap_or_else(PoisonError::into_inner);
        answer.clone().flatten()
    }
}

#[derive(Default)]
struct Inner {
    /// Monotonic use counter backing LRU ordering.
    tick: u64,
    /// Answered and in-flight keys alike.
    slots: HashMap<String, Slot>,
    /// The [`Slot::Answered`] ones: all that `capacity` bounds.
    answered: usize,
}

impl Inner {
    /// The still-valid answer stored under `key`; an invalid one is dropped.
    fn answer(&mut self, key: &str, db: &Db) -> (Option<Arc<Response>>, CacheVerdict) {
        let Some(Slot::Answered(entry)) = self.slots.get_mut(key) else {
            return (None, CacheVerdict::Absent);
        };
        let verdict = entry.verdict(db);
        if verdict == CacheVerdict::Invalidated {
            self.slots.remove(key);
            self.answered -= 1;
            return (None, verdict);
        }
        self.tick += 1;
        entry.last_used = self.tick;
        (Some(Arc::clone(&entry.response)), verdict)
    }
}

/// A capacity-bounded LRU response cache with watermark validity, and the
/// single-flight in front of execution. All methods take `&self`
/// (interior mutex); hits are clone-free on the body.
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: Arc<monster_obs::Counter>,
    misses: Arc<monster_obs::Counter>,
    evictions: Arc<monster_obs::Counter>,
}

/// What [`ResponseCache::claim`] decided for a key.
pub enum Claim<'c> {
    /// A still-valid stored answer, counted as a hit.
    Hit(Arc<Response>),
    /// The answer of the flight this request joined and waited out.
    Joined(Arc<Response>),
    /// Execute, then settle the ticket. A joiner whose leader failed, and
    /// every claim with coalescing off, leads unshared: its ticket has no
    /// flight, and completing it only stores.
    Lead(Ticket<'c>),
}

/// A leader's hold on its key. [`Ticket::complete`] stores the answer and
/// hands it to the joiners; [`Ticket::share`] only hands it over. Dropping
/// the ticket unsettled (an execution error, a panic) closes the flight
/// and wakes the joiners with nothing, to execute unshared, so a failed
/// leader never wedges its key.
#[must_use = "dropping a ticket fails its flight"]
pub struct Ticket<'c> {
    cache: &'c ResponseCache,
    key: &'c str,
    flight: Option<Arc<Flight>>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` answers (0 stores none; flights
    /// are not answers and still coalesce), its counters in a registry of
    /// its own.
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache::new_in(capacity, &Registry::new())
    }

    /// [`ResponseCache::new`], counting hits, misses and evictions in `obs`.
    pub fn new_in(capacity: usize, obs: &Registry) -> ResponseCache {
        ResponseCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: obs.counter_help(
                "monster_builder_cache_hits_total",
                "Requests served from the response cache without executing.",
            ),
            misses: obs.counter_help(
                "monster_builder_cache_misses_total",
                "Cache probes that found no still-valid entry.",
            ),
            evictions: obs.counter_help(
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
    /// for [`CacheVerdict::Valid`] and [`CacheVerdict::Negative`]. A key
    /// in flight is [`CacheVerdict::Absent`]: probing never joins.
    pub fn probe(&self, key: &str, db: &Db) -> (Option<Arc<Response>>, CacheVerdict) {
        let found = if self.capacity == 0 {
            (None, CacheVerdict::Absent)
        } else {
            self.inner.lock().answer(key, db)
        };
        match found.0 {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Decide, in one critical section, how a request that [`probe`]
    /// missed gets its answer: a stored one that became valid since is a
    /// hit; a flight in progress is joined, and the wait for its answer
    /// happens outside the cache lock; otherwise this request leads.
    /// `coalesce: false` never joins and never looks: every claim leads
    /// unshared.
    ///
    /// [`probe`]: ResponseCache::probe
    pub fn claim<'c>(&'c self, key: &'c str, db: &Db, coalesce: bool) -> Claim<'c> {
        let lead = |flight| Claim::Lead(Ticket { cache: self, key, flight });
        if !coalesce {
            return lead(None);
        }
        let mut inner = self.inner.lock();
        if let (Some(shared), _) = inner.answer(key, db) {
            self.hits.inc();
            return Claim::Hit(shared);
        }
        let flight = match inner.slots.get(key) {
            Some(Slot::Flying(flight)) => Arc::clone(flight),
            _ => {
                let flight = Arc::new(Flight::default());
                inner.slots.insert(key.to_string(), Slot::Flying(Arc::clone(&flight)));
                return lead(Some(flight));
            }
        };
        drop(inner);
        match flight.wait() {
            Some(shared) => Claim::Joined(shared),
            None => lead(None),
        }
    }

    /// Insert a response under `key`, evicting the least-recently-used
    /// answer if at capacity. Returns the shared handle. With capacity 0
    /// the response is still wrapped and returned, just not retained.
    pub fn put(&self, key: &str, validity: Validity, response: Response) -> Arc<Response> {
        let response = Arc::new(response);
        self.settle(key, None, Some((validity, Arc::clone(&response))));
        response
    }

    /// Under one lock: close `flight` if it still holds `key`, and store
    /// `answer` there unless the cache retains nothing.
    fn settle(
        &self,
        key: &str,
        flight: Option<&Arc<Flight>>,
        answer: Option<(Validity, Arc<Response>)>,
    ) {
        let answer = answer.filter(|_| self.capacity > 0);
        if flight.is_none() && answer.is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        if let (Some(Slot::Flying(open)), Some(ours)) = (inner.slots.get(key), flight) {
            if Arc::ptr_eq(open, ours) {
                inner.slots.remove(key);
            }
        }
        let Some((validity, response)) = answer else {
            return;
        };
        inner.tick += 1;
        let entry = Entry { validity, last_used: inner.tick, response };
        if let Some(Slot::Answered(_)) = inner.slots.insert(key.to_string(), Slot::Answered(entry))
        {
            return;
        }
        inner.answered += 1;
        if inner.answered > self.capacity {
            // The new entry holds the newest tick, so it is never the victim.
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Answered(e) => Some((e.last_used, k)),
                    Slot::Flying(_) => None,
                })
                .min()
                .map(|(_, k)| k.clone());
            if let Some(victim) = victim {
                inner.slots.remove(&victim);
                inner.answered -= 1;
                self.evictions.inc();
            }
        }
    }

    /// Answers currently cached (flights in progress are not counted).
    pub fn len(&self) -> usize {
        self.inner.lock().answered
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Ticket<'_> {
    /// Store `response` under `validity` and hand it to the joiners.
    /// Returns the shared handle.
    pub fn complete(mut self, validity: ValiditySnapshot, response: Response) -> Arc<Response> {
        let response = Arc::new(response);
        self.land(Some(Validity::Watermarks(validity)), Some(Arc::clone(&response)));
        response
    }

    /// Hand `response` to the joiners without storing it (an admission
    /// rejection: the joiners asked the same query, but the budget
    /// refills).
    pub fn share(mut self, response: Arc<Response>) {
        self.land(None, Some(response));
    }

    /// Store `answer` if `validity` is given, close the flight and hand
    /// `answer` to its joiners, under one cache lock.
    fn land(&mut self, validity: Option<Validity>, answer: Option<Arc<Response>>) {
        let flight = self.flight.take();
        self.cache.settle(self.key, flight.as_ref(), validity.zip(answer.clone()));
        if let Some(flight) = flight {
            flight.land(answer);
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.land(None, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_tsdb::{DataPoint, DbConfig};
    use monster_util::EpochSecs;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

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

    impl ResponseCache {
        /// Flights open now.
        fn flights(&self) -> usize {
            self.inner.lock().slots.values().filter(|s| matches!(s, Slot::Flying(_))).count()
        }

        /// Joiners holding `key`'s open flight: parked on it, or past the
        /// claim and about to be — either way they will get its answer.
        /// (Here, not beside `len`: only tests need it, the service's
        /// among them.)
        pub(crate) fn joiners(&self, key: &str) -> usize {
            match self.inner.lock().slots.get(key) {
                // The map and the ticket hold one reference each.
                Some(Slot::Flying(flight)) => Arc::strong_count(flight) - 2,
                _ => 0,
            }
        }
    }

    /// The ticket of a claim that must lead a flight.
    fn leads<'c>(claim: Claim<'c>) -> Ticket<'c> {
        match claim {
            Claim::Lead(ticket) if ticket.flight.is_some() => ticket,
            _ => panic!("this claim must lead a flight"),
        }
    }

    fn power_db() -> Db {
        let db = Db::new(DbConfig::default());
        db.write(power_point(100)).unwrap();
        db
    }

    fn open_window(db: &Db) -> ValiditySnapshot {
        ValiditySnapshot::capture(db, ["Power"], 1000)
    }

    #[test]
    fn first_claim_leads_later_claims_join() {
        let (cache, db) = (ResponseCache::new(4), power_db());
        let ticket = leads(cache.claim("k", &db, true));
        assert_eq!(cache.flights(), 1);
        assert!(cache.is_empty(), "a flight is not an answer");

        let executions = AtomicUsize::new(0);
        thread::scope(|s| {
            let joiners: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| match cache.claim("k", &db, true) {
                        Claim::Lead(_) => {
                            executions.fetch_add(1, Ordering::SeqCst);
                            String::new()
                        }
                        Claim::Joined(shared) => String::from_utf8(shared.body.to_vec()).unwrap(),
                        Claim::Hit(_) => panic!("every claim came before the answer"),
                    })
                })
                .collect();
            // Publish once every joiner is on the flight.
            while cache.joiners("k") < 4 {
                thread::yield_now();
            }
            ticket.complete(open_window(&db), resp("the-answer"));
            for j in joiners {
                assert_eq!(j.join().unwrap(), "the-answer");
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 0, "nobody re-executed");
        assert_eq!(cache.flights(), 0, "flight closed");
        assert_eq!(cache.len(), 1, "and its answer stored");
    }

    #[test]
    fn dropped_ticket_releases_joiners_to_execute() {
        let (cache, db) = (ResponseCache::new(4), power_db());
        let ticket = leads(cache.claim("k", &db, true));
        thread::scope(|s| {
            let joiner = s.spawn(|| match cache.claim("k", &db, true) {
                Claim::Lead(ticket) => ticket.flight.is_none(),
                Claim::Joined(_) | Claim::Hit(_) => false,
            });
            while cache.joiners("k") == 0 {
                thread::yield_now();
            }
            drop(ticket); // early return / panic path
            assert!(joiner.join().unwrap(), "a joiner must get no answer and execute unshared");
        });
        // The key is free again: the next claim leads.
        drop(leads(cache.claim("k", &db, true)));
        assert!(cache.is_empty(), "a failed flight stores nothing");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let (cache, db) = (ResponseCache::new(4), power_db());
        let a = leads(cache.claim("a", &db, true));
        let b = leads(cache.claim("b", &db, true));
        assert_eq!(cache.flights(), 2);
        a.complete(open_window(&db), resp("a"));
        drop(b);
        assert_eq!(cache.flights(), 0);
    }

    #[test]
    fn a_claim_after_a_stored_flight_hits_and_never_leads_again() {
        // A request probes and misses; another leads the key and stores its
        // answer; the first request's claim is a hit on that answer, not a
        // second execution.
        let (cache, db) = (ResponseCache::new(4), power_db());
        assert_eq!(cache.probe("k", &db).1, CacheVerdict::Absent);
        let stored = leads(cache.claim("k", &db, true)).complete(open_window(&db), resp("a"));
        match cache.claim("k", &db, true) {
            Claim::Hit(got) => assert!(Arc::ptr_eq(&got, &stored)),
            Claim::Joined(_) | Claim::Lead(_) => panic!("the stored answer must hit"),
        }
        // An invalidated answer is a lead again.
        db.write(power_point(200)).unwrap();
        drop(leads(cache.claim("k", &db, true)));
    }

    #[test]
    fn flights_are_neither_counted_nor_evicted_and_coalescing_off_never_joins() {
        let (cache, db) = (ResponseCache::new(1), power_db());
        let flying = leads(cache.claim("f", &db, true));
        cache.put("a", Validity::Always, resp("a"));
        cache.put("b", Validity::Always, resp("b"));
        assert_eq!((cache.len(), cache.flights()), (1, 1), "b evicted a, never the flight");
        match cache.claim("f", &db, false) {
            Claim::Lead(ticket) => {
                assert!(ticket.flight.is_none(), "coalescing off leads unshared")
            }
            Claim::Joined(_) | Claim::Hit(_) => panic!("coalescing off never joins"),
        }
        flying.complete(open_window(&db), resp("f"));
        assert_eq!((cache.len(), cache.flights()), (1, 0));
        assert!(cache.get("f", &db).is_some() && cache.get("b", &db).is_none());

        // Retaining nothing still coalesces.
        let none = ResponseCache::new(0);
        let ticket = leads(none.claim("k", &db, true));
        assert_eq!(none.flights(), 1);
        ticket.complete(open_window(&db), resp("k"));
        assert_eq!((none.len(), none.flights()), (0, 0));
    }

    const THREADS: usize = 8;
    const ROUNDS: usize = 2_000;
    const KEYS: [&str; 3] = ["a", "b", "c"];

    /// The round a thread last led a key in, and what it published then
    /// (`None`: it dropped the lead).
    type Lead = Option<(usize, Option<Arc<Response>>)>;

    /// What the stress test's claimants share.
    struct Race {
        /// Retains nothing, so that every round leads again.
        cache: ResponseCache,
        db: Db,
        round_start: std::sync::Barrier,
        /// Per key: a flight of it is being led right now.
        leading: [AtomicBool; KEYS.len()],
        /// Per key and thread.
        led: [[std::sync::Mutex<Lead>; THREADS]; KEYS.len()],
        followed: AtomicUsize,
    }

    /// One claimant: every round, threads 0–3 race for one key's flight and
    /// threads 4–7 for the next key's.
    fn race(sh: &Race, t: usize) {
        for round in 0..ROUNDS {
            // Nobody is more than a round ahead, so `led` entries of this
            // round stay put until every joiner has checked them.
            sh.round_start.wait();
            let k = (round + t / 4) % KEYS.len();
            let got = match sh.cache.claim(KEYS[k], &sh.db, true) {
                Claim::Lead(ticket) if ticket.flight.is_some() => {
                    assert!(
                        !sh.leading[k].swap(true, Ordering::SeqCst),
                        "a flight with two leaders"
                    );
                    // Every third lead fails the way an execution error
                    // does: the ticket drops.
                    let answer = (!(round + t).is_multiple_of(3)).then(|| Arc::new(resp("answer")));
                    *sh.led[k][t].lock().unwrap() = Some((round, answer.clone()));
                    // Hold the flight open for a joiner, but not for ever:
                    // no assertion depends on one arriving.
                    for _ in 0..20 {
                        if sh.cache.joiners(KEYS[k]) > 0 {
                            break;
                        }
                        thread::yield_now();
                    }
                    sh.leading[k].store(false, Ordering::SeqCst);
                    match answer {
                        Some(a) => ticket.share(a),
                        None => drop(ticket),
                    }
                    continue;
                }
                Claim::Lead(_) => None,
                Claim::Joined(got) => Some(got),
                Claim::Hit(_) => panic!("a cache that retains nothing hit"),
            };
            sh.followed.fetch_add(1, Ordering::Relaxed);
            // The leads of this key in this round; the flight's own mutex
            // ordered their `led` writes before this wake-up.
            let leads: Vec<Option<Arc<Response>>> = sh.led[k]
                .iter()
                .filter_map(|l| l.lock().unwrap().clone())
                .filter_map(|(r, answer)| (r == round).then_some(answer))
                .collect();
            match got {
                Some(got) => assert!(
                    leads.iter().flatten().any(|a| Arc::ptr_eq(a, &got)),
                    "a joiner got an answer no leader of its flight published"
                ),
                None => assert!(
                    leads.iter().any(|a| a.is_none()),
                    "a joiner got no answer and no leader dropped its flight"
                ),
            }
        }
    }

    #[test]
    fn racing_claims_have_one_leader_and_every_joiner_its_answer() {
        let sh = Arc::new(Race {
            cache: ResponseCache::new(0),
            db: Db::new(DbConfig::default()),
            round_start: std::sync::Barrier::new(THREADS),
            leading: Default::default(),
            led: Default::default(),
            followed: AtomicUsize::new(0),
        });
        // Detached threads and a channel, not `thread::scope`: a lost
        // wakeup parks a joiner for ever, a scope would wait for it, and a
        // hung test says nothing. The watchdog fails it instead.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let claimants: Vec<_> = (0..THREADS)
            .map(|t| {
                let (sh, done_tx) = (Arc::clone(&sh), done_tx.clone());
                thread::spawn(move || {
                    let run = std::panic::AssertUnwindSafe(|| race(&sh, t));
                    done_tx.send(std::panic::catch_unwind(run).is_ok()).unwrap();
                })
            })
            .collect();
        for _ in 0..THREADS {
            match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok(true) => {}
                Ok(false) => panic!("a claimant failed an assertion (printed above)"),
                Err(_) => panic!("a claimant is stuck: a lost wakeup, or a flight left open"),
            }
        }
        claimants.into_iter().for_each(|c| c.join().unwrap());
        assert_eq!(sh.cache.flights(), 0, "every flight closed");
        assert!(sh.followed.load(Ordering::Relaxed) > 0, "no claim ever joined");
    }
}
