//! A cache hit must not copy body bytes.
//!
//! The first-generation `ResponseCache` deep-cloned the stored `Response`
//! on every hit — for a 1 MiB dashboard document served to 10 000
//! subscribers, that is 10 GiB of memcpy for bytes that never change.
//! Bodies are now `Arc<[u8]>` behind `monster_http::Body`, so a hit
//! clones a pointer. `counting_alloc::counted` proves it: the
//! cache-level hit path performs **zero** allocations, and a full
//! per-request serve (header clone + `X-Cache` stamp) allocates orders of
//! magnitude less than the body size.
//!
//! Everything counted here runs on the calling thread, and the window is
//! that thread's: sibling tests are not in it and nothing serializes.

use counting_alloc::Counts;
use monster_builder::qlog::{Disposition, Draft, LapClock, QueryRecorder, Stage};
use monster_builder::{ResponseCache, Validity};
use monster_http::Response;
use monster_obs::{SpanId, TraceId};
use monster_tsdb::{Db, DbConfig};

const BODY_LEN: usize = 1 << 20; // 1 MiB

/// (allocations, bytes) this thread asks for while `f` runs.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let ((), Counts { blocks, bytes, .. }) = counting_alloc::counted(f);
    (blocks, bytes)
}

#[test]
fn cache_hits_copy_zero_body_bytes() {
    let db = Db::new(DbConfig::default());
    let cache = ResponseCache::new(8);
    let body = vec![0x5Au8; BODY_LEN];
    cache.put("panel", Validity::Always, Response::bytes(body, "application/json"));
    // Warm: the first get may touch counter registry internals.
    let warm = cache.get("panel", &db).expect("present");
    assert_eq!(warm.body.len(), BODY_LEN);

    const HITS: usize = 100;
    let (allocs, bytes) = counted(|| {
        for _ in 0..HITS {
            let hit = cache.get("panel", &db).expect("present");
            assert_eq!(hit.body.len(), BODY_LEN);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "the cache hit path must be allocation-free: {HITS} hits allocated {bytes} bytes in {allocs} allocations"
    );
}

#[test]
fn flight_recording_on_the_hit_path_is_allocation_free() {
    // The PR-10 recorder rides the same warm path the test above
    // protects: the lap clock, the fingerprint and the in-place overwrite
    // of a locked ring slot must all stay off the heap, or recording
    // would regress the zero-copy hit guarantee.
    let db = Db::new(DbConfig::default());
    let cache = ResponseCache::new(8);
    let recorder = QueryRecorder::new(64, 0.0);
    let key = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
    let body = vec![0x5Au8; BODY_LEN];
    cache.put(key, Validity::Always, Response::bytes(body, "application/json"));
    // Warm: first probe + first record touch registry/calibration state.
    let (warm, _) = cache.probe(key, &db);
    assert_eq!(warm.expect("present").body.len(), BODY_LEN);
    {
        let d = Draft::new(key, "anonymous", TraceId(1), SpanId(1));
        recorder.record(&d);
    }

    const HITS: usize = 100;
    let (allocs, bytes) = counted(|| {
        for i in 0..HITS {
            // Exactly what the service's hit disposition does per
            // request, minus the (pre-existing) header clone.
            let mut clock = LapClock::start();
            let (hit, verdict) = cache.probe(key, &db);
            assert_eq!(hit.expect("present").body.len(), BODY_LEN);
            let mut d = Draft::new(key, "anonymous", TraceId(i as u128 + 2), SpanId(7));
            d.record.disposition = Disposition::Hit;
            d.record.verdict = verdict;
            d.record.status = 200;
            clock.lap(Stage::Cache);
            (d.record.stages_ns, d.record.total_ns) = clock.finish();
            d.record.bytes_out = BODY_LEN as u64;
            recorder.record(&d);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "recording a hit must be allocation-free: {HITS} recorded hits \
         allocated {bytes} bytes in {allocs} allocations"
    );
    assert_eq!(recorder.recorded(), HITS as u64 + 1);
    assert_eq!(recorder.dropped(), 0);
}

#[test]
fn per_request_serving_shares_the_body_storage() {
    let db = Db::new(DbConfig::default());
    let cache = ResponseCache::new(8);
    let body = vec![0x5Au8; BODY_LEN];
    cache.put("panel", Validity::Always, Response::bytes(body, "application/json"));
    let shared = cache.get("panel", &db).expect("present");

    // What the service does per request: clone the response (headers) and
    // stamp per-request headers. The body must remain the same storage.
    const SERVES: usize = 50;
    let mut out: Vec<Response> = Vec::with_capacity(SERVES);
    let (_allocs, bytes) = counted(|| {
        for _ in 0..SERVES {
            let mut resp = (*shared).clone();
            resp.headers.set("X-Cache", "hit");
            out.push(resp);
        }
    });
    for resp in &out {
        assert_eq!(resp.body.as_ptr(), shared.body.as_ptr(), "body storage must be shared");
    }
    // Headers and the Vec push allocate a little; the 1 MiB payload must
    // not be part of it — leave two orders of magnitude of headroom.
    assert!(
        bytes < SERVES * BODY_LEN / 100,
        "per-request serving copied body-scale memory: {bytes} bytes for {SERVES} serves"
    );
}
