//! Request coalescing (single-flight).
//!
//! 10 000 dashboards refreshing the same panel in the same instant are
//! 10 000 identical requests; only one of them needs to touch storage.
//! The first request to [`FlightGroup::join`] a key becomes the **leader**
//! and executes; everyone arriving while the flight is open blocks on its
//! condvar and receives the leader's shared response (`X-Cache:
//! coalesced`). If the leader fails — execution error, panic (via the
//! `Drop` backstop), or an admission rejection it chooses not to share —
//! followers wake with `None` and fall back to executing themselves, so a
//! failed leader never wedges the key.
//!
//! Admission control runs on the *leader only*, after the join: a
//! coalesced burst drains one admission token, not one per request —
//! coalescing is exactly the mechanism that makes the burst cheap.

use monster_http::Response;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight execution: `None` while pending, `Some(result)` once the
/// leader completes (`result == None` means the leader failed).
#[derive(Default)]
struct Flight {
    state: Mutex<Option<Option<Arc<Response>>>>,
    done: Condvar,
}

type FlightMap = Arc<Mutex<HashMap<String, Arc<Flight>>>>;

/// The per-router registry of open flights.
#[derive(Default)]
pub struct FlightGroup {
    flights: FlightMap,
}

/// The outcome of joining a key.
pub enum Join {
    /// This request leads: execute, then call [`Leader::complete`].
    Leader(Leader),
    /// Another request led. `Some` carries its shared response; `None`
    /// means the leader failed and this request should execute directly.
    Follower(Option<Arc<Response>>),
}

impl FlightGroup {
    /// An empty flight group.
    pub fn new() -> FlightGroup {
        FlightGroup::default()
    }

    /// Join the flight for `key`: lead it if nobody else is, otherwise
    /// block until the leader completes and share its result.
    pub fn join(&self, key: &str) -> Join {
        let flight = {
            let mut map = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(key) {
                Some(f) => Arc::clone(f),
                None => {
                    let f = Arc::new(Flight::default());
                    map.insert(key.to_string(), Arc::clone(&f));
                    return Join::Leader(Leader {
                        flights: Arc::clone(&self.flights),
                        key: key.to_string(),
                        flight: f,
                        completed: false,
                    });
                }
            }
        };
        let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.is_none() {
            state = flight.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        Join::Follower(state.clone().expect("loop exits only once set"))
    }

    /// Number of currently open flights (for tests/metrics).
    pub fn open(&self) -> usize {
        self.flights.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// The leader's completion handle. Dropping it without calling
/// [`Leader::complete`] (an early return or panic on the execution path)
/// completes the flight with `None`, releasing followers to execute
/// themselves.
pub struct Leader {
    flights: FlightMap,
    key: String,
    flight: Arc<Flight>,
    completed: bool,
}

impl Leader {
    /// Publish the flight's result to every waiting follower and close
    /// the flight. `None` tells followers to execute directly.
    pub fn complete(mut self, result: Option<Arc<Response>>) {
        self.finish(result);
    }

    fn finish(&mut self, result: Option<Arc<Response>>) {
        if self.completed {
            return;
        }
        self.completed = true;
        // Remove the key first: requests arriving from here on start a new
        // flight instead of piling onto a finished one.
        self.flights.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.key);
        let mut state = self.flight.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = Some(result);
        self.flight.done.notify_all();
    }
}

impl Drop for Leader {
    fn drop(&mut self) {
        self.finish(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_http::Response as Resp;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    impl FlightGroup {
        /// Followers holding `key`'s open flight: parked on it, or past
        /// the map lookup and about to be — either way they will get its
        /// result. (Here, not beside `open`: only tests need it, the
        /// service's among them.)
        pub(crate) fn followers(&self, key: &str) -> usize {
            let map = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            // The map and the leader hold one reference each.
            map.get(key).map_or(0, |f| Arc::strong_count(f) - 2)
        }
    }

    fn resp(body: &str) -> Arc<Resp> {
        Arc::new(Resp::bytes(body.as_bytes().to_vec(), "text/plain"))
    }

    #[test]
    fn first_join_leads_later_joins_follow() {
        let group = Arc::new(FlightGroup::new());
        let leader = match group.join("k") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!("first join must lead"),
        };
        assert_eq!(group.open(), 1);

        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let group = Arc::clone(&group);
            let executions = Arc::clone(&executions);
            handles.push(thread::spawn(move || match group.join("k") {
                Join::Leader(_) => {
                    executions.fetch_add(1, Ordering::SeqCst);
                    String::new()
                }
                Join::Follower(Some(shared)) => String::from_utf8(shared.body.to_vec()).unwrap(),
                Join::Follower(None) => panic!("leader completed successfully"),
            }));
        }
        // Give the followers a moment to park, then publish.
        thread::sleep(std::time::Duration::from_millis(20));
        leader.complete(Some(resp("the-answer")));
        for h in handles {
            assert_eq!(h.join().unwrap(), "the-answer");
        }
        assert_eq!(executions.load(Ordering::SeqCst), 0, "nobody re-executed");
        assert_eq!(group.open(), 0, "flight closed");
    }

    #[test]
    fn dropped_leader_releases_followers_to_execute() {
        let group = Arc::new(FlightGroup::new());
        let leader = match group.join("k") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let follower = {
            let group = Arc::clone(&group);
            thread::spawn(move || match group.join("k") {
                Join::Follower(result) => result.is_none(),
                Join::Leader(_) => false,
            })
        };
        thread::sleep(std::time::Duration::from_millis(20));
        drop(leader); // early return / panic path
        assert!(follower.join().unwrap(), "follower must get None and self-serve");
        // The key is free again: the next join leads.
        assert!(matches!(group.join("k"), Join::Leader(_)));
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let group = FlightGroup::new();
        let a = match group.join("a") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!(),
        };
        let b = match group.join("b") {
            Join::Leader(l) => l,
            Join::Follower(_) => panic!(),
        };
        assert_eq!(group.open(), 2);
        a.complete(Some(resp("a")));
        b.complete(None);
        assert_eq!(group.open(), 0);
    }

    const THREADS: usize = 8;
    const ROUNDS: usize = 2_000;
    const KEYS: [&str; 3] = ["a", "b", "c"];

    /// The round a thread last led a key in, and what it published then
    /// (`None`: it dropped the lead).
    type Lead = Option<(usize, Option<Arc<Resp>>)>;

    /// What the stress test's joiners share.
    struct Race {
        group: FlightGroup,
        round_start: std::sync::Barrier,
        /// Per key: a flight of it is being led right now.
        leading: [AtomicBool; KEYS.len()],
        /// Per key and thread.
        led: [[Mutex<Lead>; THREADS]; KEYS.len()],
        followed: AtomicUsize,
    }

    /// One joiner: every round, threads 0–3 race for one key's flight and
    /// threads 4–7 for the next key's.
    fn race(sh: &Race, t: usize) {
        for round in 0..ROUNDS {
            // Nobody is more than a round ahead, so `led` entries of this
            // round stay put until every follower has checked them.
            sh.round_start.wait();
            let k = (round + t / 4) % KEYS.len();
            match sh.group.join(KEYS[k]) {
                Join::Leader(leader) => {
                    assert!(
                        !sh.leading[k].swap(true, Ordering::SeqCst),
                        "a flight with two leaders"
                    );
                    // Every third lead fails the way an execution error
                    // does: the handle drops.
                    let answer = (!(round + t).is_multiple_of(3)).then(|| resp("answer"));
                    *sh.led[k][t].lock().unwrap() = Some((round, answer.clone()));
                    // Hold the flight open for a follower, but not for
                    // ever: no assertion depends on one arriving.
                    for _ in 0..20 {
                        if sh.group.followers(KEYS[k]) > 0 {
                            break;
                        }
                        thread::yield_now();
                    }
                    sh.leading[k].store(false, Ordering::SeqCst);
                    match answer {
                        Some(a) => leader.complete(Some(a)),
                        None => drop(leader),
                    }
                }
                Join::Follower(got) => {
                    sh.followed.fetch_add(1, Ordering::Relaxed);
                    // The leads of this key in this round; the flight's own
                    // mutex ordered their `led` writes before this wake-up.
                    let leads: Vec<Option<Arc<Resp>>> = sh.led[k]
                        .iter()
                        .filter_map(|l| l.lock().unwrap().clone())
                        .filter_map(|(r, answer)| (r == round).then_some(answer))
                        .collect();
                    match got {
                        Some(got) => assert!(
                            leads.iter().flatten().any(|a| Arc::ptr_eq(a, &got)),
                            "a follower got an answer no leader of its flight published"
                        ),
                        None => assert!(
                            leads.iter().any(|a| a.is_none()),
                            "a follower got None and no leader dropped its flight"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn racing_joins_have_one_leader_and_every_follower_its_answer() {
        let sh = Arc::new(Race {
            group: FlightGroup::new(),
            round_start: std::sync::Barrier::new(THREADS),
            leading: Default::default(),
            led: Default::default(),
            followed: AtomicUsize::new(0),
        });
        // Detached threads and a channel, not `thread::scope`: a lost
        // wakeup parks a follower for ever, a scope would wait for it, and
        // a hung test says nothing. The watchdog fails it instead.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let joiners: Vec<_> = (0..THREADS)
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
                Ok(false) => panic!("a joiner failed an assertion (printed above)"),
                Err(_) => panic!("a joiner is stuck: a lost wakeup, or a flight left open"),
            }
        }
        joiners.into_iter().for_each(|j| j.join().unwrap());
        assert_eq!(sh.group.open(), 0, "every flight closed");
        assert!(sh.followed.load(Ordering::Relaxed) > 0, "no join ever followed");
    }
}
