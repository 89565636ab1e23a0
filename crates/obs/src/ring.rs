//! The flight recorder's ring: a bounded, pre-allocated log of wide
//! records, one per unit of work — a service's requests
//! (`monster_builder::qlog`), a registry's [`crate::IntervalRecord`]s.
//!
//! A writer takes the next sequence number, locks that number's slot and
//! overwrites the record in place (a record that keeps its strings' and
//! vectors' capacity makes that allocation-free after the first lap). A
//! reader locks one slot at a time and clones it, so every record it
//! returns is whole. A writer descheduled for a whole lap finds a *newer*
//! sequence number in its slot and leaves it alone: an older record never
//! overwrites a newer one, and that is the only thing [`Ring::dropped`]
//! counts.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// `seq` of a slot no record has been written to yet.
const NEVER: u64 = u64::MAX;

struct Slot<T> {
    seq: u64,
    record: T,
}

/// A bounded ring of records of type `T`, newest overwriting oldest.
pub struct Ring<T> {
    /// Slot `seq & mask` holds record `seq` until a later lap overwrites it.
    slots: Box<[Mutex<Slot<T>>]>,
    mask: u64,
    /// Next sequence number. A plain counter: the slot locks, not this,
    /// publish the records, so every access is `Relaxed`.
    head: AtomicU64,
    dropped: AtomicU64,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ring({} of {} slots written)",
            self.head.load(Ordering::Relaxed),
            self.slots.len()
        )
    }
}

impl<T: Clone> Ring<T> {
    /// A ring of `capacity` slots (rounded up to a power of two, min 16),
    /// each holding `blank()` until its first write.
    pub fn new(capacity: usize, mut blank: impl FnMut() -> T) -> Ring<T> {
        let cap = capacity.max(16).next_power_of_two();
        Ring {
            slots: (0..cap).map(|_| Mutex::new(Slot { seq: NEVER, record: blank() })).collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records written since construction (sequence numbers handed out).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because their slot already held a newer one.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take the next sequence number and overwrite its slot with
    /// `fill(seq, record)`; returns the number and what `fill` returned,
    /// `None` when the record was dropped.
    pub fn push<R>(&self, fill: impl FnOnce(u64, &mut T) -> R) -> (u64, Option<R>) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        (seq, self.write(seq, fill))
    }

    /// Write record `seq` into its slot, unless the slot already holds a
    /// newer record.
    fn write<R>(&self, seq: u64, fill: impl FnOnce(u64, &mut T) -> R) -> Option<R> {
        let mut slot = self.slots[(seq & self.mask) as usize].lock();
        if slot.seq != NEVER && slot.seq > seq {
            // The ring lapped a full capacity between this writer's
            // `fetch_add` and its lock.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        slot.seq = seq;
        Some(fill(seq, &mut slot.record))
    }

    /// Clones of the live records `keep` accepts, newest first: walk back
    /// one lap from the head, one slot lock at a time. A slot whose stored
    /// sequence number is not the cursor's is unwritten, mid-claim or
    /// already lapped — skipped.
    pub fn live<'s>(&'s self, keep: impl Fn(&T) -> bool + 's) -> impl Iterator<Item = T> + 's {
        let head = self.head.load(Ordering::Relaxed);
        let oldest = head.saturating_sub(self.slots.len() as u64);
        (oldest..head).rev().filter_map(move |seq| {
            let slot = self.slots[(seq & self.mask) as usize].lock();
            (slot.seq == seq && keep(&slot.record)).then(|| slot.record.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose every field is a function of its id, the string's
    /// length included, so a torn copy cannot pass for whole.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Rec {
        seq: u64,
        id: u64,
        text: String,
        parts: Vec<u64>,
        stages: [u64; 7],
    }

    fn fill(id: u64) -> impl FnOnce(u64, &mut Rec) {
        move |seq, rec| {
            rec.seq = seq;
            rec.id = id;
            rec.text.clear();
            rec.text
                .push_str(&format!("/v1/metrics?id={id}&pad={}", "p".repeat((id % 40) as usize)));
            rec.parts.clear();
            rec.parts.extend(0..id % 5);
            rec.stages = std::array::from_fn(|i| id + i as u64);
        }
    }

    /// `rec` is exactly what `fill(rec.id)` wrote — no field from any
    /// other record.
    fn whole(rec: &Rec) -> bool {
        let mut want = Rec::default();
        fill(rec.id)(rec.seq, &mut want);
        *rec == want
    }

    #[test]
    fn ring_recycles_oldest_slots() {
        let ring = Ring::new(10, Rec::default);
        assert_eq!(ring.capacity(), 16, "rounded up to a power of two");
        for id in 0..40u64 {
            ring.push(fill(id));
        }
        let all: Vec<Rec> = ring.live(|_| true).collect();
        assert_eq!(all.len(), 16, "ring holds exactly capacity");
        assert_eq!(all[0].seq, 39, "newest first");
        assert_eq!(all.last().unwrap().seq, 24, "oldest surviving = head - capacity");
        assert_eq!((ring.recorded(), ring.dropped()), (40, 0));
        let odd: Vec<u64> = ring.live(|r| r.id % 2 == 1).map(|r| r.id).collect();
        assert_eq!(odd, (25..40).rev().step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn an_older_sequence_number_never_overwrites_a_newer_one() {
        // A writer descheduled between taking its number and its slot's
        // lock, for a whole lap: 5 and 21 share slot 5 of 16.
        let ring = Ring::new(16, Rec::default);
        let slot_5 = || {
            let slot = ring.slots[5].lock();
            (slot.seq, slot.record.id)
        };
        assert!(ring.write(21, fill(1021)).is_some());
        assert!(ring.write(5, fill(1005)).is_none());
        assert_eq!(slot_5(), (21, 1021));
        assert_eq!(ring.dropped(), 1, "that, and only that, is a drop");
        ring.write(37, fill(1037));
        assert_eq!(slot_5(), (37, 1037));
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn concurrent_writers_and_a_reader_see_only_whole_records() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        // A 16-slot ring laps every 16 records: writers collide on slots
        // constantly and the reader clones slots that are being rewritten.
        let ring = Ring::new(16, Rec::default);
        let writing = std::sync::atomic::AtomicBool::new(true);
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        let check = |records: &[Rec]| {
            for r in records {
                assert!(whole(r), "torn record: {r:?}");
            }
            assert!(records.windows(2).all(|w| w[0].seq > w[1].seq), "newest first");
        };
        let reads = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (ring, start) = (&ring, &start);
                    s.spawn(move || {
                        start.wait();
                        for id in w * PER_WRITER..(w + 1) * PER_WRITER {
                            ring.push(fill(id));
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let mut reads = 0u64;
                while writing.load(Ordering::SeqCst) {
                    let recent: Vec<Rec> = ring.live(|_| true).collect();
                    check(&recent);
                    if let Some(r) = recent.first() {
                        let id = r.id;
                        check(&ring.live(|x| x.id == id).collect::<Vec<_>>());
                    }
                    reads += 1;
                }
                reads
            });
            for w in writers {
                w.join().expect("writer panicked");
            }
            writing.store(false, Ordering::SeqCst);
            reader.join().expect("reader panicked")
        });
        assert!(reads > 0, "the reader ran beside the writers");
        assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
        // An older sequence number never overwrites a newer one, so once
        // every writer is done each slot holds its last lap.
        let last: Vec<Rec> = ring.live(|_| true).collect();
        let seqs: Vec<u64> = last.iter().map(|r| r.seq).collect();
        let head = WRITERS * PER_WRITER;
        assert_eq!(seqs, (head - 16..head).rev().collect::<Vec<_>>());
        check(&last);
    }
}
