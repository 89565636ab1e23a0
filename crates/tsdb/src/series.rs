//! Series identity and the inverted tag index.
//!
//! A *series* is one (measurement, tag set) combination; each distinct
//! series holds its own columns. Series **cardinality** is the database's
//! main scalability axis — the paper's schema redesign (§IV-B2) worked
//! precisely because the original schema "introduced a large series
//! cardinality". The index here makes that cost concrete: query planning
//! touches structures whose size is the cardinality.
//!
//! In front of the index sits a *ref cache* ([`SeriesIndex::cached`]): a
//! point's identity as it arrives, resolved once to its ids, the way
//! Prometheus's scrape cache maps a sample's text to a series ref. A
//! collector interval repeats nearly every identity of the one before, so
//! steady-state writes skip the index's lookups.

use crate::point::DataPoint;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Canonical series identity: measurement plus tags sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Measurement name.
    pub measurement: String,
    /// Tag pairs sorted by key (canonical order).
    pub tags: Vec<(String, String)>,
}

impl SeriesKey {
    /// Build the canonical key for a point.
    pub fn of(p: &DataPoint) -> SeriesKey {
        let mut tags = p.tags.clone();
        tags.sort();
        SeriesKey { measurement: p.measurement.clone(), tags }
    }

    /// Tag lookup on the canonical set.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.measurement)?;
        for (k, v) in &self.tags {
            write!(f, ",{k}={v}")?;
        }
        Ok(())
    }
}

/// Dense id for a series within one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

/// Dense id for an interned field name within one database.
///
/// Shards find their columns by `(SeriesId, FieldId)`, so the ingest hot
/// path never allocates a field-name `String` per appended value — the
/// name is interned here once, the first time it is seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

/// The multiplier of every [`fold`]: 2⁶⁴ over the golden ratio, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply-fold step: the 128-bit product of the two words, halves
/// XORed together, so every input bit reaches every output bit.
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Absorb `text` into `h`, eight bytes a step, then its length (so
/// `("ab", "c")` and `("a", "bc")` part ways). The last step reads whole
/// words that may overlap the ones before (wyhash's trick) rather than
/// copying a remainder: every byte is read, and with the length mixed in,
/// two texts of one length that differ anywhere differ in a word read.
fn absorb(mut h: u64, text: &str) -> u64 {
    let b = text.as_bytes();
    let n = b.len();
    let u32_at =
        |at: usize| u64::from(u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes")));
    let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
    let last = match n {
        0 => 0,
        1..=3 => u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16,
        4..=8 => u32_at(0) | u32_at(n - 4) << 32,
        _ => {
            let mut at = 0;
            while n - at > 8 {
                h = fold(h ^ u64_at(at), K);
                at += 8;
            }
            u64_at(n - 8)
        }
    };
    fold(h ^ last, K ^ n as u64)
}

/// An index's hash key, drawn when the index is made: tag text comes from
/// outside the program (`POST /write`), and an unkeyed hash would let it
/// choose its bucket.
#[derive(Debug)]
struct Seed(u64);

impl Default for Seed {
    fn default() -> Self {
        Seed(RandomState::new().hash_one(0u8))
    }
}

/// `by_hash` and the ref cache are keyed by finished hashes: hashing them
/// again buys nothing.
#[derive(Debug, Default)]
struct Identity(u64);

impl Hasher for Identity {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the identity tables are keyed by u64 alone");
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One measurement's posting lists. Ids are handed out in ascending order
/// and only ever appended here, so every list is sorted without a sort —
/// [`SeriesIndex::select`] relies on it.
#[derive(Debug, Default)]
struct Postings {
    /// Every series of the measurement.
    all: Vec<SeriesId>,
    /// tag key → tag value → series carrying that pair. Nested rather than
    /// keyed by an owned `(key, value)` tuple so a probe borrows the
    /// predicate's strings instead of cloning them.
    by_tag: HashMap<String, HashMap<String, Vec<SeriesId>>>,
}

/// Entries the ref cache may hold beyond two per series, so that a store
/// with few series still keeps a few thousand tag orders and field
/// subsets. Past `2 × cardinality + REF_SLACK` entries the cache is
/// cleared and refills.
const REF_SLACK: usize = 4_096;

/// Ends each part of an identity in the ref cache's text. No UTF-8 string
/// holds the byte, so the parts of two identities line up only when every
/// part is equal.
const END: u8 = 0xFF;

/// Visit `p`'s identity as it arrives — the measurement, each tag key and
/// value in arrival order, each field name — while `f` says go on.
fn each_part(p: &DataPoint, mut f: impl FnMut(&str) -> bool) -> bool {
    f(&p.measurement)
        && p.tags.iter().all(|(k, v)| f(k) && f(v))
        && p.fields.iter().all(|(name, _)| f(name))
}

/// Bytes ahead of an entry's field ids in [`RefCache::arena`], its head:
/// six `u32`s — the entry inserted before it under the same hash (its
/// offset + 1, or 0), the series, the fixed wire bytes
/// ([`DataPoint::wire_size`] less the values' own sizes), the tag pairs
/// and the fields (where the parts split), and the text's length.
const HEAD: usize = 24;

/// One identity the ref cache has resolved, as [`RefCache::get`] found it.
struct Hit<'a> {
    series: SeriesId,
    fixed: usize,
    /// Its field ids, in point order, four bytes each.
    fids: &'a [u8],
}

impl Hit<'_> {
    fn fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        self.fids
            .chunks_exact(4)
            .map(|id| FieldId(u32::from_le_bytes(id.try_into().expect("four bytes"))))
    }
}

/// A point's identity as it arrives → its ids. Append-only until it is
/// cleared: entry after entry in one flat arena — its [`HEAD`], its field
/// ids, then its text, each part ended by [`END`] — so that a hit reads
/// one run of bytes. `heads` maps a hash to the newest entry with it;
/// older ones chain through their heads.
#[derive(Debug, Default)]
struct RefCache {
    heads: HashMap<u64, u32, BuildHasherDefault<Identity>>,
    arena: Vec<u8>,
    entries: usize,
}

impl RefCache {
    /// The entry for `p` among `hash`'s, verified part by part against the
    /// text, so a collision costs a longer chain, never a wrong id.
    fn get(&self, hash: u64, p: &DataPoint) -> Option<Hit<'_>> {
        let mut at = Some(*self.heads.get(&hash)? as usize);
        while let Some(o) = at {
            let head = |i: usize| {
                let word = &self.arena[o + 4 * i..o + 4 * i + 4];
                u32::from_le_bytes(word.try_into().expect("four bytes")) as usize
            };
            let (tags, fields, len) = (head(3), head(4), head(5));
            let text = o + HEAD + 4 * fields;
            if tags == p.tags.len() && fields == p.fields.len() {
                let mut rest = &self.arena[text..text + len];
                let same = each_part(p, |part| {
                    let n = part.len();
                    let same = rest.len() > n && rest[n] == END && &rest[..n] == part.as_bytes();
                    if same {
                        rest = &rest[n + 1..];
                    }
                    same
                });
                if same && rest.is_empty() {
                    let fids = &self.arena[o + HEAD..text];
                    return Some(Hit { series: SeriesId(head(1) as u32), fixed: head(2), fids });
                }
            }
            at = head(0).checked_sub(1);
        }
        None
    }

    /// Remember `p`. An entry whose head would not fit its `u32`s is not
    /// kept (the point resolves through the index each time), and one
    /// that would take the arena past `u32` offsets clears it first.
    fn insert(
        &mut self,
        hash: u64,
        p: &DataPoint,
        series: SeriesId,
        fields: &[FieldId],
        fixed: usize,
    ) {
        let mut len = 0;
        each_part(p, |part| {
            len += part.len() + 1;
            true
        });
        let size = HEAD + 4 * fields.len() + len;
        if self.arena.len() + size > u32::MAX as usize {
            self.clear();
        }
        let next = self.heads.get(&hash).map_or(0, |&o| o as usize + 1);
        let head = [next, series.0 as usize, fixed, p.tags.len(), fields.len(), len];
        if head.iter().any(|&word| word > u32::MAX as usize) {
            return;
        }
        let at = self.arena.len() as u32;
        for word in head {
            self.arena.extend_from_slice(&(word as u32).to_le_bytes());
        }
        for id in fields {
            self.arena.extend_from_slice(&id.0.to_le_bytes());
        }
        each_part(p, |part| {
            self.arena.extend_from_slice(part.as_bytes());
            self.arena.push(END);
            true
        });
        self.heads.insert(hash, at);
        self.entries += 1;
    }

    /// Forget every entry; the arena keeps its capacity.
    fn clear(&mut self) {
        self.heads.clear();
        self.arena.clear();
        self.entries = 0;
    }
}

/// Series registry + inverted index (tag key/value → series ids). Keys are
/// `Arc`s: a query result labels a series with a reference, not a copy.
#[derive(Debug, Default)]
pub struct SeriesIndex {
    keys: Vec<Arc<SeriesKey>>,
    /// measurement → its series and their inverted tag index.
    by_measurement: HashMap<String, Postings>,
    /// The one identity table: [`identity_hash`](Self::identity_hash) →
    /// candidate ids, in registration order. Only ever probed, never
    /// iterated — `seed` differs from run to run and nothing stored may.
    by_hash: HashMap<u64, Vec<SeriesId>, BuildHasherDefault<Identity>>,
    seed: Seed,
    /// Test seam: every identity hashes to one bucket.
    #[cfg(test)]
    collide: bool,
    /// Field-name interning table (name → id, id → name).
    field_ids: HashMap<String, FieldId>,
    field_names: Vec<String>,
    /// The ref cache in front of all of the above. Series ids are never
    /// retired, so an entry stays right for the life of the index.
    refs: RefCache,
}

impl SeriesIndex {
    /// Empty index.
    pub fn new() -> Self {
        SeriesIndex::default()
    }

    /// Hash of an identity (measurement + tag set) in one pass over its
    /// bytes. Each pair is hashed from the seed and the pairs are *added*,
    /// so a point's tag order and the canonical key's give the same value
    /// (tag keys are unique within an identity). Not cryptographic: a
    /// collision costs a longer candidate list in [`Self::find`], which
    /// compares the strings — never a wrong id.
    fn identity_hash(&self, measurement: &str, tags: &[(String, String)]) -> u64 {
        #[cfg(test)]
        if self.collide {
            return 0;
        }
        let seed = self.seed.0;
        let pairs = tags.iter().map(|(k, v)| absorb(absorb(seed, k), v));
        fold(pairs.fold(absorb(!seed, measurement), u64::wrapping_add), seed | 1)
    }

    /// Hash of an identity as it arrives, for the ref cache: the same
    /// keyed multiply-fold as [`Self::identity_hash`], over the parts in
    /// arrival order and then the tag count (which splits tags from field
    /// names). Not cryptographic: a collision costs a longer chain in
    /// [`RefCache::get`], which compares the text.
    fn arrival_hash(&self, p: &DataPoint) -> u64 {
        #[cfg(test)]
        if self.collide {
            return 0;
        }
        let mut h = self.seed.0;
        each_part(p, |part| {
            h = absorb(h, part);
            true
        });
        fold(h ^ p.tags.len() as u64, self.seed.0 | 1)
    }

    /// `p`'s ids from the ref cache, if its identity as it arrives has
    /// been resolved before: its series and its fixed wire bytes
    /// ([`DataPoint::wire_size`] less its values' sizes), with its field
    /// ids pushed onto `fids` in point order. One hash and one probe, and
    /// no lookup a field.
    pub(crate) fn cached(
        &self,
        p: &DataPoint,
        fids: &mut Vec<FieldId>,
    ) -> Option<(SeriesId, usize)> {
        let hit = self.refs.get(self.arrival_hash(p), p)?;
        fids.extend(hit.fields());
        Some((hit.series, hit.fixed))
    }

    /// Resolve a point [`Self::cached`] missed through the index —
    /// registering its series and field names if they are new — and
    /// remember it in the ref cache. Writes its field ids into `fids` (one
    /// a field); returns its series and fixed wire bytes. Past
    /// `2 × cardinality + REF_SLACK` entries the cache is cleared first.
    pub(crate) fn resolve(&mut self, p: &DataPoint, fids: &mut [FieldId]) -> (SeriesId, usize) {
        let hash = self.arrival_hash(p);
        if let Some(hit) = self.refs.get(hash, p) {
            fids.iter_mut().zip(hit.fields()).for_each(|(fid, id)| *fid = id);
            return (hit.series, hit.fixed);
        }
        let series = match self.id_of_point(p) {
            Some(id) => id,
            None => self.get_or_create(&SeriesKey::of(p)),
        };
        for ((name, _), fid) in p.fields.iter().zip(fids.iter_mut()) {
            *fid = self.intern_field(name);
        }
        let fixed = p.wire_size() - p.values_wire_size();
        if self.refs.entries >= 2 * self.cardinality() + REF_SLACK {
            self.refs.clear();
        }
        self.refs.insert(hash, p, series, fids, fixed);
        (series, fixed)
    }

    /// Entries in the ref cache.
    pub(crate) fn ref_count(&self) -> usize {
        self.refs.entries
    }

    /// Test seam: empty the ref cache, so the next point resolves through
    /// the index.
    #[cfg(test)]
    pub(crate) fn forget_refs(&mut self) {
        self.refs.clear();
    }

    /// The registered series with this identity among `hash`'s candidates,
    /// verified by comparing the tag sets.
    fn find(&self, hash: u64, measurement: &str, tags: &[(String, String)]) -> Option<SeriesId> {
        self.by_hash.get(&hash)?.iter().copied().find(|&id| {
            let key = &self.keys[id.0 as usize];
            key.measurement == measurement
                && key.tags.len() == tags.len()
                && tags.iter().all(|(k, v)| key.tag(k) == Some(v.as_str()))
        })
    }

    /// Get the id for a series, registering it if new.
    pub fn get_or_create(&mut self, key: &SeriesKey) -> SeriesId {
        let hash = self.identity_hash(&key.measurement, &key.tags);
        if let Some(id) = self.find(hash, &key.measurement, &key.tags) {
            return id;
        }
        let id = SeriesId(self.keys.len() as u32);
        let key = Arc::new(key.clone());
        self.keys.push(Arc::clone(&key));
        let postings = self.by_measurement.entry(key.measurement.clone()).or_default();
        postings.all.push(id);
        for (k, v) in &key.tags {
            postings.by_tag.entry(k.clone()).or_default().entry(v.clone()).or_default().push(id);
        }
        self.by_hash.entry(hash).or_default().push(id);
        id
    }

    /// Resolve a point's series id without allocating, if the series is
    /// already registered. This is the steady-state write path: one hash of
    /// the point's identity as it stands (no canonical `SeriesKey` is
    /// built), one probe.
    pub fn id_of_point(&self, p: &DataPoint) -> Option<SeriesId> {
        self.find(self.identity_hash(&p.measurement, &p.tags), &p.measurement, &p.tags)
    }

    /// Intern a field name, returning its dense id.
    pub fn intern_field(&mut self, name: &str) -> FieldId {
        if let Some(&id) = self.field_ids.get(name) {
            return id;
        }
        let id = FieldId(self.field_names.len() as u32);
        self.field_ids.insert(name.to_string(), id);
        self.field_names.push(name.to_string());
        id
    }

    /// Look up an interned field name without registering it.
    pub fn field_id(&self, name: &str) -> Option<FieldId> {
        self.field_ids.get(name).copied()
    }

    /// The name for an interned field id.
    pub fn field_name(&self, id: FieldId) -> &str {
        &self.field_names[id.0 as usize]
    }

    /// Number of distinct field names ever interned.
    pub fn field_count(&self) -> usize {
        self.field_names.len()
    }

    /// Total distinct series (the cardinality number). Ids are dense:
    /// every id below it names a series.
    pub fn cardinality(&self) -> usize {
        self.keys.len()
    }

    /// The key for an id; `Arc::clone` it to keep it past the index lock.
    pub fn key_of(&self, id: SeriesId) -> &Arc<SeriesKey> {
        &self.keys[id.0 as usize]
    }

    /// Number of distinct measurements.
    pub fn measurement_count(&self) -> usize {
        self.by_measurement.len()
    }

    /// All measurement names (unordered).
    pub fn measurements(&self) -> impl Iterator<Item = &str> {
        self.by_measurement.keys().map(String::as_str)
    }

    /// Series ids in a measurement, filtered by tag equality predicates
    /// (AND semantics). Returns ids in ascending order.
    ///
    /// With no predicates this is all series of the measurement. With
    /// predicates, the inverted index produces each predicate's posting
    /// list and they are intersected — the same plan InfluxDB's TSI makes.
    pub fn select(&self, measurement: &str, predicates: &[(String, String)]) -> Vec<SeriesId> {
        let mut ids = Vec::new();
        self.select_into(measurement, predicates, &mut ids);
        ids
    }

    /// [`Self::select`], appending to `out` — a batch of queries resolves
    /// into one flat id list. Allocates nothing beyond `out`'s growth: the
    /// posting lists are probed with the predicates' borrowed strings and
    /// intersected in place (they are sorted by construction).
    pub fn select_into(
        &self,
        measurement: &str,
        predicates: &[(String, String)],
        out: &mut Vec<SeriesId>,
    ) {
        out.extend(self.selected(measurement, predicates));
    }

    /// The probe-and-intersect behind [`Self::select_into`], ids ascending:
    /// walk the shortest posting list (all series of the measurement
    /// without predicates), keeping the ids every other list holds. An
    /// unmatched predicate selects nothing.
    fn selected<'a>(
        &'a self,
        measurement: &str,
        predicates: &'a [(String, String)],
    ) -> impl Iterator<Item = SeriesId> + 'a {
        let postings = self.by_measurement.get(measurement);
        let list_of = move |(k, v): &(String, String)| postings?.by_tag.get(k)?.get(v);
        let mut walked: &[SeriesId] = postings.map_or(&[], |p| &p.all);
        let mut skip = None;
        for (j, p) in predicates.iter().enumerate() {
            match list_of(p) {
                None => {
                    walked = &[];
                    break;
                }
                Some(list) if skip.is_none() || list.len() < walked.len() => {
                    walked = list;
                    skip = Some(j);
                }
                Some(_) => {}
            }
        }
        walked.iter().copied().filter(move |id| {
            predicates.iter().enumerate().all(|(j, p)| {
                Some(j) == skip || list_of(p).is_some_and(|l| l.binary_search(id).is_ok())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_util::EpochSecs;

    fn point(m: &str, node: &str, label: &str) -> DataPoint {
        DataPoint::new(m, EpochSecs::new(0))
            .tag("NodeId", node)
            .tag("Label", label)
            .field_f64("v", 1.0)
    }

    #[test]
    fn series_key_is_canonical_under_tag_order() {
        let a =
            DataPoint::new("m", EpochSecs::new(0)).tag("b", "2").tag("a", "1").field_f64("v", 0.0);
        let b =
            DataPoint::new("m", EpochSecs::new(0)).tag("a", "1").tag("b", "2").field_f64("v", 0.0);
        assert_eq!(SeriesKey::of(&a), SeriesKey::of(&b));
        assert_eq!(SeriesKey::of(&a).to_string(), "m,a=1,b=2");
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let mut idx = SeriesIndex::new();
        let k = SeriesKey::of(&point("Power", "10.101.1.1", "NodePower"));
        let id1 = idx.get_or_create(&k);
        let id2 = idx.get_or_create(&k);
        assert_eq!(id1, id2);
        assert_eq!(idx.cardinality(), 1);
        assert_eq!(**idx.key_of(id1), k);
    }

    #[test]
    fn cardinality_counts_distinct_tag_sets() {
        let mut idx = SeriesIndex::new();
        for n in 0..10 {
            for label in ["NodePower", "CPUTemp"] {
                idx.get_or_create(&SeriesKey::of(&point("Power", &format!("10.101.1.{n}"), label)));
            }
        }
        assert_eq!(idx.cardinality(), 20);
        assert_eq!(idx.measurement_count(), 1);
    }

    #[test]
    fn select_with_predicates_intersects() {
        let mut idx = SeriesIndex::new();
        let a = idx.get_or_create(&SeriesKey::of(&point("Power", "n1", "NodePower")));
        let _b = idx.get_or_create(&SeriesKey::of(&point("Power", "n1", "CPUTemp")));
        let _c = idx.get_or_create(&SeriesKey::of(&point("Power", "n2", "NodePower")));
        let got = idx.select(
            "Power",
            &[("NodeId".into(), "n1".into()), ("Label".into(), "NodePower".into())],
        );
        assert_eq!(got, vec![a]);
    }

    #[test]
    fn select_without_predicates_returns_all() {
        let mut idx = SeriesIndex::new();
        for n in 0..5 {
            idx.get_or_create(&SeriesKey::of(&point("Thermal", &format!("n{n}"), "CPU1")));
        }
        assert_eq!(idx.select("Thermal", &[]).len(), 5);
        assert!(idx.select("Nope", &[]).is_empty());
    }

    #[test]
    fn id_of_point_matches_get_or_create_under_tag_reorder() {
        let mut idx = SeriesIndex::new();
        let p =
            DataPoint::new("m", EpochSecs::new(0)).tag("b", "2").tag("a", "1").field_f64("v", 0.0);
        assert_eq!(idx.id_of_point(&p), None);
        let id = idx.get_or_create(&SeriesKey::of(&p));
        // Same tags, different declaration order: still resolves.
        let q =
            DataPoint::new("m", EpochSecs::new(9)).tag("a", "1").tag("b", "2").field_f64("v", 1.0);
        assert_eq!(idx.id_of_point(&q), Some(id));
        // Different value or missing tag: no match.
        let r = DataPoint::new("m", EpochSecs::new(9)).tag("a", "1").field_f64("v", 1.0);
        assert_eq!(idx.id_of_point(&r), None);
    }

    #[test]
    fn field_interning_is_stable_and_dense() {
        let mut idx = SeriesIndex::new();
        let a = idx.intern_field("Reading");
        let b = idx.intern_field("CPUUsage");
        assert_eq!(idx.intern_field("Reading"), a);
        assert_ne!(a, b);
        assert_eq!(idx.field_id("Reading"), Some(a));
        assert_eq!(idx.field_id("nope"), None);
        assert_eq!(idx.field_name(b), "CPUUsage");
        assert_eq!(idx.field_count(), 2);
    }

    #[test]
    fn identities_sharing_one_bucket_stay_apart() {
        let mut idx = SeriesIndex { collide: true, ..SeriesIndex::default() };
        let points = [
            point("Power", "n1", "NodePower"),
            point("Power", "n2", "NodePower"),
            point("Thermal", "n1", "NodePower"),
            point("Thermal", "n1", "CPU1 Temp"),
            DataPoint::new("Thermal", EpochSecs::new(0)).tag("NodeId", "n1").field_f64("v", 1.0),
        ];
        let ids: Vec<SeriesId> =
            points.iter().map(|p| idx.get_or_create(&SeriesKey::of(p))).collect();
        assert_eq!(ids, (0..5).map(SeriesId).collect::<Vec<_>>(), "one id per identity");
        assert_eq!(idx.by_hash.len(), 1, "the seam did not collide them");
        for (p, id) in points.iter().zip(&ids) {
            assert_eq!(idx.id_of_point(p), Some(*id));
            assert_eq!(idx.get_or_create(&SeriesKey::of(p)), *id);
        }
        // Tags in the other order: the same series, by either door.
        let swapped = DataPoint::new("Thermal", EpochSecs::new(0))
            .tag("Label", "CPU1 Temp")
            .tag("NodeId", "n1")
            .field_f64("v", 1.0);
        assert_eq!(idx.id_of_point(&swapped), Some(ids[3]));
        let as_given = SeriesKey { measurement: "Thermal".into(), tags: swapped.tags.clone() };
        assert_eq!(idx.get_or_create(&as_given), ids[3]);
        // The ref cache shares the seam: one chain, each entry found by
        // its own text (the swapped tags and a field more are entries of
        // their own).
        let mut more = points.to_vec();
        more.push(swapped);
        more.push(point("Thermal", "n1", "CPU1 Temp").field_f64("w", 0.0));
        let resolved: Vec<_> = more.iter().map(|p| resolve(&mut idx, p)).collect();
        assert_eq!((idx.refs.heads.len(), idx.ref_count()), (1, 7));
        for (p, (series, fids, fixed)) in more.iter().zip(resolved) {
            assert_eq!(idx.id_of_point(p), Some(series));
            assert_eq!(cached(&idx, p), Some((series, fids, fixed)));
        }
    }

    #[test]
    fn identity_hash_ignores_tag_order_and_nothing_else() {
        let idx = SeriesIndex::new();
        let tags = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
        };
        let h = |m: &str, pairs: &[(&str, &str)]| idx.identity_hash(m, &tags(pairs));
        assert_eq!(h("m", &[("a", "1"), ("b", "2")]), h("m", &[("b", "2"), ("a", "1")]));
        let distinct = [
            h("m", &[("a", "1"), ("b", "2")]),
            h("m", &[("a", "2"), ("b", "1")]),
            h("m", &[("a", "1")]),
            h("m", &[("a1", "")]),
            h("m", &[("", "a1")]),
            h("ma", &[("1", "")]),
            h("m", &[]),
            h("", &[]),
            h("a-long-measurement-name", &[("NodeId", "10.101.12.3")]),
            h("a-long-measurement-name", &[("NodeId", "10.101.12.4")]),
        ];
        let unique: std::collections::HashSet<u64> = distinct.iter().copied().collect();
        assert_eq!(unique.len(), distinct.len());
        // Seeded per index: another index puts the same identity elsewhere.
        let other = SeriesIndex::new();
        assert_ne!(other.seed.0, idx.seed.0);
        assert_ne!(other.identity_hash("m", &[]), h("m", &[]));
    }

    /// `cached`, its field ids collected.
    fn cached(idx: &SeriesIndex, p: &DataPoint) -> Option<(SeriesId, Vec<FieldId>, usize)> {
        let mut fids = Vec::new();
        let (series, fixed) = idx.cached(p, &mut fids)?;
        Some((series, fids, fixed))
    }

    /// `resolve` as the write path calls it: into a fresh field-id slice.
    fn resolve(idx: &mut SeriesIndex, p: &DataPoint) -> (SeriesId, Vec<FieldId>, usize) {
        let mut fids = vec![FieldId(u32::MAX); p.fields.len()];
        let (series, fixed) = idx.resolve(p, &mut fids);
        (series, fids, fixed)
    }

    #[test]
    fn ref_cache_keys_the_identity_as_it_arrives() {
        let mut idx = SeriesIndex::new();
        let p = point("Power", "n1", "NodePower").field_i64("w", 3);
        assert!(cached(&idx, &p).is_none());
        let (series, fids, fixed) = resolve(&mut idx, &p);
        assert_eq!(fixed + p.values_wire_size(), p.wire_size());
        let hit = cached(&idx, &p).expect("resolved once, then cached");
        assert_eq!(hit, (series, fids.clone(), fixed));
        // New values at a new time: the same entry.
        let later = DataPoint { time: EpochSecs::new(60), ..point("Power", "n1", "NodePower") }
            .field_i64("w", -12_345);
        assert_eq!(cached(&idx, &later), Some((series, fids.clone(), fixed)));
        assert_eq!(idx.ref_count(), 1);
        // Tags in another order, or another field subset or order: the same
        // series and field ids, through an entry of its own.
        let swapped = DataPoint::new("Power", EpochSecs::new(0))
            .tag("Label", "NodePower")
            .tag("NodeId", "n1")
            .field_f64("v", 1.0)
            .field_i64("w", 3);
        let fewer = point("Power", "n1", "NodePower");
        let flipped = DataPoint::new("Power", EpochSecs::new(0))
            .tag("NodeId", "n1")
            .tag("Label", "NodePower")
            .field_i64("w", 3)
            .field_f64("v", 1.0);
        for q in [&swapped, &fewer, &flipped] {
            assert!(cached(&idx, q).is_none());
        }
        assert_eq!(resolve(&mut idx, &swapped), (series, fids.clone(), fixed));
        assert_eq!(resolve(&mut idx, &fewer), (series, fids[..1].to_vec(), fixed - ",w=".len()));
        assert_eq!(resolve(&mut idx, &flipped), (series, vec![fids[1], fids[0]], fixed));
        assert_eq!(idx.ref_count(), 4);
        assert_eq!(idx.cardinality(), 1);
        // Parts that concatenate alike but split differently do not match:
        // a tag `k=v` is not two field names `k` and `v`.
        let mut tag = DataPoint::new("m", EpochSecs::new(0)).tag("k", "v").field_f64("x", 0.0);
        let split = DataPoint::new("m", EpochSecs::new(0))
            .field_f64("k", 0.0)
            .field_f64("v", 0.0)
            .field_f64("x", 0.0);
        let (tagged, ..) = resolve(&mut idx, &tag);
        let (untagged, ..) = resolve(&mut idx, &split);
        assert_ne!(tagged, untagged);
        tag.tags[0].1.push('w');
        assert!(cached(&idx, &tag).is_none(), "a longer value is another identity");
    }

    #[test]
    fn ref_cache_stays_under_its_bound_through_tag_order_permutations() {
        // Seven tags: 5 040 orders of each of two series, every one an
        // entry of its own, against a bound of 2 × 2 + 4 096.
        let mut idx = SeriesIndex::new();
        let bound = 2 * 2 + REF_SLACK;
        let mut most = 0;
        let mut first = Vec::new();
        for series in ["a", "b"] {
            let mut tags: Vec<(String, String)> =
                (0..7).map(|k| (format!("k{k}"), format!("{series}{k}"))).collect();
            // Heap's algorithm, iteratively: every order once.
            let mut c = [0usize; 7];
            let mut i = 0;
            let mut orders = 0;
            loop {
                let p = DataPoint {
                    measurement: "m".into(),
                    tags: tags.clone(),
                    fields: vec![("v".into(), crate::FieldValue::Float(0.0))],
                    time: EpochSecs::new(0),
                };
                let (id, ..) = resolve(&mut idx, &p);
                if orders == 0 {
                    first.push(id);
                }
                assert_eq!(id, *first.last().unwrap(), "one series in every order");
                assert!(idx.ref_count() <= bound, "{} entries", idx.ref_count());
                most = most.max(idx.ref_count());
                orders += 1;
                while i < 7 && c[i] >= i {
                    c[i] = 0;
                    i += 1;
                }
                if i == 7 {
                    break;
                }
                tags.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                c[i] += 1;
                i = 0;
            }
            assert_eq!(orders, 5_040);
        }
        assert_eq!(most, bound, "the cache filled to its bound, was cleared and refilled");
        assert_eq!(idx.cardinality(), 2);
    }

    #[test]
    fn select_with_unknown_value_is_empty() {
        let mut idx = SeriesIndex::new();
        idx.get_or_create(&SeriesKey::of(&point("Power", "n1", "NodePower")));
        assert!(idx.select("Power", &[("NodeId".into(), "missing".into())]).is_empty());
    }

    mod select_props {
        use super::*;
        use proptest::prelude::*;

        /// A series over a closed vocabulary: each of the tags `a`, `b`, `c`
        /// is absent or takes one of three values, so keys collide, posting
        /// lists overlap, and predicates hit, miss, or name a tag no series
        /// has.
        fn arb_key() -> impl Strategy<Value = SeriesKey> {
            let tag = || prop_oneof![Just(None), Just(Some("x")), Just(Some("y")), Just(Some("z"))];
            (prop_oneof![Just("m1"), Just("m2")], tag(), tag(), tag()).prop_map(|(m, a, b, c)| {
                let tags = [("a", a), ("b", b), ("c", c)];
                SeriesKey {
                    measurement: m.to_string(),
                    tags: tags
                        .into_iter()
                        .filter_map(|(k, v)| Some((k.to_string(), v?.to_string())))
                        .collect(),
                }
            })
        }

        fn arb_predicates() -> impl Strategy<Value = Vec<(String, String)>> {
            let pair = (
                prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
                prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")],
            );
            prop::collection::vec(pair.prop_map(|(k, v)| (k.to_string(), v.to_string())), 0..4)
        }

        proptest! {
            #[test]
            fn select_is_a_filter_over_all_keys(
                keys in prop::collection::vec(arb_key(), 0..40),
                measurement in prop_oneof![Just("m1"), Just("m2"), Just("m3")],
                predicates in arb_predicates(),
            ) {
                let mut idx = SeriesIndex::new();
                for key in &keys {
                    idx.get_or_create(key);
                }
                let naive: Vec<SeriesId> = (0..idx.cardinality() as u32)
                    .map(SeriesId)
                    .filter(|&id| {
                        let key = idx.key_of(id);
                        key.measurement == measurement
                            && predicates.iter().all(|(k, v)| key.tag(k) == Some(v.as_str()))
                    })
                    .collect();
                prop_assert_eq!(idx.select(measurement, &predicates), naive.clone());
                // Appending leaves what was there alone.
                let mut out = vec![SeriesId(u32::MAX)];
                idx.select_into(measurement, &predicates, &mut out);
                prop_assert_eq!(&out[1..], &naive[..]);
            }
        }
    }
}
