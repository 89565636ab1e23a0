//! Series identity and the inverted tag index.
//!
//! A *series* is one (measurement, tag set) combination; each distinct
//! series holds its own columns. Series **cardinality** is the database's
//! main scalability axis — the paper's schema redesign (§IV-B2) worked
//! precisely because the original schema "introduced a large series
//! cardinality". The index here makes that cost concrete: query planning
//! touches structures whose size is the cardinality.

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
/// Shards key their columns by `(SeriesId, FieldId)`, so the ingest hot
/// path never allocates a field-name `String` per appended value — the
/// name is interned here once, the first time it is seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

/// The multiplier of every [`fold`]: 2⁶⁴ over the golden ratio, odd.
pub(crate) const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply-fold step: the 128-bit product of the two words, halves
/// XORed together, so every input bit reaches every output bit.
pub(crate) fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Absorb `text` into `h`, eight bytes a step, then its length (so
/// `("ab", "c")` and `("a", "bc")` part ways).
fn absorb(mut h: u64, text: &str) -> u64 {
    let mut words = text.as_bytes().chunks_exact(8);
    for word in &mut words {
        h = fold(h ^ u64::from_le_bytes(word.try_into().expect("eight bytes")), K);
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(h ^ u64::from_le_bytes(last), K ^ text.len() as u64)
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

/// `by_hash` is keyed by finished hashes: hashing them again buys nothing.
#[derive(Debug, Default)]
struct Identity(u64);

impl Hasher for Identity {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the identity table is keyed by u64 alone");
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

    /// `select(..).len()` without the list — what a cost estimate needs.
    pub fn select_count(&self, measurement: &str, predicates: &[(String, String)]) -> usize {
        self.selected(measurement, predicates).count()
    }

    /// The probe-and-intersect behind [`Self::select_into`] and
    /// [`Self::select_count`], ids ascending: walk the shortest posting list
    /// (all series of the measurement without predicates), keeping the ids
    /// every other list holds. An unmatched predicate selects nothing.
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
                prop_assert_eq!(idx.select_count(measurement, &predicates), naive.len());
                // Appending leaves what was there alone.
                let mut out = vec![SeriesId(u32::MAX)];
                idx.select_into(measurement, &predicates, &mut out);
                prop_assert_eq!(&out[1..], &naive[..]);
            }
        }
    }
}
