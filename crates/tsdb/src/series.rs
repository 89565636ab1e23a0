//! Series identity and the inverted tag index.
//!
//! A *series* is one (measurement, tag set) combination; each distinct
//! series holds its own columns. Series **cardinality** is the database's
//! main scalability axis — the paper's schema redesign (§IV-B2) worked
//! precisely because the original schema "introduced a large series
//! cardinality". The index here makes that cost concrete: query planning
//! touches structures whose size is the cardinality.

use crate::point::DataPoint;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
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

/// Order-independent hash of a point's identity (measurement + tag set),
/// matching [`series_key_hash`] on the canonical key. Tag keys are unique
/// within a point, so XOR-combining per-pair hashes is collision-safe
/// under reordering.
fn point_identity_hash(measurement: &str, tags: &[(String, String)]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    measurement.hash(&mut h);
    let mut acc = h.finish();
    for (k, v) in tags {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        k.hash(&mut h);
        v.hash(&mut h);
        acc ^= h.finish();
    }
    acc
}

/// One measurement's posting lists. Ids are handed out in ascending order
/// and only ever appended here (or removed in place), so every list is
/// sorted without a sort — [`SeriesIndex::select`] relies on it.
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
    by_key: HashMap<Arc<SeriesKey>, SeriesId>,
    keys: Vec<Arc<SeriesKey>>,
    /// Tombstoned (dropped) slots in `keys`.
    dropped: usize,
    /// measurement → its series and their inverted tag index.
    by_measurement: HashMap<String, Postings>,
    /// Order-independent identity hash → candidate ids, for allocation-free
    /// point lookup on the write path ([`id_of_point`](Self::id_of_point)).
    by_hash: HashMap<u64, Vec<SeriesId>>,
    /// Field-name interning table (name → id, id → name).
    field_ids: HashMap<String, FieldId>,
    field_names: Vec<String>,
}

impl SeriesIndex {
    /// Empty index.
    pub fn new() -> Self {
        SeriesIndex::default()
    }

    /// Get the id for a series, registering it if new.
    pub fn get_or_create(&mut self, key: &SeriesKey) -> SeriesId {
        if let Some(&id) = self.by_key.get(key) {
            return id;
        }
        let id = SeriesId(self.keys.len() as u32);
        let key = Arc::new(key.clone());
        self.by_key.insert(Arc::clone(&key), id);
        self.keys.push(Arc::clone(&key));
        let postings = self.by_measurement.entry(key.measurement.clone()).or_default();
        postings.all.push(id);
        for (k, v) in &key.tags {
            postings.by_tag.entry(k.clone()).or_default().entry(v.clone()).or_default().push(id);
        }
        self.by_hash.entry(point_identity_hash(&key.measurement, &key.tags)).or_default().push(id);
        id
    }

    /// Resolve a point's series id without allocating, if the series is
    /// already registered. This is the steady-state write path: the point's
    /// identity is hashed order-independently (no canonical `SeriesKey` is
    /// built) and candidates are verified by tag-set comparison.
    pub fn id_of_point(&self, p: &DataPoint) -> Option<SeriesId> {
        let candidates = self.by_hash.get(&point_identity_hash(&p.measurement, &p.tags))?;
        candidates.iter().copied().find(|&id| {
            let key = &self.keys[id.0 as usize];
            key.measurement == p.measurement
                && key.tags.len() == p.tags.len()
                && p.tags.iter().all(|(k, v)| key.tag(k) == Some(v.as_str()))
        })
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

    /// Total distinct live series (the cardinality number).
    pub fn cardinality(&self) -> usize {
        self.keys.len() - self.dropped
    }

    /// Slots in the id space, live or tombstoned (ids are never reused).
    pub fn id_space(&self) -> usize {
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

    /// Remove a measurement's series from the index. Ids of surviving
    /// series are unchanged (dropped ids become tombstones that no new
    /// series reuses, keeping shard references valid).
    pub fn drop_measurement(&mut self, measurement: &str) {
        let Some(postings) = self.by_measurement.remove(measurement) else {
            return;
        };
        for id in postings.all {
            // Tombstone: keep the slot so ids stay stable, but mark the
            // key as dropped (empty measurement never matches a select).
            let key = std::mem::take(&mut self.keys[id.0 as usize]);
            self.by_key.remove(&*key);
            if let Some(list) =
                self.by_hash.get_mut(&point_identity_hash(&key.measurement, &key.tags))
            {
                list.retain(|x| *x != id);
            }
            self.dropped += 1;
        }
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
    fn dropped_series_no_longer_resolve_from_points() {
        let mut idx = SeriesIndex::new();
        let p = point("Power", "n1", "NodePower");
        idx.get_or_create(&SeriesKey::of(&p));
        idx.drop_measurement("Power");
        assert_eq!(idx.id_of_point(&p), None);
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
                dropped in prop_oneof![Just(None), Just(Some("m1")), Just(Some("m2"))],
                recreated in prop::collection::vec(arb_key(), 0..8),
                measurement in prop_oneof![Just("m1"), Just("m2"), Just("m3")],
                predicates in arb_predicates(),
            ) {
                let mut idx = SeriesIndex::new();
                for key in &keys {
                    idx.get_or_create(key);
                }
                if let Some(m) = dropped {
                    idx.drop_measurement(m);
                }
                for key in &recreated {
                    idx.get_or_create(key);
                }
                let naive: Vec<SeriesId> = (0..idx.id_space() as u32)
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
