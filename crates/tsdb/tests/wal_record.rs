//! The binary WAL record (`wal_record`), kept honest from outside the
//! crate. A second serialization format beside line protocol is a second
//! thing that can be wrong, so:
//!
//! * whatever a batch holds, `decode(encode(batch))` is that batch — every
//!   value type, bit for bit — and so is a batch of runs, points that follow
//!   each other, broken every way a run can break; a record's bytes are a
//!   function of its batch and the definitions before it (`WAL_VALUE_CASES`
//!   cases, CI runs 200 000 in release);
//! * a run writes its points' values alone, reads as the points it
//!   replaces, and no damaged run panics or outgrows its payload;
//! * every `f64` comes back with its own bits, in no more bytes than the
//!   eight-byte form, and a short decimal in fewer (`WAL_VALUE_CASES` sets
//!   the cases: 4 096 by default, CI runs 2 000 000 in release);
//! * records an earlier writer made, every float in eight bytes, read as
//!   the same values from a WAL segment and from a segment file;
//! * no CRC-valid payload — truncated, flipped or random — makes recovery
//!   panic, tear the log, lose the record behind it, or allocate past a
//!   stated multiple of the payload;
//! * a segment file replays without the files before it;
//! * writers racing to name the same new series define it once a segment;
//! * the same records behind the cold-tier `.seg` file's header are written
//!   and loaded one record at a time, however large the shard, and no
//!   damaged file is ever loaded, repaired or removed.
//!
//! The allocation counts are `counting_alloc::counted`'s, a per-thread
//! window: recovery runs on the calling thread, so sibling tests allocating
//! beside it are not counted and nothing serializes.

use counting_alloc::counted;
use monster_compress::bitio::BitWriter;
use monster_tsdb::series::SeriesIndex;
use monster_tsdb::wal::{self, Wal, FRAME_HEADER, SEGMENT_MAGIC};
use monster_tsdb::wal_record::{self, batch_points, Record, SegmentDict};
use monster_tsdb::{
    DataPoint, Db, DbConfig, FieldId, FieldValue, Query, RecoveryReport, SeriesId, SeriesKey,
    TierConfig, WalTuning,
};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("monster-wal-record-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segment_file(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// `payload` as the appender frames it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&wal::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The record payloads of one segment file, each checked against its CRC.
fn payloads(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(&bytes[..SEGMENT_MAGIC.len()], SEGMENT_MAGIC);
    let mut at = SEGMENT_MAGIC.len();
    let mut out = Vec::new();
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
        assert_eq!(wal::crc32(payload), crc);
        out.push(payload.to_vec());
        at += FRAME_HEADER + len;
    }
    out
}

/// Resolve `batch` against `index` as `Db::write_batch` does: one series id
/// a point, every point's field ids back to back.
fn resolve(index: &mut SeriesIndex, batch: &[DataPoint]) -> (Vec<SeriesId>, Vec<FieldId>) {
    let sids = batch.iter().map(|p| index.get_or_create(&SeriesKey::of(p))).collect();
    let names = batch.iter().flat_map(|p| p.fields.iter().map(|(name, _)| name));
    (sids, names.map(|name| index.intern_field(name)).collect())
}

/// What a point is to the store — canonical key, timestamp, named values —
/// with floats by their bits, so a NaN equals itself and -0.0 is not 0.0.
type Canon = (SeriesKey, i64, Vec<(String, String)>);

fn canon_value(v: &FieldValue) -> String {
    match v {
        FieldValue::Float(x) => format!("float {:016x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

fn canon(p: &DataPoint) -> Canon {
    let values = p.fields.iter().map(|(k, v)| (k.clone(), canon_value(v))).collect();
    (SeriesKey::of(p), p.time.as_secs(), values)
}

/// Every definition and point of one segment file's records, decoded as
/// recovery decodes them: each record against the counts so far.
#[derive(Default)]
struct SegmentReader {
    series: Vec<SeriesKey>,
    names: Vec<String>,
    record: Record,
}

impl SegmentReader {
    fn read(&mut self, payload: &[u8]) -> Vec<Canon> {
        let defined = (self.series.len() as u32, self.names.len() as u32);
        wal_record::decode(payload, defined.0, defined.1, &mut self.record).unwrap();
        self.series.append(&mut self.record.series_defs);
        self.names.append(&mut self.record.field_defs);
        let mut fields = self.record.fields.iter();
        let points = self.record.points.iter().map(|p| {
            let mine = fields.by_ref().take(p.fields as usize);
            let values =
                mine.map(|(f, v)| (self.names[*f as usize].clone(), canon_value(v))).collect();
            (self.series[p.series as usize].clone(), p.ts, values)
        });
        points.collect()
    }
}

/// Encode `batches` as consecutive records — of one segment, or of a new
/// one where `rolls[i]` — decode them back, and compare. Each record is
/// also what a dictionary that met the segment's earlier batches as one
/// record writes: nothing but the definitions carries from record to record.
fn assert_round_trip(batches: &[Vec<DataPoint>], rolls: &[bool]) {
    let mut index = SeriesIndex::new();
    let mut dict = SegmentDict::default();
    let mut reader = SegmentReader::default();
    let mut segment_start = 0;
    for (i, batch) in batches.iter().enumerate() {
        if rolls.get(i) == Some(&true) {
            dict.clear();
            reader = SegmentReader::default();
            segment_start = i;
        }
        let (sids, fids) = resolve(&mut index, batch);
        let mut payload = vec![0xAA; 3]; // the encoder appends; what is there stays
        wal_record::encode(batch_points(batch, &sids, &fids), &mut dict, &mut payload).unwrap();
        assert_eq!(&payload[..3], [0xAA; 3]);
        let back = reader.read(&payload[3..]);
        let want: Vec<Canon> = batch.iter().map(canon).collect();
        assert_eq!(back, want, "batch {i}");
        assert_eq!(dict.defined(), (reader.series.len() as u32, reader.names.len() as u32));

        let (mut twin, mut again) = (SegmentDict::default(), Vec::new());
        let before = batches[segment_start..i].concat();
        let (hsids, hfids) = resolve(&mut index, &before);
        wal_record::encode(batch_points(&before, &hsids, &hfids), &mut twin, &mut again).unwrap();
        again.clear();
        wal_record::encode(batch_points(batch, &sids, &fids), &mut twin, &mut again).unwrap();
        assert_eq!(again, payload[3..], "batch {i} against the same definitions");
    }
}

/// Empty, non-ASCII, and everything line protocol has to escape.
fn arb_text() -> impl Strategy<Value = String> {
    "[a-c,= \"\\\\\\n£é中🚀]{0,8}"
}

/// 2^53: a decimal's `m` must stay below it.
const EXACT: f64 = (1u64 << 53) as f64;

/// Floats at and beside every branch of the float encoding: short decimals
/// `m / 10^e` (e in 0..=6, |m| < 2^60) and one ulp either side of each, the
/// edges of `|m| < 2^53`, and what has no decimal form — −0.0, NaNs with
/// payloads, subnormals, ±∞ — beside uniformly drawn bits.
fn arb_float() -> impl Strategy<Value = f64> {
    let decimal = (any::<i64>(), 0u32..=60, 0i32..=6, -1i64..=1).prop_map(|(m, bits, e, ulp)| {
        let x = (m >> (63 - bits)) as f64 / 10f64.powi(e);
        f64::from_bits(x.to_bits().wrapping_add_signed(ulp))
    });
    let edges = vec![EXACT - 1.0, EXACT, EXACT + 2.0, -(EXACT - 1.0), -EXACT, (EXACT - 1.0) / 1e4];
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        decimal,
        prop::sample::select(edges),
        prop::sample::select(vec![-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]),
        // NaNs with payloads and subnormals, either sign.
        any::<u64>().prop_map(|b| f64::from_bits(b | 0x7FF0_0000_0000_0001)),
        any::<u64>().prop_map(|b| f64::from_bits(b & 0x800F_FFFF_FFFF_FFFF)),
    ]
}

fn arb_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        arb_float().prop_map(FieldValue::Float),
        // Raw bit patterns: NaNs with payloads, infinities, subnormals.
        any::<f64>().prop_map(FieldValue::Float),
        prop::sample::select(vec![f64::NAN, -f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 0.0])
            .prop_map(FieldValue::Float),
        any::<i64>().prop_map(FieldValue::Int),
        prop::sample::select(vec![i64::MIN, i64::MAX, 0, -1]).prop_map(FieldValue::Int),
        any::<bool>().prop_map(FieldValue::Bool),
        arb_text().prop_map(FieldValue::Str),
    ]
}

/// A point over a closed vocabulary of awkward names, so series and field
/// names recur within and across batches; timestamps anywhere, in no order.
fn arb_point() -> impl Strategy<Value = DataPoint> {
    let name = || prop::sample::select(vec!["m", "Power", "a,b=c \"d\\e\nf", "温度 °C"]);
    let ts = prop_oneof![any::<i64>(), -5_000i64..5_000, Just(i64::MIN), Just(i64::MAX)];
    (
        name(),
        prop::collection::vec((name(), arb_text()), 0..3),
        prop::collection::vec((name(), arb_value()), 1..4),
        ts,
    )
        .prop_map(|(m, tags, fields, ts)| {
            let mut p = DataPoint::new(m, EpochSecs::new(ts));
            let mut seen = HashSet::new();
            for (k, v) in tags {
                if seen.insert(k) {
                    p = p.tag(k, v);
                }
            }
            fields.into_iter().fold(p, |p, (k, v)| p.field(k, v))
        })
}

/// The field lists of [`arb_intervals`]' measurements, by measurement.
const FIELD_LISTS: [&[&str]; 3] =
    [&["Reading"], &["Reading", "Health"], &["JobList", "Reading", "Idle"]];

/// Batches shaped like collector intervals: each a list of runs — points of
/// one measurement, nodes `first, first + 1, …` at the interval's time with
/// the measurement's field list, any value of any type — so that from a
/// segment's second record on, a point follows the one before it. One
/// interval breaks each run at one point, by a node out of order, a
/// timestamp change, a different field list or a node no record named
/// before (a definition inside the run); a roll between records breaks
/// them all.
fn arb_intervals() -> impl Strategy<Value = Vec<Vec<DataPoint>>> {
    let run = (0..FIELD_LISTS.len(), 0u32..8, 1u32..12, 0u32..12, 0u8..4);
    let values = prop::collection::vec(arb_value(), 1..48);
    (prop::collection::vec(run, 1..4), 1..5usize, values, 0..5usize).prop_map(
        |(runs, intervals, values, broken)| {
            let mut values = values.into_iter().cycle();
            let mut batches = Vec::new();
            for i in 0..intervals {
                let mut batch = Vec::new();
                for &(m, first, len, at, how) in &runs {
                    for k in 0..len {
                        let (mut node, mut ts, mut list) = (first + k, 60 * i as i64, m);
                        match (i == broken && k == at, how) {
                            (false, _) => {}
                            (true, 0) => node += 2,
                            (true, 1) => ts += 1,
                            (true, 2) => list = (m + 1) % FIELD_LISTS.len(),
                            (true, _) => node += 100 + i as u32,
                        }
                        let p = DataPoint::new(format!("m{m}"), EpochSecs::new(ts))
                            .tag("NodeId", format!("10.101.1.{node}"));
                        batch.push(
                            FIELD_LISTS[list]
                                .iter()
                                .fold(p, |p, name| p.field(*name, values.next().expect("cycled"))),
                        );
                    }
                }
                batches.push(batch);
            }
            batches
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// (a) `decode(encode(batch)) ≡ batch`, record after record of a segment
    /// and across rolls, for batches of any points and batches of runs; and
    /// each record is a function of its batch and the definitions before it.
    #[test]
    fn decode_of_encode_is_the_batch(
        batches in prop_oneof![
            prop::collection::vec(prop::collection::vec(arb_point(), 0..10), 1..5),
            arb_intervals(),
        ],
        rolls in prop::collection::vec(any::<bool>(), 5..6),
    ) {
        assert_round_trip(&batches, &rolls);
    }
}

/// (a), the shapes the product writes: one series × 120 points (what
/// `crash_recovery` logs), one series whose points carry differing field
/// sets, and a batch spread over shards, backwards in time.
#[test]
fn product_shapes_round_trip() {
    let power = |ts: i64| DataPoint::new("Power", EpochSecs::new(ts)).tag("NodeId", "10.101.1.1");
    let series_hour: Vec<DataPoint> =
        (0..120).map(|i| power(i * 30).field_f64("Reading", 250.0 + i as f64 * 0.25)).collect();
    let differing = vec![
        power(0).field_f64("Reading", 1.0),
        power(60).field_f64("Reading", 2.0).field_i64("Health", 0),
        power(120).field_str("Note", "").field_bool("Throttled", true),
        power(180).field_i64("Health", 2),
    ];
    let backwards: Vec<DataPoint> =
        (0..12).map(|i| power(500_000 - i * 86_400).field_i64("Health", i)).collect();
    assert_round_trip(&[series_hour.clone(), differing.clone(), backwards.clone()], &[]);
    // Two intervals of 600 nodes: the second record's runs are cut at 256.
    let fleet = |ts: i64| -> Vec<DataPoint> {
        let node = |n| DataPoint::new("Power", EpochSecs::new(ts)).tag("NodeId", format!("{n}"));
        (0..600).map(|n| node(n).field_f64("Reading", 250.5)).collect()
    };
    assert_round_trip(&[fleet(0), fleet(60)], &[]);
    assert_round_trip(&[backwards, differing, series_hour], &[false, true, true]);
    // A record of 120 points of one series names it once.
    let (mut index, mut dict, mut payload) =
        (SeriesIndex::new(), SegmentDict::default(), Vec::new());
    let (sids, fids) = resolve(&mut index, &fleet(0));
    for ts in [0, 60] {
        payload.clear();
        let batch = fleet(ts);
        wal_record::encode(batch_points(&batch, &sids, &fids), &mut dict, &mut payload).unwrap();
    }
    // A point opens — series reference 1, `zz(60)`, one field, name
    // reference 1, `4, zz(2505)` — then runs of 256, 256 and 87 points, a
    // `0 0 n-1` each, write `4, zz(2505)` a point.
    assert_eq!(payload.len(), 1 + 1 + 1 + 1 + 3 + 3 * 3 + 599 * 3);
    let (mut index, mut dict, mut payload) =
        (SeriesIndex::new(), SegmentDict::default(), Vec::new());
    let batch: Vec<DataPoint> =
        (0..120).map(|i| power(i * 30).field_f64("Reading", 250.5)).collect();
    let (sids, fids) = resolve(&mut index, &batch);
    wal_record::encode(batch_points(&batch, &sids, &fids), &mut dict, &mut payload).unwrap();
    assert_eq!(dict.defined(), (1, 1));
    // A point is a series reference, a timestamp delta, a field count, a
    // name reference, a type and `zz(2505)`: seven bytes; the first spells
    // out the series and the name instead, 26 + 9 bytes for two.
    assert_eq!(payload.len(), 120 * 7 + 33);
}

// --- the float encoding ----------------------------------------------------

fn cases() -> u32 {
    std::env::var("WAL_VALUE_CASES").map_or(4096, |n| n.parse().expect("a case count"))
}

/// What a record holds for `x`, and what the reader gives back: `x` as the
/// only field of a segment's second record, whose first defined the series
/// and the name, so that four bytes — series and name references, the
/// timestamp delta and the field count — come before the value.
fn value_bytes(x: f64) -> (Vec<u8>, f64) {
    let batch = [DataPoint::new("m", EpochSecs::new(0)).field_f64("v", x)];
    let (mut index, mut dict) = (SeriesIndex::new(), SegmentDict::default());
    let (sids, fids) = resolve(&mut index, &batch);
    let mut payload = Vec::new();
    for _ in 0..2 {
        payload.clear();
        wal_record::encode(batch_points(&batch, &sids, &fids), &mut dict, &mut payload).unwrap();
    }
    assert_eq!(payload[..4], [1, 0, 1, 1]);
    let mut record = Record::default();
    wal_record::decode(&payload, 1, 1, &mut record).unwrap();
    match record.fields[..] {
        [(0, FieldValue::Float(back))] => (payload[4..].to_vec(), back),
        ref other => panic!("one float, not {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every bit pattern comes back as itself, never in more than the nine
    /// bytes of type 0 and its eight; type 0 is those eight bytes.
    #[test]
    fn every_float_decodes_to_its_own_bits(x in arb_float()) {
        let (bytes, back) = value_bytes(x);
        prop_assert_eq!(back.to_bits(), x.to_bits());
        prop_assert!(bytes.len() <= 9, "{} bytes for {:?}", bytes.len(), x);
        if bytes[0] == 0 {
            prop_assert_eq!(&bytes[1..], &x.to_bits().to_le_bytes()[..]);
        }
    }

    /// A short decimal `m / 10^e`, e ≤ 4, is written as one: type `4 + e'`
    /// for some e' ≤ e, in no more bytes than `zz(m)` needs. Below 2^51,
    /// `x·10^e` is within half of m, so the writer's `round` finds it; up
    /// to 2^53 it may miss by one, and such a value keeps type 0.
    #[test]
    fn a_short_decimal_is_written_as_one(m in -(1i64 << 51) + 1..1i64 << 51, e in 0u8..=4) {
        let x = m as f64 / 10f64.powi(e as i32);
        let (bytes, back) = value_bytes(x);
        prop_assert_eq!(back.to_bits(), x.to_bits());
        prop_assert!((4..=4 + e).contains(&bytes[0]), "type {} for {:?}", bytes[0], x);
        let zz = ((m << 1) ^ (m >> 63)) as u64;
        let varint = (64 - zz.leading_zeros()).max(1).div_ceil(7) as usize;
        prop_assert!(bytes.len() <= 1 + varint, "{} bytes for {}", bytes.len(), x);
    }
}

/// The least exponent wins, and each exponent has its type; what has no
/// decimal form keeps the eight bytes.
#[test]
fn readings_take_the_type_of_their_least_exponent() {
    for (x, want) in [
        (300.0, vec![4, 0xD8, 0x04]),
        (84.3, vec![5, 0x96, 0x0D]),
        (-0.5, vec![5, 0x09]),
        (12.25, vec![6, 0x92, 0x13]),
        (0.125, vec![7, 0xFA, 0x01]),
        (84.0625, vec![8, 0xE2, 0xCE, 0x66]),
        (0.0, vec![4, 0]),
    ] {
        assert_eq!(value_bytes(x).0, want, "{x}");
    }
    let computed = 0.1 + 0.2;
    for x in [-0.0, computed, 1.0 / 3.0, f64::NAN, f64::INFINITY, 5e-324, EXACT, 1e-5] {
        let bytes = value_bytes(x).0;
        assert_eq!(bytes[0], 0, "{x:?} has no short decimal form");
        assert_eq!(bytes[1..], x.to_bits().to_le_bytes(), "{x:?}");
    }
}

// --- records an earlier writer made ------------------------------------------

/// Readings with the `(type, m)` the decimal form gives them, or `None` for
/// a float that has none (then both forms write eight bytes).
const READINGS: [(f64, Option<(u8, i64)>); 5] = [
    (84.3, Some((5, 843))),
    (300.0, Some((4, 300))),
    (12.25, Some((6, 1225))),
    (0.1 + 0.2, None),
    (-0.0, None),
];

/// One series, `Power,NodeId=10.101.1.1`, one field, `Reading`, a reading a
/// minute from time 0, built by hand from the grammar: the series and the name
/// defined by the first point and referred to after. `old` writes every
/// float as an earlier writer did — type 0, the eight bytes — and otherwise
/// a decimal as `(type, zz(m))`.
fn hand_record(old: bool) -> Vec<u8> {
    let text = |out: &mut Vec<u8>, s: &str| {
        out.push(s.len() as u8);
        out.extend_from_slice(s.as_bytes());
    };
    let varint = |out: &mut Vec<u8>, mut v: u64| {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    };
    let zz = |v: i64| ((v << 1) ^ (v >> 63)) as u64;
    let mut out = Vec::new();
    for (i, &(x, decimal)) in READINGS.iter().enumerate() {
        if i == 0 {
            out.push(0);
            text(&mut out, "Power");
            out.push(1);
            text(&mut out, "NodeId");
            text(&mut out, "10.101.1.1");
        } else {
            out.push(1);
        }
        varint(&mut out, zz(if i == 0 { 0 } else { 60 }));
        out.push(1);
        if i == 0 {
            out.push(0);
            text(&mut out, "Reading");
        } else {
            out.push(1);
        }
        match decimal.filter(|_| !old) {
            Some((ty, m)) => {
                out.push(ty);
                varint(&mut out, zz(m));
            }
            None => {
                out.push(0);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    out
}

fn reading_batch(t0: i64) -> Vec<DataPoint> {
    let at = |i: usize| EpochSecs::new(t0 + 60 * i as i64);
    let point = |(i, &(x, _)): (usize, &(f64, _))| {
        DataPoint::new("Power", at(i)).tag("NodeId", "10.101.1.1").field_f64("Reading", x)
    };
    READINGS.iter().enumerate().map(point).collect()
}

/// What a recovered database answers, floats by their bits (`{:?}` tells
/// −0.0 from 0.0).
fn answers(db: &Db) -> String {
    let q = Query::select("Power", "Reading", EpochSecs::new(-DAY), EpochSecs::new(3 * DAY));
    format!("{:?} {:?}", db.stats(), db.query(&q).unwrap().0)
}

/// Records in the form every float took before decimals — type 0 and its
/// eight bytes — in an `MWALSEG2` segment and in an `MSEG3` segment file,
/// recover to what the same readings written by this writer recover to.
/// The hand-built records in the decimal form are byte for byte what the
/// writer wrote, so the two directories differ only in the float encoding.
#[test]
fn records_with_eight_byte_floats_still_read() {
    let batch = reading_batch(0);
    // The WAL: this writer's segment, and the old record in one of its own.
    let new_dir = fresh_dir("new-wal");
    let (db, _) = Db::recover(DbConfig::default(), &new_dir).unwrap();
    db.write_batch(&batch).unwrap();
    drop(db);
    assert_eq!(payloads(&segment_file(&new_dir, 0)), [hand_record(false)]);
    let old_dir = fresh_dir("old-wal");
    std::fs::create_dir_all(&old_dir).unwrap();
    let old = [&SEGMENT_MAGIC[..], &frame(&hand_record(true))].concat();
    std::fs::write(segment_file(&old_dir, 0), old).unwrap();
    assert!(hand_record(true).len() > hand_record(false).len());
    let (new, report) = Db::recover(DbConfig::default(), &new_dir).unwrap();
    let (old, old_report) = Db::recover(DbConfig::default(), &old_dir).unwrap();
    assert_eq!((old_report.replayed_records, old_report.records_failed), (1, 0));
    assert_eq!(old_report, report);
    assert_eq!(answers(&old), answers(&new));
    drop((new, old));
    std::fs::remove_dir_all(&new_dir).ok();
    std::fs::remove_dir_all(&old_dir).ok();

    // A segment file: day 0 tiered behind a point in day 2. The old file
    // replaces this writer's, and the WAL both directories replay is the same.
    let new_dir = fresh_dir("new-seg");
    let (db, _) = Db::recover(tiered_config(), &new_dir).unwrap();
    db.write_batch(&batch).unwrap();
    db.write_batch(&reading_batch(2 * DAY)[..1]).unwrap();
    db.tier_cold_shards(EpochSecs::new(2 * DAY)).unwrap();
    drop(db);
    let seg = std::fs::read(new_dir.join("shard-0.seg")).unwrap();
    let body = &seg[6 + FRAME_HEADER..seg.len() - FRAME_HEADER];
    assert_eq!(seg.len(), 6 + 2 * FRAME_HEADER + body.len(), "one record and the end frame");
    let within = monster_compress::decompress_within(body, wal::MAX_RECORD_BYTES).unwrap();
    assert_eq!(within, hand_record(false));
    let old_dir = fresh_dir("old-seg");
    std::fs::create_dir_all(&old_dir).unwrap();
    for (name, bytes) in dir_image(&new_dir) {
        std::fs::write(old_dir.join(name), bytes).unwrap();
    }
    let old = [&b"MSEG3\n"[..], &sealed_frame(&hand_record(true)), &[0; FRAME_HEADER]].concat();
    std::fs::write(old_dir.join("shard-0.seg"), old).unwrap();
    let (new, report) = Db::recover(tiered_config(), &new_dir).unwrap();
    let (old, old_report) = Db::recover(tiered_config(), &old_dir).unwrap();
    assert_eq!((old_report.segment_files_loaded, old_report.segment_points), (1, READINGS.len()));
    assert_eq!(old_report, report);
    assert_eq!(answers(&old), answers(&new));
    drop((new, old));
    std::fs::remove_dir_all(&new_dir).ok();
    std::fs::remove_dir_all(&old_dir).ok();
}

// --- runs ------------------------------------------------------------------

/// Three nodes' power at one time: the shape a collector interval logs.
fn three_nodes(ts: i64) -> Vec<DataPoint> {
    let node = |n: i64| {
        DataPoint::new("Power", EpochSecs::new(ts))
            .tag("NodeId", format!("10.101.1.{n}"))
            .field_f64("Reading", 250.0 + (ts / 60 + n) as f64)
            .field_i64("Health", 0)
    };
    (1..=3).map(node).collect()
}

/// `three_nodes(60)` as a segment's second record: the first point is a
/// series reference, the timestamp delta `zz(60)`, the field count, and a
/// name reference, type and value a field (`4, zz(252)`, `1, zz(0)`);
/// `0 0 1` opens a run of the other two (the count less one), which write
/// their types and values alone.
const RUN_RECORD: [u8; 23] = [
    1, 120, 2, 1, 4, 0xF8, 3, 2, 1, 0, //
    0, 0, 1, 4, 0xFA, 3, 1, 0, 4, 0xFC, 3, 1, 0,
];

/// The same points in the grammar before runs: each spelled out.
const SPELLED_OUT: [u8; 30] = [
    1, 120, 2, 1, 4, 0xF8, 3, 2, 1, 0, //
    2, 0, 2, 1, 4, 0xFA, 3, 2, 1, 0, //
    3, 0, 2, 1, 4, 0xFC, 3, 2, 1, 0,
];

/// A WAL-on database's segment after `three_nodes` at 0 and at 60 s.
fn two_intervals(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
    db.write_batch(&three_nodes(0)).unwrap();
    db.write_batch(&three_nodes(60)).unwrap();
    dir
}

/// A run is the writer's record of points that follow each other, and it
/// recovers to what the same points spelled out, as a writer before runs
/// logged them, recover to.
#[test]
fn a_run_reads_as_the_points_it_spells_out() {
    let new_dir = two_intervals("run-new");
    let written = payloads(&segment_file(&new_dir, 0));
    assert_eq!(written[1], RUN_RECORD);
    let old_dir = fresh_dir("run-old");
    std::fs::create_dir_all(&old_dir).unwrap();
    let old = [&SEGMENT_MAGIC[..], &frame(&written[0]), &frame(&SPELLED_OUT)].concat();
    std::fs::write(segment_file(&old_dir, 0), old).unwrap();
    let (new, report) = Db::recover(DbConfig::default(), &new_dir).unwrap();
    let (old, old_report) = Db::recover(DbConfig::default(), &old_dir).unwrap();
    assert_eq!((old_report.replayed_records, old_report.records_failed), (2, 0));
    assert_eq!(old_report, report);
    for field in ["Reading", "Health"] {
        let q = Query::select("Power", field, EpochSecs::new(0), EpochSecs::new(120));
        assert_eq!(new.query(&q).unwrap().0, old.query(&q).unwrap().0, "{field}");
    }
    assert_eq!(point_count(&new, "Power", "Reading"), 6);
    drop((new, old));
    std::fs::remove_dir_all(&new_dir).ok();
    std::fs::remove_dir_all(&old_dir).ok();
}

/// A run needs a point before it and series the segment has defined; every cut and flip of a run record decodes or is
/// refused, without a panic and without points or fields past its bytes
/// or allocation past [`PER_BYTE`] a byte.
#[test]
fn damaged_runs_are_refused_or_stay_within_their_bytes() {
    let decode = |payload: &[u8]| {
        let mut record = Record::default();
        let (decoded, asked) = counted(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                wal_record::decode(payload, 3, 2, &mut record)
            }))
            .expect("decode panicked")
        });
        assert!(asked.bytes <= PER_BYTE * payload.len().max(1), "{payload:?}: {asked:?}");
        let within = record.points.len() <= payload.len() && record.fields.len() <= payload.len();
        assert!(decoded.is_err() || within, "{payload:?}");
        decoded.map(|()| record)
    };
    let spelled = decode(&SPELLED_OUT).unwrap();
    let run = decode(&RUN_RECORD).unwrap();
    assert_eq!(run.points, spelled.points);
    assert_eq!(format!("{:?}", run.fields), format!("{:?}", spelled.fields));
    for refused in [
        &[0, 0, 0, 4, 0xF8, 3, 1, 0][..], // no point before it
        &[3, 120, 2, 1, 4, 0xF8, 3, 2, 1, 0, 0, 0, 0, 4, 0xFA, 3, 1, 0], // past series 2
    ] {
        assert!(decode(refused).is_err(), "{refused:?}");
    }
    for cut in 0..RUN_RECORD.len() {
        let _ = decode(&RUN_RECORD[..cut]);
    }
    for i in 0..RUN_RECORD.len() {
        for bit in 0..8 {
            let mut bad = RUN_RECORD;
            bad[i] ^= 1 << bit;
            let _ = decode(&bad);
        }
    }
}

// --- (b) hostile payloads ------------------------------------------------

fn point_count(db: &Db, measurement: &str, field: &str) -> usize {
    let q = Query::select(measurement, field, EpochSecs::new(-100_000), EpochSecs::new(100_000));
    db.query(&q).unwrap().0.point_count()
}

/// What recovery may ask of the allocator for a record, over what it asks
/// for an empty one: at most this many bytes a payload byte, in one request
/// or in all of them together. The dearest honest bytes are a point that
/// opens a shard — eight of them buy a `Shard`, its maps, a column and a
/// gauge, 143 B a byte measured below; a length or count the payload merely
/// *claims* buys nothing.
const PER_BYTE: usize = 256;

/// (b) Every truncation and every single-byte flip of a valid record, and
/// seeded random bytes, CRC-framed between two good records: applied or
/// counted, never a panic or a tear, the record behind still replayed, and
/// never an allocation past the stated multiple of the payload.
#[test]
fn crc_valid_hostile_records_are_skipped_not_torn() {
    let node = |m: &str, n: u32, ts: i64| {
        DataPoint::new(m, EpochSecs::new(ts)).tag("NodeId", format!("10.101.1.{n}"))
    };
    // The segment's first record defines two series and two field names.
    let first = vec![
        node("Power", 1, 0).field_f64("Reading", 250.5).field_i64("Health", 0),
        node("Power", 2, 0).field_f64("Reading", 251.5).field_i64("Health", 1),
    ];
    // The victim refers to them, defines a series and two names of its own
    // and refers to those too, with every value type.
    let victim = vec![
        node("Power", 1, 60).field_f64("Reading", f64::NAN).field_i64("Health", i64::MIN),
        node("NodeJobs", 1, 60).field_str("JobList", "['1290001', 'é']").field_bool("Idle", true),
        node("Power", 2, 60).field_f64("Reading", -0.0).field_i64("Health", 2),
        node("NodeJobs", 1, 120).field_str("JobList", "").field_bool("Idle", false),
    ];
    // The record behind it defines everything it uses (encoded against an
    // empty dictionary), so it means the same whatever the victim defined.
    let good = vec![DataPoint::new("Good", EpochSecs::new(0)).field_i64("ok", 1)];

    let mut index = SeriesIndex::new();
    let mut encode = |batch: &[DataPoint], dict: &mut SegmentDict| {
        let (sids, fids) = resolve(&mut index, batch);
        let mut payload = Vec::new();
        wal_record::encode(batch_points(batch, &sids, &fids), dict, &mut payload).unwrap();
        payload
    };
    // The dearest bytes an honest writer can log: eight a point, every
    // point of a known series in a new shard.
    let spread: Vec<DataPoint> =
        (0..400).map(|i| node("Power", 1, i * 86_400).field_bool("Throttled", true)).collect();
    // `first`'s payload, and `batch`'s as the segment's second record.
    let mut after_first = |batch: &[DataPoint]| {
        let mut dict = SegmentDict::default();
        (encode(&first, &mut dict), encode(batch, &mut dict))
    };
    let (first, victim) = after_first(&victim);
    let (_, spread) = after_first(&spread);
    // What `write_batch` refuses never reaches the log; here it has.
    let (_, unstorable) = after_first(&[node("Power", 1, i64::MAX).field_i64("Health", 0)]);
    let good = encode(&good, &mut SegmentDict::default());

    let dir = fresh_dir("hostile");
    let recover = |hostile: &[u8]| -> (RecoveryReport, Db, usize, usize) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = SEGMENT_MAGIC.to_vec();
        for payload in [&first[..], hostile, &good[..]] {
            file.extend_from_slice(&frame(payload));
        }
        std::fs::write(segment_file(&dir, 0), &file).unwrap();
        let (recovered, asked) = counted(|| {
            std::panic::catch_unwind(|| Db::recover(DbConfig::default(), &dir))
                .expect("recovery panicked")
                .expect("recovery failed")
        });
        (recovered.1, recovered.0, asked.largest, asked.bytes)
    };

    // An empty payload is an empty batch; the honest victim applies whole.
    // (The process's first recovery also registers the metrics: not the base.)
    drop(recover(&[]));
    let (report, db, base_largest, base_requested) = recover(&[]);
    assert_eq!((report.replayed_records, report.records_failed), (3, 0));
    assert_eq!(db.stats().points, 4 + 1);
    drop(db);
    let (report, db, ..) = recover(&victim);
    assert_eq!((report.replayed_records, report.records_failed), (3, 0));
    assert_eq!(db.stats().points, 4 + 8 + 1);
    assert_eq!(point_count(&db, "NodeJobs", "JobList"), 2);
    drop(db);

    let check = |what: &str, hostile: &[u8]| {
        let (report, db, largest, requested) = recover(hostile);
        assert!(!report.torn_tail, "{what}: torn");
        assert_eq!(report.replayed_records + report.records_failed, 3, "{what}: {report:?}");
        assert!(report.records_failed <= 1, "{what}: {report:?}");
        assert!(point_count(&db, "Power", "Health") >= 2, "{what}: the record before it is lost");
        assert_eq!(point_count(&db, "Good", "ok"), 1, "{what}: the record behind it is lost");
        let over = PER_BYTE * hostile.len();
        assert!(largest <= base_largest + over, "{what}: one request of {largest} B");
        assert!(requested <= base_requested + over, "{what}: {requested} B requested");
    };

    check("a shard a point", &spread);
    check("a timestamp no shard can hold", &unstorable);
    for cut in 0..victim.len() {
        check(&format!("cut to {cut} bytes"), &victim[..cut]);
    }
    for i in 0..victim.len() {
        let mut bad = victim.clone();
        // One bit in odd bytes, all eight in even ones.
        bad[i] ^= if i % 2 == 1 { 1 << (i / 2 % 8) } else { 0xFF };
        check(&format!("byte {i} flipped"), &bad);
    }
    let mut x = 0x5EED_CAFE_u64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for case in 0..300 {
        // Mostly small values: bytes that read as references, counts and
        // type codes get further into the decoder than uniform noise.
        let noise: Vec<u8> = (0..1 + next() % 96)
            .map(|_| if next() % 4 == 0 { next() as u8 } else { (next() % 5) as u8 })
            .collect();
        check(&format!("random case {case}"), &noise);
        // And the same noise over a stretch of the victim.
        let (at, len) = (next() % victim.len(), 1 + next() % 8);
        let mut bad = victim.clone();
        for (b, n) in bad[at..].iter_mut().take(len).zip(&noise) {
            *b = *n;
        }
        check(&format!("random case {case}, {len} bytes at {at}"), &bad);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --- (c) segment self-containment ----------------------------------------

/// (c) Every series is first seen in segment 0; the log rolls after every
/// second batch and the first two files are reclaimed. What is left replays with nothing
/// failed, to the twin that was only ever given the surviving records.
#[test]
fn a_segment_replays_without_its_predecessors() {
    let dir = fresh_dir("standalone");
    let tuning = WalTuning { segment_bytes: 300, ..WalTuning::default() };
    let config = DbConfig { wal: tuning, ..DbConfig::default() };
    let wal = Wal::create(&dir, tuning, &monster_obs::Registry::new()).unwrap();
    let mut index = SeriesIndex::new();
    let batch_at = |i: i64| -> Vec<DataPoint> {
        (1..=6)
            .map(|n| {
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{n}"))
                    .field_f64("Reading", 250.0 + (i * n) as f64)
                    .field_i64("Health", i % 3)
            })
            .collect()
    };
    // (batch, the segment it landed in)
    let mut landed: Vec<(Vec<DataPoint>, usize)> = Vec::new();
    for i in 0..12 {
        let batch = batch_at(i);
        let (sids, fids) = resolve(&mut index, &batch);
        let segment = wal.status().segments - 1;
        wal.append_batch(&batch, &sids, &fids).unwrap();
        landed.push((batch, segment));
    }
    assert!(wal.status().segments >= 5, "four rolls at least: {:?}", wal.status());
    let first_kept = landed.iter().position(|(_, segment)| *segment == 2).unwrap();
    assert_eq!(wal.reclaim_before(first_kept as i64 * 60).unwrap(), 2);
    drop(wal);
    assert!(!segment_file(&dir, 0).exists() && !segment_file(&dir, 1).exists());

    let (recovered, report) = Db::recover(config, &dir).unwrap();
    assert_eq!(report.records_failed, 0);
    assert!(!report.torn_tail);
    assert_eq!(report.replayed_records as usize, landed.len() - first_kept);
    let twin = Db::new(config);
    for (batch, _) in &landed[first_kept..] {
        twin.write_batch(batch).unwrap();
    }
    assert_eq!(recovered.stats(), twin.stats());
    assert_eq!(recovered.measurement_marks(), twin.measurement_marks());
    for field in ["Reading", "Health"] {
        let q = Query::select("Power", field, EpochSecs::new(0), EpochSecs::new(10_000));
        assert_eq!(recovered.query(&q).unwrap().0, twin.query(&q).unwrap().0, "{field}");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

// --- (d) racing writers --------------------------------------------------

/// (d) Two threads write new series — some of them the *same* new series —
/// into one WAL-on database while the log rolls under them. Whichever
/// record reaches the appender first defines a series, the other refers to
/// it: one definition a segment, nothing failed at replay, and the
/// recovered database is the twin that was fed the batches one by one.
#[test]
fn racing_writers_define_each_series_once_a_segment() {
    let dir = fresh_dir("race");
    let config = DbConfig {
        wal: WalTuning { segment_bytes: 2 << 10, ..WalTuning::default() },
        ..DbConfig::default()
    };
    // Round `i` of writer `w`: a series both writers meet for the first
    // time this round, one of its own, and one everybody knows.
    let batch = |w: i64, i: i64| -> Vec<DataPoint> {
        let ts = EpochSecs::new((2 * i + w) * 10);
        ["everyone".to_string(), format!("round-{i}"), format!("writer-{w}-{i}")]
            .into_iter()
            .map(|node| {
                DataPoint::new("Power", ts)
                    .tag("NodeId", node)
                    .field_f64("Reading", (100 * w + i) as f64)
                    .field_i64(format!("Round{}", i % 7), i)
            })
            .collect()
    };
    const ROUNDS: i64 = 60;
    let (db, _) = Db::recover(config, &dir).unwrap();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2 {
            let (db, start, batch) = (&db, &start, &batch);
            s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    db.write_batch(&batch(w, i)).unwrap();
                }
            });
        }
    });
    let segments = db.wal_status().unwrap().segments as u64;
    assert!(segments >= 4, "the log should have rolled under the writers: {segments}");
    drop(db);

    for seq in 0..segments {
        let mut reader = SegmentReader::default();
        for payload in payloads(&segment_file(&dir, seq)) {
            reader.read(&payload);
        }
        let distinct: HashSet<&SeriesKey> = reader.series.iter().collect();
        assert_eq!(distinct.len(), reader.series.len(), "segment {seq} defines a series twice");
        let distinct: HashSet<&String> = reader.names.iter().collect();
        assert_eq!(distinct.len(), reader.names.len(), "segment {seq} defines a name twice");
    }

    let (recovered, report) = Db::recover(config, &dir).unwrap();
    assert_eq!((report.replayed_records, report.records_failed), (2 * ROUNDS as u64, 0));
    let twin = Db::new(config);
    for w in 0..2 {
        for i in 0..ROUNDS {
            twin.write_batch(&batch(w, i)).unwrap();
        }
    }
    // Whole statistics; of the watermark only what does not depend on the
    // order the two writers' batches interleaved in.
    assert_eq!(recovered.stats(), twin.stats());
    let (got, want) = (recovered.measurement_mark("Power"), twin.measurement_mark("Power"));
    assert_eq!((got.version, got.max_ts), (want.version, want.max_ts));
    for field in ["Reading", "Round0", "Round6"] {
        let q = Query::select("Power", field, EpochSecs::new(0), EpochSecs::new(10_000));
        assert_eq!(recovered.query(&q).unwrap().0, twin.query(&q).unwrap().0, "{field}");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

// --- (e) the other header: segment files -----------------------------------

const DAY: i64 = 86_400;

fn tiered_config() -> DbConfig {
    DbConfig { tiering: Some(TierConfig::days(1)), ..DbConfig::default() }
}

/// `series` series × `per_series` values in day 0, one point in day 2, so
/// that a tiering pass at the start of day 2 turns day 0 into `shard-0.seg`.
fn fill_day_zero(db: &Db, series: usize, per_series: usize) {
    let step = DAY / per_series as i64;
    assert!(step > 0);
    let node = |n: usize, ts: i64| {
        DataPoint::new("Power", EpochSecs::new(ts)).tag("NodeId", format!("10.101.1.{n}"))
    };
    for chunk in (0..per_series).collect::<Vec<_>>().chunks(10_000 / series) {
        let batch: Vec<DataPoint> = chunk
            .iter()
            .flat_map(|&i| {
                (0..series).map(move |n| {
                    node(n, i as i64 * step)
                        .field_f64("Reading", 250.0 + (i * 31 + n) as f64 * 0.37)
                })
            })
            .collect();
        db.write_batch(&batch).unwrap();
    }
    db.write_batch(&[node(0, 2 * DAY).field_f64("Reading", 1.0)]).unwrap();
}

/// What tiering a day of `50 × per_series` values and recovering it hold
/// live at their peak: `(tiering, over the shard it started with; recovery,
/// over the database it returns)`.
fn tier_and_recover_peaks(tag: &str, per_series: usize) -> (isize, isize) {
    let dir = fresh_dir(tag);
    let (db, _) = Db::recover(tiered_config(), &dir).unwrap();
    fill_day_zero(&db, 50, per_series);
    db.wal_sync().unwrap();
    let stats = db.stats();
    let (report, tiering) = counted(|| db.tier_cold_shards(EpochSecs::new(2 * DAY)));
    let report = report.unwrap();
    assert_eq!((report.shards_tiered, report.points_tiered), (1, 50 * per_series));
    drop(db);
    let (recovered, recovery) = counted(|| Db::recover(tiered_config(), &dir).unwrap());
    assert_eq!(recovered.1.segment_points, 50 * per_series);
    assert_eq!(recovered.0.stats().points, stats.points);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    (tiering.peak_live, recovery.peak_live - recovery.live)
}

/// (e) Tiering a shard and loading it back hold one record, not the shard:
/// what either has live at its peak, over the store itself, stays under a
/// constant — the same one for a shard four times the size. (Rendering the
/// shard as text held 130 B a value to write it and 570 B a value to load it.)
#[test]
fn tiering_and_recovery_hold_one_record_however_large_the_shard() {
    // A record's worth of values four times over — as `(ids, ts, value)`s,
    // as its payload, as the decoded `Record`, as `apply`'s shard group —
    // and the compressor's tables.
    const BOUND: isize = 3 << 20;
    let small = tier_and_recover_peaks("bounded-200k", 4_000);
    let large = tier_and_recover_peaks("bounded-800k", 16_000);
    for (what, (tier, recover)) in [("200 k values", small), ("800 k values", large)] {
        assert!(tier < BOUND, "{what}: tiering held {tier} B over the shard");
        assert!(recover < BOUND, "{what}: recovery held {recover} B over the store");
    }
}

fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// A zlib stream of more than `len` zero bytes, built by hand: one
/// fixed-Huffman block of a literal 0, then copies of 258 bytes at
/// distance 1, 13 bits each (codes are sent from their first bit, so each
/// is written bit-reversed). Its Adler-32 is wrong; it is refused first.
fn zeros_past(len: usize) -> Vec<u8> {
    let mut w = BitWriter::appending_to(vec![0x78, 0x01]);
    w.write(0b011, 3); // the final block, fixed Huffman
    w.write(0b0000_1100, 8); // literal 0: code 0011_0000
    for _ in 0..len / 258 + 1 {
        // Length 258 (code 1100_0101), then distance 1 (code 00000).
        w.write(0b1010_0011, 8 + 5);
    }
    w.write(0, 7); // end-of-block
    let mut stream = w.finish();
    stream.extend_from_slice(&[0, 0, 0, 1]);
    stream
}

/// `payload` as a sealed file frames it: compressed, then framed.
fn sealed_frame(payload: &[u8]) -> Vec<u8> {
    frame(&monster_compress::compress(payload, monster_compress::Level::default()))
}

/// (e) Hostile bytes behind `MSEG3`: a segment file cut at any offset, with any byte flipped, with a length that lies, a
/// frame that is not a record, a reference past its definitions or the
/// previous format's header is an error — never a panic, never a database,
/// and never a file touched: the directory is byte for byte what it was.
#[test]
fn damaged_sealed_files_are_refused_and_left_alone() {
    let dir = fresh_dir("sealed-hostile");
    let (db, _) = Db::recover(tiered_config(), &dir).unwrap();
    // Two records and a bit: 3 series × 7 000 values.
    fill_day_zero(&db, 3, 7_000);
    db.wal_sync().unwrap();
    db.tier_cold_shards(EpochSecs::new(2 * DAY)).unwrap();
    let stats = db.stats();
    drop(db);
    let seg_path = dir.join("shard-0.seg");
    let seg = std::fs::read(&seg_path).unwrap();
    assert_eq!(&seg[..6], b"MSEG3\n");

    // The frames of the good segment file: (offset, length) of each.
    let mut frames = Vec::new();
    let mut at = 6;
    while at < seg.len() {
        let len = u32::from_le_bytes(seg[at..at + 4].try_into().unwrap()) as usize;
        frames.push((at, FRAME_HEADER + len));
        at += FRAME_HEADER + len;
    }
    assert_eq!(frames.len(), 3 + 1, "three records and the end frame");
    assert_eq!(frames[3].1, FRAME_HEADER);

    let refused = |what: &str, bytes: &[u8]| -> String {
        std::fs::write(&seg_path, bytes).unwrap();
        let before = dir_image(&dir);
        let outcome = std::panic::catch_unwind(|| Db::recover(tiered_config(), &dir));
        let err = match outcome.unwrap_or_else(|_| panic!("{what}: recovery panicked")) {
            Ok(_) => panic!("{what}: recovered a database"),
            Err(e) => e.to_string(),
        };
        assert!(dir_image(&dir) == before, "{what}: recovery changed the directory");
        err
    };

    // A short file: one record of six values and the end frame. Every
    // truncation and every single-byte flip of it.
    let small = {
        let small_dir = fresh_dir("sealed-small");
        let (db, _) = Db::recover(tiered_config(), &small_dir).unwrap();
        fill_day_zero(&db, 3, 2);
        db.tier_cold_shards(EpochSecs::new(2 * DAY)).unwrap();
        drop(db);
        let bytes = std::fs::read(small_dir.join("shard-0.seg")).unwrap();
        std::fs::remove_dir_all(&small_dir).ok();
        bytes
    };
    for cut in 0..small.len() {
        refused(&format!("cut to {cut} bytes"), &small[..cut]);
    }
    for i in 0..small.len() {
        let mut bad = small.clone();
        bad[i] ^= if i % 2 == 1 { 1 << (i / 2 % 8) } else { 0xFF };
        refused(&format!("byte {i} flipped"), &bad);
    }
    // The long file: cut at and beside every frame boundary, a frame gone
    // from the middle, frames after the end.
    for &(at, len) in &frames {
        for cut in [at, at + 1, at + len - 1] {
            refused(&format!("cut to {cut} of {} bytes", seg.len()), &seg[..cut]);
        }
    }
    let (at, len) = frames[1];
    let without_second = [&seg[..at], &seg[at + len..]].concat();
    refused("a frame missing from the middle", &without_second);
    let doubled = [&seg[..], &seg[6..]].concat();
    refused("frames after the end frame", &doubled);
    // Lengths that lie.
    for len in [u32::MAX, (wal::MAX_RECORD_BYTES + 1) as u32, (seg.len() - at) as u32] {
        let mut bad = seg.clone();
        bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
        refused(&format!("a frame of {len} bytes"), &bad);
    }
    // Frames that check out and hold no record: not a zlib stream, a
    // stream of noise, of nothing but a reference to a series the file
    // never defined, and one that inflates past what a record may be.
    let with_frame = |frame: Vec<u8>| [&seg[..at], &frame[..], &seg[at..]].concat();
    refused("a frame that is not a container", &with_frame(frame(b"not zlib at all")));
    refused("a container of noise", &with_frame(sealed_frame(&[0xFF; 64])));
    let err = refused("an undefined reference", &with_frame(sealed_frame(&[9, 0, 1, 1, 2, 1])));
    assert!(err.contains("reference past"), "{err}");
    let err = refused(
        "a container that inflates past a record",
        &with_frame(frame(&zeros_past(wal::MAX_RECORD_BYTES))),
    );
    assert!(err.contains("inflates past"), "{err}");
    // The formats before this one, refused by name.
    let err = refused("an MSEG1 file", b"MSEG1\n compressed line protocol");
    assert!(err.contains("MSEG1") && err.contains("unsupported"), "{err}");
    let err = refused("an MSEG2 file", &[&b"MSEG2\n"[..], &seg[6..]].concat());
    assert!(err.contains("MSEG2") && err.contains("unsupported"), "{err}");

    // The good file back, and beside it what an interrupted tiering pass
    // leaves: ignored, and still there afterwards.
    std::fs::write(&seg_path, &seg).unwrap();
    std::fs::write(dir.join("shard-0.seg.tmp"), &seg[..seg.len() / 2]).unwrap();
    let (recovered, report) = Db::recover(tiered_config(), &dir).unwrap();
    assert_eq!((report.segment_files_loaded, report.segment_points), (1, 21_000));
    assert_eq!(recovered.stats().points, stats.points);
    assert_eq!(std::fs::read(dir.join("shard-0.seg.tmp")).unwrap(), &seg[..seg.len() / 2]);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
