//! String column codec: per-block dictionary *or* raw, whichever is
//! smaller.
//!
//! MonSTer's string fields repeat heavily — the same job list appears in
//! consecutive intervals, health strings cycle through a tiny vocabulary —
//! so a block dictionary captures most of the redundancy. But an
//! all-distinct block (job IDs, free-form messages) pays the dictionary
//! overhead twice: every string stored once in the dictionary *plus* one
//! index per value. The encoder builds both layouts and keeps the
//! smaller, stamping the choice in a leading mode byte.
//!
//! Layout: `mode u8 | payload` where mode is
//!
//! * `0x00` (raw): `(len varint, bytes)*` — `count` strings in order;
//! * `0x01` (dict): `dict_len varint | (len varint, bytes)* |
//!   (index varint)*`.

use super::{push_varint, read_string, read_varint};
use monster_util::{Error, Result};
use std::collections::HashMap;

const MODE_RAW: u8 = 0x00;
const MODE_DICT: u8 = 0x01;

fn encode_dict<S: AsRef<str>>(vals: &[S]) -> Vec<u8> {
    let mut dict: Vec<&str> = Vec::new();
    let mut lookup: HashMap<&str, u64> = HashMap::new();
    let mut indices: Vec<u64> = Vec::with_capacity(vals.len());
    for v in vals {
        let idx = *lookup.entry(v.as_ref()).or_insert_with(|| {
            dict.push(v.as_ref());
            (dict.len() - 1) as u64
        });
        indices.push(idx);
    }
    let mut out = vec![MODE_DICT];
    push_varint(&mut out, dict.len() as u64);
    for s in &dict {
        push_varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    for idx in indices {
        push_varint(&mut out, idx);
    }
    out
}

fn encode_raw<S: AsRef<str>>(vals: &[S]) -> Vec<u8> {
    let mut out = vec![MODE_RAW];
    for v in vals.iter().map(AsRef::as_ref) {
        push_varint(&mut out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
    out
}

/// Encode a string column, choosing dictionary or raw layout per block by
/// encoded size (ties go to raw — simpler to decode).
pub fn encode<S: AsRef<str>>(vals: &[S]) -> Vec<u8> {
    let dict = encode_dict(vals);
    let raw = encode_raw(vals);
    if dict.len() < raw.len() {
        dict
    } else {
        raw
    }
}

/// Decode `count` strings into a fresh vector.
pub fn decode(data: &[u8], count: usize) -> Result<Vec<String>> {
    let mut out = Vec::with_capacity(count);
    decode_into(data, count, &mut out)?;
    Ok(out)
}

/// Decode `count` strings into `out`, clearing it first. String payloads
/// still allocate (each value owns its bytes), but the outer vector is
/// reused by scan scratch buffers like the numeric codecs.
pub fn decode_into(data: &[u8], count: usize, out: &mut Vec<String>) -> Result<()> {
    out.clear();
    out.reserve(count);
    let mut pos = 0usize;
    let mode = *data.first().ok_or_else(|| Error::Corrupt("string column empty".into()))?;
    pos += 1;
    match mode {
        MODE_RAW => {
            for _ in 0..count {
                out.push(read_string(data, &mut pos)?);
            }
            Ok(())
        }
        MODE_DICT => {
            let dict = read_dict(data, &mut pos)?;
            for _ in 0..count {
                let idx = read_varint(data, &mut pos)? as usize;
                let s = dict
                    .get(idx)
                    .ok_or_else(|| Error::Corrupt("string index out of range".into()))?;
                out.push(s.clone());
            }
            Ok(())
        }
        other => Err(Error::Corrupt(format!("unknown string column mode {other:#04x}"))),
    }
}

fn read_dict(data: &[u8], pos: &mut usize) -> Result<Vec<String>> {
    let dict_len = read_varint(data, pos)? as usize;
    if dict_len > data.len() {
        return Err(Error::Corrupt("string dict length implausible".into()));
    }
    let mut dict: Vec<String> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(read_string(data, pos)?);
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Point-at-a-time streaming decoder. Dictionary blocks materialize the
    /// dictionary once up front, then stream indices; raw blocks stream
    /// straight off the wire. The reference the array path is proptested
    /// against.
    struct Iter<'a> {
        data: &'a [u8],
        pos: usize,
        remaining: usize,
        /// `Some(dict)` in dictionary mode, `None` in raw mode.
        dict: Option<Vec<String>>,
        /// A header parse error to surface on the first `next` call.
        failed: Option<Error>,
    }

    /// Stream `count` strings out of an encoded block one at a time.
    fn iter(data: &[u8], count: usize) -> Iter<'_> {
        let mut it = Iter { data, pos: 0, remaining: count, dict: None, failed: None };
        match data.first() {
            None => it.failed = Some(Error::Corrupt("string column empty".into())),
            Some(&MODE_RAW) => it.pos = 1,
            Some(&MODE_DICT) => {
                it.pos = 1;
                match read_dict(data, &mut it.pos) {
                    Ok(dict) => it.dict = Some(dict),
                    Err(e) => it.failed = Some(e),
                }
            }
            Some(&other) => {
                it.failed = Some(Error::Corrupt(format!("unknown string column mode {other:#04x}")))
            }
        }
        it
    }

    impl Iterator for Iter<'_> {
        type Item = Result<String>;

        fn next(&mut self) -> Option<Result<String>> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            if let Some(e) = self.failed.take() {
                self.remaining = 0;
                return Some(Err(e));
            }
            Some(match &self.dict {
                None => read_string(self.data, &mut self.pos),
                Some(dict) => read_varint(self.data, &mut self.pos).and_then(|idx| {
                    dict.get(idx as usize)
                        .cloned()
                        .ok_or_else(|| Error::Corrupt("string index out of range".into()))
                }),
            })
        }
    }

    fn rt(vals: &[&str]) {
        let owned: Vec<String> = vals.iter().map(|s| s.to_string()).collect();
        let enc = encode(&owned);
        assert_eq!(decode(&enc, owned.len()).unwrap(), owned);
        let streamed: Vec<String> = iter(&enc, owned.len()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, owned);
        let mut buf = vec!["residue".to_string()];
        decode_into(&enc, owned.len(), &mut buf).unwrap();
        assert_eq!(buf, owned);
    }

    #[test]
    fn round_trips() {
        rt(&[]);
        rt(&["a"]);
        rt(&["", "", ""]);
        rt(&["Warning", "Error", "Warning", "OK", "OK", "OK"]);
        rt(&["ünïcode", "😀", "plain"]);
    }

    #[test]
    fn repeated_job_lists_dedupe() {
        let list = "['1291784', '1318962', '1318307', '1318324']";
        let vals: Vec<String> = (0..500).map(|_| list.to_string()).collect();
        let enc = encode(&vals);
        assert_eq!(enc[0], 0x01, "repetitive block should pick the dictionary");
        // One dictionary entry + 500 single-byte indices.
        assert!(enc.len() < list.len() + 520, "got {}", enc.len());
        assert_eq!(decode(&enc, 500).unwrap(), vals);
    }

    #[test]
    fn high_cardinality_still_correct() {
        let vals: Vec<String> = (0..300).map(|i| format!("job-{i}")).collect();
        assert_eq!(decode(&encode(&vals), 300).unwrap(), vals);
    }

    #[test]
    fn all_distinct_blocks_pick_raw_and_shrink() {
        let vals: Vec<String> = (0..300).map(|i| format!("message-{i}")).collect();
        let enc = encode(&vals);
        assert_eq!(enc[0], 0x00, "distinct block should pick raw");
        // Raw skips the per-value index bytes the dictionary would add.
        let dict = super::encode_dict(&vals);
        assert!(enc.len() < dict.len(), "raw {} vs dict {}", enc.len(), dict.len());
        assert_eq!(decode(&enc, 300).unwrap(), vals);
    }

    #[test]
    fn both_modes_round_trip_explicitly() {
        let vals: Vec<String> = vec!["a".into(), "b".into(), "a".into()];
        for enc in [super::encode_raw(&vals), super::encode_dict(&vals)] {
            assert_eq!(decode(&enc, 3).unwrap(), vals);
        }
    }

    #[test]
    fn corruption_detected() {
        let vals: Vec<String> = vec!["abc".into(), "def".into()];
        let enc = encode(&vals);
        assert!(decode(&enc[..2], 2).is_err());
        assert!(decode(&[], 1).is_err());
        // Unknown mode byte.
        assert!(decode(&[0xFF, 0xFF, 0xFF, 0x7F], 1).is_err());
        // Absurd dictionary size.
        assert!(decode(&[0x01, 0xFF, 0xFF, 0xFF, 0x7F], 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole-block array decoding (`decode_into`, reused dirty buffer)
        /// is identical to the point-at-a-time streaming reference.
        #[test]
        fn batch_decode_matches_streaming(vals in prop::collection::vec("\\PC{0,16}", 0..100)) {
            let enc = encode(&vals);
            let mut arr = vec!["residue".to_string(); 3];
            decode_into(&enc, vals.len(), &mut arr).unwrap();
            let streamed: Vec<String> = iter(&enc, vals.len()).collect::<Result<_>>().unwrap();
            prop_assert_eq!(&arr, &streamed);
            prop_assert_eq!(arr, vals);
        }
    }
}
