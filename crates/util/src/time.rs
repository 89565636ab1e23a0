//! Time handling: epoch seconds, RFC 3339 timestamps, and interval grammar.
//!
//! The paper stresses (§III-B3, §IV-B2) that converting human-readable date
//! strings into integer epoch times is one of the schema optimizations that
//! shrank the database to 28 % of its original volume. This module is the
//! single implementation of that conversion: a proleptic-Gregorian civil
//! calendar mapping with no external dependencies.

use crate::error::{Error, Result};
use std::fmt;
use std::ops::{Add, Sub};

/// Seconds since the Unix epoch (1970-01-01T00:00:00Z), UTC only.
///
/// MonSTer stores all timestamps in this form (the paper's "binary integer
/// epoch time"). Arithmetic is provided via `+`/`-` with second counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochSecs(pub i64);

impl EpochSecs {
    /// Construct from a raw second count.
    pub const fn new(secs: i64) -> Self {
        EpochSecs(secs)
    }

    /// The raw second count.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Parse an RFC 3339 / ISO 8601 UTC timestamp such as
    /// `"2020-04-20T12:00:00Z"`. Only the `Z` (UTC) suffix is accepted —
    /// the management network, the scheduler, and the TSDB all run in UTC.
    pub fn parse_rfc3339(s: &str) -> Result<Self> {
        let b = s.as_bytes();
        if b.len() != 20
            || b[4] != b'-'
            || b[7] != b'-'
            || b[10] != b'T'
            || b[13] != b':'
            || b[16] != b':'
            || b[19] != b'Z'
        {
            return Err(Error::parse(format!("expected YYYY-MM-DDTHH:MM:SSZ, got {s:?}")));
        }
        let num = |range: std::ops::Range<usize>| -> Result<i64> {
            let part = &s[range];
            part.parse::<i64>()
                .map_err(|_| Error::parse(format!("non-numeric field {part:?} in {s:?}")))
        };
        let (y, mo, d) = (num(0..4)?, num(5..7)?, num(8..10)?);
        let (h, mi, sec) = (num(11..13)?, num(14..16)?, num(17..19)?);
        if !(1..=12).contains(&mo) {
            return Err(Error::parse(format!("month {mo} out of range in {s:?}")));
        }
        if d < 1 || d > days_in_month(y, mo as u8) as i64 {
            return Err(Error::parse(format!("day {d} out of range in {s:?}")));
        }
        if h > 23 || mi > 59 || sec > 59 {
            return Err(Error::parse(format!("time-of-day out of range in {s:?}")));
        }
        let days = days_from_civil(y, mo as u8, d as u8);
        Ok(EpochSecs(days * 86_400 + h * 3_600 + mi * 60 + sec))
    }

    /// Format as `YYYY-MM-DDTHH:MM:SSZ` (what `Display` writes).
    pub fn to_rfc3339(self) -> String {
        self.to_string()
    }

    /// Round down to a multiple of `interval` seconds (window bucketing, as
    /// InfluxDB's `GROUP BY time(...)` does).
    pub fn truncate(self, interval_secs: i64) -> EpochSecs {
        assert!(interval_secs > 0, "interval must be positive");
        EpochSecs(self.0.div_euclid(interval_secs) * interval_secs)
    }
}

impl fmt::Display for EpochSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            y,
            m,
            d,
            secs / 3_600,
            (secs / 60) % 60,
            secs % 60
        )
    }
}

impl Add<i64> for EpochSecs {
    type Output = EpochSecs;
    fn add(self, rhs: i64) -> EpochSecs {
        EpochSecs(self.0 + rhs)
    }
}

impl Sub<i64> for EpochSecs {
    type Output = EpochSecs;
    fn sub(self, rhs: i64) -> EpochSecs {
        EpochSecs(self.0 - rhs)
    }
}

impl Sub<EpochSecs> for EpochSecs {
    type Output = i64;
    fn sub(self, rhs: EpochSecs) -> i64 {
        self.0 - rhs.0
    }
}

/// Days from the epoch for a civil date (proleptic Gregorian).
///
/// Howard Hinnant's `days_from_civil` algorithm; exact over the full i64
/// year range we use.
fn days_from_civil(y: i64, m: u8, d: u8) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m as i64) + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u8, u8) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u8) -> u8 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month validated by caller"),
    }
}

/// Parse the Metrics Builder interval grammar: an integer followed by a
/// unit — `s` (seconds), `m` (minutes), `h` (hours), `d` (days), `w`
/// (weeks) — e.g. `"5m"`, `"72h"`. Returns the length in seconds.
pub fn parse_interval(s: &str) -> Result<i64> {
    let s = s.trim();
    if s.is_empty() {
        return Err(Error::parse("empty interval"));
    }
    let unit = s.chars().last().unwrap();
    let mult = match unit {
        's' => 1,
        'm' => 60,
        'h' => 3_600,
        'd' => 86_400,
        'w' => 7 * 86_400,
        _ => return Err(Error::parse(format!("interval {s:?} must end in one of s/m/h/d/w"))),
    };
    let digits = &s[..s.len() - 1];
    let n: i64 = digits
        .parse()
        .map_err(|_| Error::parse(format!("interval {s:?} has non-numeric count")))?;
    if n <= 0 {
        return Err(Error::invalid(format!("interval {s:?} must be positive")));
    }
    n.checked_mul(mult).ok_or_else(|| Error::invalid(format!("interval {s:?} is too long")))
}

/// Format a second count using the largest exact unit (`300` → `"5m"`).
pub fn format_interval(secs: i64) -> String {
    for (div, unit) in [(7 * 86_400, 'w'), (86_400, 'd'), (3_600, 'h'), (60, 'm')] {
        if secs % div == 0 && secs / div > 0 {
            return format!("{}{}", secs / div, unit);
        }
    }
    format!("{secs}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_window() {
        // The example request in §III-D of the paper.
        let start = EpochSecs::parse_rfc3339("2020-04-20T12:00:00Z").unwrap();
        let end = EpochSecs::parse_rfc3339("2020-04-21T12:00:00Z").unwrap();
        assert_eq!(end - start, 86_400);
        assert_eq!(start.as_secs(), 1_587_384_000);
    }

    #[test]
    fn round_trips_fig4_timestamp() {
        // The first Power sample in the paper's Fig. 4.
        let t = EpochSecs(1_583_792_296);
        let s = t.to_rfc3339();
        assert_eq!(s, "2020-03-09T22:18:16Z");
        assert_eq!(EpochSecs::parse_rfc3339(&s).unwrap(), t);
    }

    #[test]
    fn epoch_zero_is_unix_epoch() {
        assert_eq!(EpochSecs(0).to_rfc3339(), "1970-01-01T00:00:00Z");
        assert_eq!(EpochSecs::parse_rfc3339("1970-01-01T00:00:00Z").unwrap(), EpochSecs(0));
    }

    #[test]
    fn handles_leap_days() {
        let t = EpochSecs::parse_rfc3339("2020-02-29T00:00:00Z").unwrap();
        assert_eq!(t.to_rfc3339(), "2020-02-29T00:00:00Z");
        assert!(EpochSecs::parse_rfc3339("2019-02-29T00:00:00Z").is_err());
        assert!(EpochSecs::parse_rfc3339("2100-02-29T00:00:00Z").is_err());
        assert!(EpochSecs::parse_rfc3339("2000-02-29T00:00:00Z").is_ok());
    }

    #[test]
    fn rejects_malformed_strings() {
        for bad in [
            "2020-04-20 12:00:00Z",
            "2020-04-20T12:00:00",
            "2020-13-01T00:00:00Z",
            "2020-00-01T00:00:00Z",
            "2020-01-32T00:00:00Z",
            "2020-01-01T24:00:00Z",
            "2020-01-01T00:60:00Z",
            "20xx-01-01T00:00:00Z",
            "",
        ] {
            assert!(EpochSecs::parse_rfc3339(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn truncate_buckets_to_interval() {
        let t = EpochSecs(1_587_384_123);
        assert_eq!(t.truncate(300).as_secs() % 300, 0);
        assert!(t.truncate(300) <= t);
        assert!(t - t.truncate(300) < 300);
        assert_eq!(EpochSecs(-1).truncate(60), EpochSecs(-60));
    }

    #[test]
    fn interval_grammar_round_trip() {
        assert_eq!(parse_interval("5m").unwrap(), 300);
        assert_eq!(parse_interval("120m").unwrap(), 7_200);
        assert_eq!(parse_interval("72h").unwrap(), 259_200);
        assert_eq!(parse_interval("1w").unwrap(), 604_800);
        assert_eq!(parse_interval("45s").unwrap(), 45);
        assert_eq!(format_interval(300), "5m");
        assert_eq!(format_interval(7_200), "2h");
        assert_eq!(format_interval(86_400), "1d");
        assert_eq!(format_interval(59), "59s");
    }

    #[test]
    fn interval_grammar_rejects_junk() {
        for bad in [
            "",
            "5",
            "m",
            "-5m",
            "0m",
            "5x",
            "fivem",
            "144115188075855873w",
            "9223372036854775807m",
        ] {
            assert!(parse_interval(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = EpochSecs(100);
        assert_eq!(a + 60, EpochSecs(160));
        assert_eq!(a - 60, EpochSecs(40));
        assert_eq!(EpochSecs(160) - a, 60);
        assert!(a < a + 1);
    }
}
