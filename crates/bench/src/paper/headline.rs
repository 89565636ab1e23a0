//! EXPERIMENTS.md's headline table, generated: each row reads its numbers
//! from a committed golden and judges them against a committed band, so
//! no number or verdict in the table is typed by hand (CI diffs the two).
//!
//! A band is the paper's value, or its range, widened by 15 % each way and
//! rounded inward to the row's printed precision. One row is an upper
//! bound instead: Table IV's conclusion (§IV-A) is that accounting takes a
//! negligible share of the link, which a smaller bandwidth keeps. Fig. 19's
//! speedup is priced at a deflate speed measured on the host, which no
//! golden holds, so its row names the command and is not judged.

use super::Out;

/// Where the committed goldens are.
const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expectations/paper");

/// How a row is measured.
enum Reading {
    /// From the golden `<name>.txt`: the values, already in the row's unit.
    Golden(&'static str, fn(&str) -> Vec<f64>),
    /// On the host, by this `paper` row: not in any golden.
    Host(&'static str),
}

/// One row of the band table.
struct Row {
    exp: &'static str,
    /// The paper section the claim comes from.
    section: &'static str,
    paper: &'static str,
    /// Lowest and highest value that matches the paper.
    band: (f64, f64),
    reading: Reading,
    decimals: usize,
    unit: &'static str,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { exp: "mean Redfish request", section: "§III-B1", paper: "4.29 s", band: (3.65, 4.93),
          reading: Reading::Golden("collect_sweep", |g| after(g, "mean request ")), decimals: 2, unit: " s" },
    Row { exp: "full 1868-URL sweep", section: "§III-B1", paper: "~55 s", band: (46.8, 63.2),
          reading: Reading::Golden("collect_sweep", |g| after(g, "makespan ")), decimals: 1, unit: " s" },
    Row { exp: "points per 60 s interval", section: "§III-C", paper: "~10 000", band: (8500.0, 11500.0),
          reading: Reading::Golden("volume", |g| after(g, "measured: ")), decimals: 0, unit: "" },
    Row { exp: "points per day", section: "§III-C", paper: "~1.4×10⁷", band: (1.19, 1.61),
          reading: Reading::Golden("volume", |g| scaled(after(g, "extrapolated: "), 1e-7)), decimals: 2, unit: "×10⁷" },
    Row { exp: "Table IV total accounting BW", section: "§IV-A", paper: "298.43 KB/s", band: (0.0, 343.19),
          reading: Reading::Golden("table4", first_cell), decimals: 2, unit: " KB/s" },
    Row { exp: "Fig. 10 best case (1 d, 2 h)", section: "§IV-B1", paper: "~50 s", band: (42.5, 57.5),
          reading: Reading::Golden("fig10", |g| cell(g, "1", 5)), decimals: 2, unit: " s" },
    Row { exp: "Fig. 10 worst case (7 d, 5 m)", section: "§IV-B1", paper: "~260 s", band: (221.0, 299.0),
          reading: Reading::Golden("fig10", |g| cell(g, "7", 1)), decimals: 2, unit: " s" },
    Row { exp: "Fig. 12 HDD→SSD speedup", section: "§IV-B1", paper: "1.5–2.1×", band: (1.28, 2.41),
          reading: Reading::Golden("fig12", |g| column(g, 3)), decimals: 2, unit: "×" },
    Row { exp: "Fig. 13 optimized/previous volume", section: "§IV-B2", paper: "28.02 %", band: (23.82, 32.22),
          reading: Reading::Golden("fig13", |g| [after(g, "wire "), after(g, "at rest ")].concat()), decimals: 2, unit: " %" },
    Row { exp: "Fig. 14 schema speedup (SSD)", section: "§IV-B2", paper: "1.6–1.76×", band: (1.36, 2.02),
          reading: Reading::Golden("fig14", |g| column(g, 3)), decimals: 2, unit: "×" },
    Row { exp: "Fig. 15 concurrent speedup", section: "§IV-B3", paper: "5.5–6.5×", band: (4.68, 7.47),
          reading: Reading::Golden("fig15", |g| column(g, 3)), decimals: 2, unit: "×" },
    Row { exp: "Fig. 16 overall speedup", section: "§IV-B", paper: "17–25×", band: (14.5, 28.7),
          reading: Reading::Golden("fig16", |g| column(g, 5)), decimals: 1, unit: "×" },
    Row { exp: "Fig. 16 final config @ 6 h", section: "§IV-B", paper: "3.78 s", band: (3.22, 4.34),
          reading: Reading::Golden("fig16", |g| cell(g, "6", 4)), decimals: 2, unit: " s" },
    Row { exp: "Fig. 16 final config @ 72 h", section: "§IV-B", paper: "12.9 s", band: (10.97, 14.83),
          reading: Reading::Golden("fig16", |g| cell(g, "72", 4)), decimals: 2, unit: " s" },
    Row { exp: "Fig. 17 transmission / query time @ 7 d", section: "§IV-B4", paper: "up to 1.65×", band: (1.41, 1.89),
          reading: Reading::Golden("fig17", |g| vec![cell(g, "168", 3)[0] / cell(g, "168", 1)[0]]), decimals: 2, unit: "×" },
    Row { exp: "Fig. 18 compressed/raw volume", section: "§IV-B4", paper: "≈5 %", band: (4.3, 5.7),
          reading: Reading::Golden("fig18", |g| column(g, 5)), decimals: 1, unit: " %" },
    Row { exp: "Fig. 19 compression speedup", section: "§IV-B4", paper: "≈2×", band: (1.7, 2.3),
          reading: Reading::Host("fig19"), decimals: 2, unit: "×" },
];

/// The number that follows each `marker` in `golden`.
fn after(golden: &str, marker: &str) -> Vec<f64> {
    golden
        .split(marker)
        .skip(1)
        .filter_map(|rest| number(rest.split_whitespace().next()?))
        .collect()
}

/// The first cell of the first row under a Markdown table's rule.
fn first_cell(golden: &str) -> Vec<f64> {
    let row = golden.lines().skip_while(|line| !line.starts_with("|---")).nth(1);
    row.and_then(|row| after(row, "|").into_iter().next()).into_iter().collect()
}

/// Column `at` (whitespace-separated, from 0) of every table row: a line
/// whose first field is a whole number (days or hours).
fn column(golden: &str, at: usize) -> Vec<f64> {
    let rows = golden.lines().map(|line| line.split_whitespace().collect::<Vec<_>>());
    rows.filter(|fields| fields.first().is_some_and(|key| key.parse::<u32>().is_ok()))
        .filter_map(|fields| number(fields.get(at)?))
        .collect()
}

/// Column `at` of the table row keyed `key`.
fn cell(golden: &str, key: &str, at: usize) -> Vec<f64> {
    let row = golden
        .lines()
        .map(str::split_whitespace)
        .find_map(|mut fields| (fields.next() == Some(key)).then(|| fields.nth(at - 1)).flatten());
    row.and_then(number).into_iter().collect()
}

/// A golden's number, without a unit glued to it (`3.58x`, `11.3%`, `21.13%,`).
fn number(token: &str) -> Option<f64> {
    token.trim_end_matches([',', '%', 'x']).parse().ok()
}

fn scaled(values: Vec<f64>, by: f64) -> Vec<f64> {
    values.into_iter().map(|v| v * by).collect()
}

/// `lo–hi` at `decimals`, or one number when they print the same.
fn span(lo: f64, hi: f64, decimals: usize) -> String {
    let (lo, hi) = (format!("{lo:.decimals$}"), format!("{hi:.decimals$}"));
    if lo == hi {
        lo
    } else {
        format!("{lo}–{hi}")
    }
}

/// The verdict on `values` against `band`.
fn verdict(values: &[f64], (lo, hi): (f64, f64)) -> &'static str {
    let above = values.iter().filter(|&&v| v > hi).count();
    let below = values.iter().filter(|&&v| v < lo).count();
    match (above, below) {
        (0, 0) => "✅ in band",
        (a, 0) if a == values.len() => "⚠ above band",
        (0, b) if b == values.len() => "⚠ below band",
        _ => "⚠ partly outside band",
    }
}

/// `paper headline`: the table, one row a claim, from the goldens as they
/// are on disk (so a `paper all --write` that rewrote them is read back).
pub fn headline(_: &super::Fixtures, out: &mut Out) {
    say!(out, "| Exp. | Paper | Band | This repo | Read from | Verdict |");
    say!(out, "|---|---|---|---|---|---|");
    for row in ROWS {
        let Row { exp, section, paper, band: (lo, hi), decimals: d, unit, .. } = *row;
        let band = if lo == 0.0 { format!("≤ {hi:.d$}{unit}") } else { span(lo, hi, d) + unit };
        let (measured, source, verdict) = match row.reading {
            Reading::Golden(name, read) => {
                let path = format!("{GOLDENS}/{name}.txt");
                let golden =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
                let values = read(&golden);
                assert!(!values.is_empty(), "{exp}: no value read from {name}.txt");
                let (min, max) =
                    values.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
                (span(min, max, d) + unit, format!("`{name}.txt`"), verdict(&values, row.band))
            }
            Reading::Host(name) => (
                "measured on the host".into(),
                format!("`paper {name}`"),
                "— not judged: no golden holds it",
            ),
        };
        say!(out, "| {section} {exp} | {paper} | {band} | {measured} | {source} | {verdict} |");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_take_the_numbers_a_golden_prints() {
        let fig12 =
            "  days    HDD (s)    SSD (s)   speedup\n     1      95.52      64.44     1.48x\n\
                     \n     7     294.10      82.24     3.58x\n\npaper: 1.5x–2.1x\n";
        assert_eq!(column(fig12, 3), [1.48, 3.58]);
        assert_eq!(cell(fig12, "7", 1), [294.10]);
        assert_eq!(after("wire 21.13%, at rest 16.68%,", "at rest "), [16.68]);
        assert_eq!(verdict(&[1.48, 3.58], (1.28, 2.41)), "⚠ partly outside band");
        assert_eq!(verdict(&[3.72], (3.22, 4.34)), "✅ in band");
        assert_eq!(verdict(&[8.09], (10.97, 14.83)), "⚠ below band");
        assert_eq!(span(4.21, 4.25, 2), "4.21–4.25");
        assert_eq!(span(8995.0, 8995.0, 0), "8995");
    }
}
