//! `--compare <a.jsonl> <b.jsonl>`: apply each end-to-end metric's bound
//! from `BENCHMARK.json` to two sets of runs (files written by `--out`,
//! one run a line).

use monster_json::Value;
use monster_util::stats::percentile;
use std::collections::BTreeMap;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds(manifest: &Value) -> Vec<Bound> {
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| Bound {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") != "higher",
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// workload → metric → values, from the untraced runs of one set.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_runs(jsonl: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in jsonl.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = monster_json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if run.get("trace").and_then(Value::as_i64) == Some(1) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics.iter() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.to_string()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Distance between the first and third quartile as a share of the
/// median, the quartiles being those of Python's
/// `statistics.quantiles(values, n=4)`; with fewer than two values, 0.
pub fn spread(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.total_cmp(b));
    let m = data.len();
    if m < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / percentile(&data, 0.5)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// A side's own runs spread wider than the bound: the metric cannot
    /// tell a change of that size from noise.
    Unresolved,
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// `(b − a) ÷ a`, signed so that positive is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (percentile(a, 0.5), percentile(b, 0.5));
    let (spread_a, spread_b) = (spread(a), spread(b));
    let change = (median_b - median_a) / median_a;
    let worse_by = if bound.lower_is_better { change } else { -change };
    let verdict = if spread_a > bound.bound || spread_b > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else if worse_by < -bound.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    Row { median_a, median_b, spread_a, spread_b, worse_by, verdict }
}

/// Print one row per workload × metric; `false` when any row is not `ok`.
pub fn compare(bounds: &[Bound], a: &RunSet, b: &RunSet) -> bool {
    let mut all_ok = true;
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b worse", "iqr a", "iqr b", "bound"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:<18} only in the first set");
            all_ok = false;
            continue;
        };
        for bound in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                println!("{workload:<18} {:<14} missing from a set", bound.name);
                all_ok = false;
                continue;
            };
            let row = judge(bound, va, vb);
            all_ok &= row.verdict == Verdict::Ok;
            println!(
                "{workload:<18} {:<14} {:>12.4} {:>12.4} {:>+8.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {} (n={}/{}, {} is better, % of median a / own median, {})",
                bound.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                bound.bound * 100.0,
                format!("{:?}", row.verdict).to_lowercase(),
                va.len(),
                vb.len(),
                if bound.lower_is_better { "lower" } else { "higher" },
                bound.unit,
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "op_ms_p50".into(), unit: "ms".into(), lower_is_better: true, bound }
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((spread(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(judge(&lower(0.10), &base, &scaled(1.05)).verdict, Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &base, &scaled(1.20)).verdict, Verdict::Regressed);
        assert_eq!(judge(&lower(0.10), &base, &scaled(0.80)).verdict, Verdict::Improved);
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&lower(0.10), &base, &noisy).verdict, Verdict::Unresolved);
        // Direction: more is better for a throughput.
        let higher = Bound { lower_is_better: false, ..lower(0.10) };
        assert_eq!(judge(&higher, &base, &scaled(1.20)).verdict, Verdict::Improved);
        assert_eq!(judge(&higher, &base, &scaled(0.80)).verdict, Verdict::Regressed);
        let row = judge(&higher, &base, &scaled(0.80));
        assert!((row.worse_by - 0.20).abs() < 1e-9);
    }

    #[test]
    fn runs_group_by_workload_and_skip_traced_lines() {
        let text = r#"
{"workload":"dash_cold","trace":0,"metrics":{"op_ms_p50":{"value":210.5,"unit":"ms"}}}
{"workload":"dash_cold","trace":0,"metrics":{"op_ms_p50":{"value":212.0,"unit":"ms"}}}
{"workload":"dash_cold","trace":1,"metrics":{"tsdb.query_ms":{"value":90.0,"unit":"ms"}}}
{"workload":"collect467","trace":0,"metrics":{"op_ms_p50":{"value":110.0,"unit":"ms"}}}
"#;
        let set = parse_runs(text).unwrap();
        assert_eq!(set["dash_cold"]["op_ms_p50"], vec![210.5, 212.0]);
        assert_eq!(set["collect467"]["op_ms_p50"], vec![110.0]);
        assert!(!set["dash_cold"].contains_key("tsdb.query_ms"));
        assert!(parse_runs("{not json").is_err());
    }
}
