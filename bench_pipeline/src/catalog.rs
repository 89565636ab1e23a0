//! The dashboard panel catalog and popularity skew.
//!
//! A copy of the mix `monster_bench::storm` established (12 sliding
//! windows plus 4 closed historical ones, squared-hash popularity), kept
//! here so that an edit to that module cannot change this benchmark's
//! inputs.

use crate::rng::Rng;
use monster_builder::BuilderRequest;
use monster_tsdb::Aggregation;
use monster_util::EpochSecs;

/// One dashboard panel. Sliding panels end where the caller says (the
/// current tick, or a per-request point in history); fixed panels are
/// closed windows at a set offset into the loaded history, whose URL never
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panel {
    pub window_secs: i64,
    pub interval: &'static str,
    pub aggregation: &'static str,
    /// `Some(offset)`: the window ends `offset` seconds after history
    /// starts, whatever `end` the caller passes.
    pub fixed_end: Option<i64>,
}

/// The 12 sliding panels: window 5/15/30 min × interval 1m/5m × max/mean.
pub fn sliding() -> Vec<Panel> {
    let mut panels = Vec::new();
    for window_secs in [300, 900, 1800] {
        for interval in ["1m", "5m"] {
            for aggregation in ["max", "mean"] {
                panels.push(Panel { window_secs, interval, aggregation, fixed_end: None });
            }
        }
    }
    panels
}

/// History the fixed panels need behind them (the last one ends here).
pub const FIXED_HISTORY_SECS: i64 = 10_800;

/// The 16-panel storm catalog: the sliding panels plus 4 closed windows.
pub fn storm() -> Vec<Panel> {
    let fixed = |window_secs, interval, aggregation, end| Panel {
        window_secs,
        interval,
        aggregation,
        fixed_end: Some(end),
    };
    let mut panels = sliding();
    panels.push(fixed(1800, "5m", "max", 1800));
    panels.push(fixed(1800, "1m", "mean", 3600));
    panels.push(fixed(900, "5m", "max", 7200));
    panels.push(fixed(1800, "5m", "mean", FIXED_HISTORY_SECS));
    panels
}

/// One request a client sends: a panel, where its window ends, and
/// whether the reply is to be compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ask {
    pub panel: Panel,
    pub end: EpochSecs,
    pub compress: bool,
}

impl Ask {
    /// `end` is ignored by fixed panels, which end at `history_start` plus
    /// their own offset.
    pub fn new(panel: Panel, history_start: EpochSecs, end: EpochSecs, compress: bool) -> Ask {
        let end = panel.fixed_end.map_or(end, |offset| history_start + offset);
        Ask { panel, end, compress }
    }

    pub fn url(&self) -> String {
        format!(
            "/v1/metrics?start={}&end={}&interval={}&aggregation={}{}",
            (self.end - self.panel.window_secs).to_rfc3339(),
            self.end.to_rfc3339(),
            self.panel.interval,
            self.panel.aggregation,
            if self.compress { "&compress=true" } else { "" }
        )
    }

    /// The same request as the library API takes it.
    pub fn request(&self) -> BuilderRequest {
        let agg =
            if self.panel.aggregation == "max" { Aggregation::Max } else { Aggregation::Mean };
        let interval = if self.panel.interval == "1m" { 60 } else { 300 };
        let req = BuilderRequest::new(self.end - self.panel.window_secs, self.end, interval, agg)
            .expect("catalog windows are non-empty");
        if self.compress {
            req.compressed()
        } else {
            req
        }
    }
}

/// Index into `n` choices with the storm's popularity skew: squaring a
/// uniform draw sends most picks to the low indices and keeps the tail
/// warm.
pub fn popular(rng: &mut Rng, n: usize) -> usize {
    let unit = rng.unit();
    ((unit * unit * n as f64) as usize).min(n - 1)
}

/// `count` (panel, compress) pairs in which every second request is
/// compressed and, within each run of `2 × panels.len()`, every panel
/// appears once plain and once compressed, in seeded order. The mix of a
/// run is therefore the same for every seed; only the order differs.
pub fn balanced(rng: &mut Rng, panels: &[Panel], count: usize) -> Vec<(Panel, bool)> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut plain = panels.to_vec();
        let mut packed = panels.to_vec();
        rng.shuffle(&mut plain);
        rng.shuffle(&mut packed);
        for (p, c) in plain.into_iter().zip(packed) {
            out.push((p, false));
            out.push((c, true));
        }
    }
    out.truncate(count);
    out
}

/// The 56 requests of one `mixed467` tick, in seeded order: six sliding
/// panels ending at `now`, each asked eight times (one miss, seven hits),
/// and the four closed windows plain and compressed (hits once primed).
/// Odd and even ticks take alternate sliding panels, and compression
/// alternates with them, so two ticks cover all twelve and every tick has
/// the same share of misses: one request in nine, which puts the median
/// among the hits and the 95th percentile in the middle of the misses. A
/// popularity draw of this size would not: at 40 draws a tick the miss
/// share wanders either side of a half with the seed, and the median flips
/// between a hit and a miss.
pub fn tick_mix(rng: &mut Rng, tick: usize, history_start: EpochSecs, now: EpochSecs) -> Vec<Ask> {
    let mut asks = Vec::with_capacity(56);
    for (i, panel) in sliding().into_iter().enumerate().filter(|(i, _)| i % 2 == tick % 2) {
        let compress = (i / 2 + tick / 2) % 2 == 1;
        asks.extend([Ask::new(panel, history_start, now, compress); 8]);
    }
    for panel in storm().into_iter().filter(|p| p.fixed_end.is_some()) {
        asks.extend([false, true].map(|c| Ask::new(panel, history_start, now, c)));
    }
    rng.shuffle(&mut asks);
    asks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_mix_has_a_fixed_share_of_new_urls() {
        let t0 = EpochSecs::parse_rfc3339("2020-04-20T00:00:00Z").unwrap();
        let mut all = std::collections::BTreeSet::new();
        for tick in 0..4 {
            let asks = tick_mix(&mut Rng::new(3, "tick"), tick, t0, t0 + 20_000);
            assert_eq!(asks.len(), 56);
            let urls: std::collections::BTreeSet<String> = asks.iter().map(Ask::url).collect();
            assert_eq!(urls.len(), 6 + 8);
            assert_eq!(
                asks.iter().filter(|a| a.compress && a.panel.fixed_end.is_none()).count(),
                24
            );
            all.extend(urls);
        }
        // Four ticks at one `now`: every sliding panel plain and compressed.
        assert_eq!(all.len(), 24 + 8);
    }

    #[test]
    fn catalog_has_the_storm_shape() {
        assert_eq!(sliding().len(), 12);
        let storm = storm();
        assert_eq!(storm.len(), 16);
        assert_eq!(storm.iter().filter(|p| p.fixed_end.is_some()).count(), 4);
        assert!(storm.iter().filter_map(|p| p.fixed_end).all(|e| e <= FIXED_HISTORY_SECS));
    }

    #[test]
    fn urls_parse_back_to_the_same_request() {
        let t0 = EpochSecs::parse_rfc3339("2020-04-20T00:00:00Z").unwrap();
        for (i, &panel) in storm().iter().enumerate() {
            let ask = Ask::new(panel, t0, t0 + 20_000 + i as i64, i % 2 == 1);
            let http = monster_http::Request::get(&ask.url());
            let start = EpochSecs::parse_rfc3339(http.query_param("start").unwrap()).unwrap();
            let end = EpochSecs::parse_rfc3339(http.query_param("end").unwrap()).unwrap();
            let req = ask.request();
            assert_eq!((start, end), (req.start, req.end));
            assert_eq!(http.query_param("compress") == Some("true"), req.compress);
            if let Some(offset) = panel.fixed_end {
                assert_eq!(end, t0 + offset);
            }
        }
    }

    #[test]
    fn popularity_is_skewed_to_low_indices() {
        let mut rng = Rng::new(7, "skew");
        let low = (0..10_000).filter(|_| popular(&mut rng, 16) < 8).count();
        assert!(low > 6_000, "skew collapsed: {low}/10000 in the lower half");
    }

    #[test]
    fn balanced_mix_is_seed_independent_and_alternates_compression() {
        let panels = sliding();
        let seq = |seed| balanced(&mut Rng::new(seed, "mix"), &panels, 48);
        let (a, b) = (seq(1), seq(2));
        assert_ne!(a, b, "order must depend on the seed");
        assert_eq!(a, seq(1));
        for s in [&a, &b] {
            assert!(s.iter().enumerate().all(|(i, (_, c))| *c == (i % 2 == 1)));
            for p in &panels {
                assert_eq!(s.iter().filter(|(q, c)| q == p && *c).count(), 2);
                assert_eq!(s.iter().filter(|(q, c)| q == p && !*c).count(), 2);
            }
        }
    }
}
