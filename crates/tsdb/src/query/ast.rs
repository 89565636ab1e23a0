//! Query AST: the `SELECT agg(field) FROM m WHERE ... GROUP BY time(...)`
//! subset of InfluxQL that Metrics Builder generates (§III-D).

use monster_util::{EpochSecs, Error, Result};

/// Supported aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Window maximum — the paper's example downsampling function.
    Max,
    /// Window minimum.
    Min,
    /// Window arithmetic mean.
    Mean,
    /// Window sum.
    Sum,
    /// Window count.
    Count,
    /// Earliest value in the window.
    First,
    /// Latest value in the window.
    Last,
}

impl Aggregation {
    /// Parse a function name (case-insensitive).
    pub fn parse(s: &str) -> Option<Aggregation> {
        match s.to_ascii_lowercase().as_str() {
            "max" => Some(Aggregation::Max),
            "min" => Some(Aggregation::Min),
            "mean" => Some(Aggregation::Mean),
            "sum" => Some(Aggregation::Sum),
            "count" => Some(Aggregation::Count),
            "first" => Some(Aggregation::First),
            "last" => Some(Aggregation::Last),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregation::Max => "max",
            Aggregation::Min => "min",
            Aggregation::Mean => "mean",
            Aggregation::Sum => "sum",
            Aggregation::Count => "count",
            Aggregation::First => "first",
            Aggregation::Last => "last",
        }
    }
}

/// How empty `GROUP BY time` windows are reported (InfluxQL's `fill()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fill {
    /// Omit empty windows (InfluxDB's default, `fill(none)`).
    #[default]
    None,
    /// Report empty windows as 0.
    Zero,
    /// Carry the previous window's value forward (`fill(previous)`);
    /// windows before the first value are omitted.
    Previous,
    /// Linearly interpolate between surrounding windows
    /// (`fill(linear)`); leading/trailing gaps are omitted.
    Linear,
}

impl Fill {
    /// Parse the `fill(...)` argument.
    pub fn parse(s: &str) -> Option<Fill> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(Fill::None),
            "0" | "zero" => Some(Fill::Zero),
            "previous" => Some(Fill::Previous),
            "linear" => Some(Fill::Linear),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Fill::None => "none",
            Fill::Zero => "0",
            Fill::Previous => "previous",
            Fill::Linear => "linear",
        }
    }
}

/// The most windows a filled query's range may hold. `fill()` answers
/// every window of the range in every selected series, whatever the data
/// holds, so the range alone sets the answer's size: 100 000 windows is a
/// day of one-second windows or over two months of one-minute ones, and a
/// larger range could ask for billions.
const MAX_FILLED_WINDOWS: u64 = 100_000;

/// A single query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Aggregation; `None` selects raw points.
    pub agg: Option<Aggregation>,
    /// The field to read.
    pub field: String,
    /// Source measurement.
    pub measurement: String,
    /// Tag equality predicates (AND semantics).
    pub predicates: Vec<(String, String)>,
    /// Range start (inclusive).
    pub start: EpochSecs,
    /// Range end (exclusive).
    pub end: EpochSecs,
    /// `GROUP BY time(interval)` in seconds; `None` aggregates the whole
    /// range into one value (or returns raw points when `agg` is `None`).
    pub group_by: Option<i64>,
    /// Empty-window policy for `GROUP BY time` results.
    pub fill: Fill,
    /// Cap on points returned per series (`LIMIT n`); `None` = unlimited.
    pub limit: Option<usize>,
}

impl Query {
    /// Start building a query over `measurement.field` in `[start, end)`.
    pub fn select(
        measurement: impl Into<String>,
        field: impl Into<String>,
        start: EpochSecs,
        end: EpochSecs,
    ) -> Self {
        Query {
            agg: None,
            field: field.into(),
            measurement: measurement.into(),
            predicates: Vec::new(),
            start,
            end,
            group_by: None,
            fill: Fill::None,
            limit: None,
        }
    }

    /// Apply an aggregation function.
    pub fn aggregate(mut self, agg: Aggregation) -> Self {
        self.agg = Some(agg);
        self
    }

    /// Add a tag equality predicate.
    pub fn where_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.predicates.push((key.into(), value.into()));
        self
    }

    /// Group into fixed windows of `secs` seconds.
    pub fn group_by_time(mut self, secs: i64) -> Self {
        self.group_by = Some(secs);
        self
    }

    /// Set the empty-window policy.
    pub fn fill(mut self, fill: Fill) -> Self {
        self.fill = fill;
        self
    }

    /// Cap points per series.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Validate invariants the executor relies on.
    pub fn validate(&self) -> Result<()> {
        if self.end <= self.start {
            return Err(Error::invalid("query range is empty"));
        }
        if let Some(g) = self.group_by {
            if g <= 0 {
                return Err(Error::invalid("GROUP BY interval must be positive"));
            }
            if self.agg.is_none() {
                return Err(Error::invalid("GROUP BY time requires an aggregation"));
            }
            // The first window starts at or before the range: it must be
            // representable, and then every later one is.
            let first = self.start.as_secs().div_euclid(g);
            if first.checked_mul(g).is_none() {
                return Err(Error::invalid("GROUP BY window starts before the earliest time"));
            }
            let last = (self.end.as_secs() - 1).div_euclid(g);
            if self.fill != Fill::None && last.abs_diff(first) >= MAX_FILLED_WINDOWS {
                return Err(Error::invalid(format!(
                    "fill() over more than {MAX_FILLED_WINDOWS} windows"
                )));
            }
        }
        if self.measurement.is_empty() || self.field.is_empty() {
            return Err(Error::invalid("measurement and field are required"));
        }
        if self.fill != Fill::None && self.group_by.is_none() {
            return Err(Error::invalid("fill() requires GROUP BY time"));
        }
        if self.limit == Some(0) {
            return Err(Error::invalid("LIMIT must be positive"));
        }
        Ok(())
    }

    /// Render back to InfluxQL text (the strings Metrics Builder logs).
    pub fn to_influxql(&self) -> String {
        let mut s = String::from("SELECT ");
        match self.agg {
            Some(a) => s.push_str(&format!("{}({})", a.name(), self.field)),
            None => s.push_str(&self.field),
        }
        s.push_str(&format!(" FROM {}", self.measurement));
        s.push_str(" WHERE ");
        for (k, v) in &self.predicates {
            s.push_str(&format!("{k}='{v}' AND "));
        }
        s.push_str(&format!(
            "time >= '{}' AND time < '{}'",
            self.start.to_rfc3339(),
            self.end.to_rfc3339()
        ));
        if let Some(g) = self.group_by {
            s.push_str(&format!(" GROUP BY time({})", monster_util::time::format_interval(g)));
            if self.fill != Fill::None {
                s.push_str(&format!(" fill({})", self.fill.name()));
            }
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> (EpochSecs, EpochSecs) {
        (
            EpochSecs::parse_rfc3339("2020-04-20T12:00:00Z").unwrap(),
            EpochSecs::parse_rfc3339("2020-04-21T12:00:00Z").unwrap(),
        )
    }

    #[test]
    fn builder_produces_paper_example() {
        // The exact query string from §III-D of the paper.
        let (start, end) = window();
        let q = Query::select("Power", "Reading", start, end)
            .aggregate(Aggregation::Max)
            .where_tag("NodeId", "10.101.1.1")
            .where_tag("Label", "NodePower")
            .group_by_time(300);
        assert_eq!(
            q.to_influxql(),
            "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
             Label='NodePower' AND time >= '2020-04-20T12:00:00Z' AND \
             time < '2020-04-21T12:00:00Z' GROUP BY time(5m)"
        );
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_queries() {
        let (start, end) = window();
        assert!(Query::select("m", "f", end, start).validate().is_err());
        assert!(Query::select("m", "f", start, start).validate().is_err());
        assert!(Query::select("", "f", start, end).validate().is_err());
        assert!(Query::select("m", "", start, end).validate().is_err());
        // GROUP BY without aggregation.
        let q = Query::select("m", "f", start, end).group_by_time(60);
        assert!(q.validate().is_err());
        // Non-positive interval.
        let q = Query::select("m", "f", start, end).aggregate(Aggregation::Mean).group_by_time(0);
        assert!(q.validate().is_err());
    }

    #[test]
    fn aggregation_names_round_trip() {
        for a in [
            Aggregation::Max,
            Aggregation::Min,
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::First,
            Aggregation::Last,
        ] {
            assert_eq!(Aggregation::parse(a.name()), Some(a));
            assert_eq!(Aggregation::parse(&a.name().to_uppercase()), Some(a));
        }
        assert_eq!(Aggregation::parse("median"), None);
    }
}
