//! Parser for the InfluxQL subset.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT proj FROM ident WHERE conds
//!            (GROUP BY TIME '(' interval ')' (FILL '(' arg ')')?)?
//!            (LIMIT n)?
//! proj    := ident | ident '(' ident ')'
//! conds   := cond (AND cond)*
//! cond    := ident '=' string            -- tag predicate
//!          | TIME ('>=' | '>') string    -- range start
//!          | TIME ('<' | '<=') string    -- range end
//! ```
//!
//! Time literals are RFC 3339 strings or bare epoch-second integers.

use super::ast::{Aggregation, Fill, Query};
use monster_util::{time::parse_interval, EpochSecs, Error, Result};

/// Parse one query string.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    Parser { tokens, pos: 0 }.query()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(i64),
    LParen,
    RParen,
    Comma,
    Op(String), // = >= > < <=
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                i += 1;
                let start = i;
                while i < chars.len() && chars[i] != quote {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(Error::parse("unterminated string literal"));
                }
                out.push(Tok::Str(chars[start..i].iter().collect()));
                i += 1;
            }
            '=' => {
                out.push(Tok::Op("=".into()));
                i += 1;
            }
            '>' | '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Op(format!("{c}=")));
                    i += 2;
                } else {
                    out.push(Tok::Op(c.to_string()));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                // "5m" (an interval) lexes as one identifier, not Num+Ident.
                if i < chars.len() && (chars[i].is_ascii_alphabetic() || chars[i] == '_') {
                    while i < chars.len()
                        && (chars[i].is_ascii_alphanumeric() || matches!(chars[i], '_' | '.' | '-'))
                    {
                        i += 1;
                    }
                    out.push(Tok::Ident(chars[start..i].iter().collect()));
                } else {
                    let text: String = chars[start..i].iter().collect();
                    out.push(Tok::Num(
                        text.parse().map_err(|_| Error::parse(format!("bad number {text:?}")))?,
                    ));
                }
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || matches!(chars[i], '_' | '.' | '-'))
                {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            c => return Err(Error::parse(format!("unexpected character {c:?}"))),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::parse("unexpected end of query"))?;
        self.pos += 1;
        Ok(t)
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(Error::parse(format!("expected identifier, got {t:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        let got = self.ident()?;
        if got.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(Error::parse(format!("expected {kw}, got {got:?}")))
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.keyword("SELECT")?;
        let first = self.ident()?;
        let (agg, field) = if self.peek() == Some(&Tok::LParen) {
            self.next()?;
            let field = self.ident()?;
            match self.next()? {
                Tok::RParen => {}
                t => return Err(Error::parse(format!("expected ')', got {t:?}"))),
            }
            let agg = Aggregation::parse(&first)
                .ok_or_else(|| Error::parse(format!("unknown aggregation {first:?}")))?;
            (Some(agg), field)
        } else {
            (None, first)
        };
        self.keyword("FROM")?;
        let measurement = self.ident()?;
        self.keyword("WHERE")?;

        let mut predicates = Vec::new();
        let mut start: Option<EpochSecs> = None;
        let mut end: Option<EpochSecs> = None;
        loop {
            let name = self.ident()?;
            if name.eq_ignore_ascii_case("time") {
                let op = match self.next()? {
                    Tok::Op(op) => op,
                    t => return Err(Error::parse(format!("expected comparison, got {t:?}"))),
                };
                let at = self.time_literal()?;
                // `> t` and `<= t` bound the range at the second after `t`.
                let after = || match at.as_secs().checked_add(1) {
                    Some(t) => Ok(EpochSecs::new(t)),
                    None => Err(Error::invalid(format!("no second follows time {}", at.as_secs()))),
                };
                match op.as_str() {
                    ">=" => start = Some(at),
                    ">" => start = Some(after()?),
                    "<" => end = Some(at),
                    "<=" => end = Some(after()?),
                    other => return Err(Error::parse(format!("bad time comparison {other:?}"))),
                }
            } else {
                match self.next()? {
                    Tok::Op(op) if op == "=" => {}
                    t => return Err(Error::parse(format!("expected '=', got {t:?}"))),
                }
                let value = match self.next()? {
                    Tok::Str(s) => s,
                    Tok::Ident(s) => s,
                    Tok::Num(n) => n.to_string(),
                    t => return Err(Error::parse(format!("expected tag value, got {t:?}"))),
                };
                predicates.push((name, value));
            }
            match self.peek() {
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("and") => {
                    self.pos += 1;
                }
                _ => break,
            }
        }

        let mut group_by = None;
        let mut fill = Fill::None;
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case("group") {
                self.pos += 1;
                self.keyword("BY")?;
                self.keyword("TIME")?;
                match self.next()? {
                    Tok::LParen => {}
                    t => return Err(Error::parse(format!("expected '(', got {t:?}"))),
                }
                let iv = self.ident()?;
                group_by = Some(parse_interval(&iv)?);
                match self.next()? {
                    Tok::RParen => {}
                    t => return Err(Error::parse(format!("expected ')', got {t:?}"))),
                }
                // Optional fill(...).
                if let Some(Tok::Ident(s)) = self.peek() {
                    if s.eq_ignore_ascii_case("fill") {
                        self.pos += 1;
                        match self.next()? {
                            Tok::LParen => {}
                            t => return Err(Error::parse(format!("expected '(', got {t:?}"))),
                        }
                        let arg = match self.next()? {
                            Tok::Ident(s) => s,
                            Tok::Num(n) => n.to_string(),
                            t => return Err(Error::parse(format!("bad fill argument {t:?}"))),
                        };
                        fill = Fill::parse(&arg)
                            .ok_or_else(|| Error::parse(format!("unknown fill {arg:?}")))?;
                        match self.next()? {
                            Tok::RParen => {}
                            t => return Err(Error::parse(format!("expected ')', got {t:?}"))),
                        }
                    }
                }
            }
        }
        let mut limit = None;
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case("limit") {
                self.pos += 1;
                match self.next()? {
                    Tok::Num(n) if n > 0 => limit = Some(n as usize),
                    t => return Err(Error::parse(format!("bad LIMIT argument {t:?}"))),
                }
            }
        }
        if self.pos != self.tokens.len() {
            return Err(Error::parse("trailing tokens in query"));
        }

        let start = start.ok_or_else(|| Error::parse("query missing time >= bound"))?;
        let end = end.ok_or_else(|| Error::parse("query missing time < bound"))?;
        let q = Query { agg, field, measurement, predicates, start, end, group_by, fill, limit };
        q.validate()?;
        Ok(q)
    }

    fn time_literal(&mut self) -> Result<EpochSecs> {
        match self.next()? {
            Tok::Str(s) => EpochSecs::parse_rfc3339(&s),
            Tok::Num(n) => Ok(EpochSecs::new(n)),
            t => Err(Error::parse(format!("expected time literal, got {t:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let q = parse_query(
            "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
             Label='NodePower' AND time >='2020-04-20T12:00:00Z' AND \
             time < '2020-04-21T12:00:00Z' GROUP BY(5m)",
        );
        // The paper's string writes "GROUP BY(5m)"; we accept the standard
        // "GROUP BY time(5m)" — the paper form is shorthand. Verify the
        // standard form parses:
        assert!(q.is_err());
        let q = parse_query(
            "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
             Label='NodePower' AND time >= '2020-04-20T12:00:00Z' AND \
             time < '2020-04-21T12:00:00Z' GROUP BY time(5m)",
        )
        .unwrap();
        assert_eq!(q.agg, Some(Aggregation::Max));
        assert_eq!(q.field, "Reading");
        assert_eq!(q.measurement, "Power");
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.group_by, Some(300));
        assert_eq!(q.end - q.start, 86_400);
    }

    #[test]
    fn round_trips_through_to_influxql() {
        let text = "SELECT mean(UsedMem) FROM UGE WHERE NodeId='10.101.2.3' AND \
                    time >= '2020-04-20T12:00:00Z' AND time < '2020-04-20T18:00:00Z' \
                    GROUP BY time(10m)";
        let q = parse_query(text).unwrap();
        let q2 = parse_query(&q.to_influxql()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn raw_select_without_aggregation() {
        let q = parse_query(
            "SELECT JobList FROM NodeJobs WHERE NodeId='10.101.1.1' AND \
             time >= 0 AND time < 86400",
        )
        .unwrap();
        assert_eq!(q.agg, None);
        assert_eq!(q.field, "JobList");
        assert_eq!(q.start, EpochSecs::new(0));
        assert_eq!(q.end, EpochSecs::new(86_400));
    }

    #[test]
    fn epoch_literals_and_exclusive_bounds() {
        let q = parse_query("SELECT count(v) FROM m WHERE time > 99 AND time <= 200").unwrap();
        assert_eq!(q.start, EpochSecs::new(100));
        assert_eq!(q.end, EpochSecs::new(201));
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query(
            "select MAX(Reading) from Power where time >= 0 and time < 10 group by time(5s)",
        )
        .unwrap();
        assert_eq!(q.agg, Some(Aggregation::Max));
        assert_eq!(q.group_by, Some(5));
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "SELECT FROM Power WHERE time >= 0 AND time < 10",
            "SELECT max(Reading FROM Power WHERE time >= 0 AND time < 10",
            "SELECT median(x) FROM m WHERE time >= 0 AND time < 10",
            "SELECT v FROM m",                                         // no WHERE
            "SELECT v FROM m WHERE time >= 0",                         // no end
            "SELECT v FROM m WHERE time < 10",                         // no start
            "SELECT v FROM m WHERE time >= 10 AND time < 5",           // empty range
            "SELECT v FROM m WHERE time >= 0 AND time < 10 junk",      // trailing
            "SELECT v FROM m WHERE tag='x' OR time >= 0 AND time < 5", // OR unsupported
            "SELECT v FROM m WHERE time = 5 AND time < 10",            // bad time op
            "SELECT v FROM m WHERE time >= 'not-a-date' AND time < 10",
            "SELECT v FROM m WHERE time >= 0 AND time < 10 GROUP BY time(0m)",
            // No second follows i64::MAX: neither bound may wrap to i64::MIN.
            "SELECT Reading FROM Power WHERE time > 9223372036854775807 AND time < 9223372036854775807",
            "SELECT Reading FROM Power WHERE time >= 0 AND time <= 9223372036854775807",
        ] {
            assert!(parse_query(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tag_values_with_dots_and_dashes() {
        let q = parse_query(
            "SELECT max(v) FROM m WHERE NodeId='10.101.1.31' AND time >= 0 AND time < 10",
        )
        .unwrap();
        assert_eq!(q.predicates[0], ("NodeId".into(), "10.101.1.31".into()));
    }
}
