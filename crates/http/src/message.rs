//! HTTP message types: methods, statuses, headers, requests, responses.

use monster_json::Value;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Request methods MonSTer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Resource reads (Redfish queries, Metrics Builder API).
    Get,
    /// Writes (TSDB batch ingest endpoint).
    Post,
    /// Deletes (administrative endpoints).
    Delete,
}

impl Method {
    /// Parse from the request-line token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// The wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Response status codes MonSTer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200.
    pub const OK: Status = Status(200);
    /// 400.
    pub const BAD_REQUEST: Status = Status(400);
    /// 404.
    pub const NOT_FOUND: Status = Status(404);
    /// 405.
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    /// 429 — cost-based admission control turning work away; comes with a
    /// `Retry-After` header.
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    /// 500.
    pub const INTERNAL_ERROR: Status = Status(500);

    /// Canonical reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// 2xx check.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// Case-insensitive header multimap (last write wins per name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Set a header, replacing any existing value for the same
    /// (case-insensitive) name.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(&name)) {
            e.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    /// Case-insensitive lookup.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Remove a header (case-insensitive), returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        let idx = self.entries.iter().position(|(n, _)| n.eq_ignore_ascii_case(name))?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path component (no scheme/host), e.g. `/redfish/v1/Chassis/...`.
    pub path: String,
    /// Raw query string (without `?`), empty if none.
    pub query: String,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Request connection reuse after this exchange (`Connection:
    /// keep-alive`). Default: close.
    pub keep_alive: bool,
}

impl Request {
    /// A GET request for `path` (optionally with `?query`).
    pub fn get(path_and_query: &str) -> Request {
        let (path, query) = split_query(path_and_query);
        Request {
            method: Method::Get,
            path,
            query,
            headers: Headers::new(),
            body: Vec::new(),
            keep_alive: false,
        }
    }

    /// Request connection reuse after this exchange.
    pub fn keep_alive(mut self) -> Request {
        self.keep_alive = true;
        self
    }

    /// Builder-style header attachment (e.g. a `traceparent` to join the
    /// caller's distributed trace).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// One query parameter's value (`key=value`). The query is canonical
    /// ([`split_query`]): a `%XX` of a character a query may carry
    /// literally is already decoded, so `start=…T00%3A00%3A00Z` reads as
    /// the timestamp it spells.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Serialize onto the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        out.extend_from_slice(format!("{} {} HTTP/1.1\r\n", self.method, target).as_bytes());
        for (n, v) in self.headers.iter() {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if self.keep_alive {
            out.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
        } else {
            out.extend_from_slice(b"Connection: close\r\n\r\n");
        }
        out.extend_from_slice(&self.body);
        out
    }
}

/// Split a request target at its `?` and canonicalize the query, once,
/// where a [`Request`] is built: a `%XX` escape of a character a query may
/// carry literally — RFC 3986's unreserved characters, its sub-delimiters
/// other than `&`, `=` and `+`, and `:`, `@`, `/`, `?` — is decoded, so both
/// spellings of a request read as one and share one cache key. `%25 %26
/// %3D %2B %23`, which would change how the query splits or decodes, and
/// the escapes of controls, spaces and non-ASCII bytes stay as they came,
/// so the target is still a valid request line. A `%` that starts no
/// escape is left literal.
pub(crate) fn split_query(target: &str) -> (String, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut canonical = String::with_capacity(query.len());
    let mut rest = query;
    while let Some(at) = rest.find('%') {
        canonical.push_str(&rest[..at]);
        let digit = |i: usize| rest.as_bytes().get(i).and_then(|&b| char::from(b).to_digit(16));
        let byte = match (digit(at + 1), digit(at + 2)) {
            (Some(high), Some(low)) => u8::try_from(high * 16 + low).ok(),
            _ => None,
        };
        match byte {
            Some(b) if b.is_ascii_alphanumeric() || b"-._~!$'()*,;:@/?".contains(&b) => {
                canonical.push(char::from(b));
                rest = &rest[at + 3..];
            }
            _ => {
                canonical.push('%');
                rest = &rest[at + 1..];
            }
        }
    }
    canonical.push_str(rest);
    (path.to_string(), canonical)
}

/// Response body bytes behind a shared, immutable buffer.
///
/// Cloning a `Body` (and therefore a [`Response`]) bumps a reference
/// count instead of copying the payload — the builder's response cache
/// serves one stored body to any number of concurrent dashboard requests
/// with zero byte copies. Reads go through `Deref<Target = [u8]>`, so
/// `&resp.body` works anywhere a byte slice is expected.
#[derive(Debug, Clone)]
pub struct Body(Arc<[u8]>);

impl Body {
    /// An empty body.
    pub fn empty() -> Body {
        Body(Arc::from(&[][..]))
    }

    /// Copy the bytes out into an owned vector (the one place a copy is
    /// explicit).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        Body(Arc::from(bytes))
    }
}

impl From<&[u8]> for Body {
    fn from(bytes: &[u8]) -> Body {
        Body(Arc::from(bytes))
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.0[..] == other.0[..]
    }
}

impl Eq for Body {}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.0[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        self.0[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.0[..] == other[..]
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body bytes (shared; see [`Body`]).
    pub body: Body,
}

impl Response {
    /// A response from its parts.
    pub fn new(status: Status, headers: Headers, body: Body) -> Response {
        Response { status, headers, body }
    }

    /// 200 with a JSON body.
    pub fn json(v: &Value) -> Response {
        Response::bytes(v.to_string_compact().into_bytes(), "application/json")
    }

    /// 200 with raw bytes and a content type.
    pub fn bytes(body: Vec<u8>, content_type: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type.to_string());
        Response::new(Status::OK, headers, body.into())
    }

    /// An error response with a plain-text body.
    pub fn error(status: Status, msg: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain");
        Response::new(status, headers, msg.as_bytes().into())
    }

    /// Parse the body as JSON (after transparent `mz2` decoding if the
    /// `Content-Encoding` header says so).
    pub fn json_body(&self) -> monster_util::Result<Value> {
        let body = self.decoded_body()?;
        monster_json::parse(
            std::str::from_utf8(&body)
                .map_err(|_| monster_util::Error::parse("response body is not UTF-8"))?,
        )
    }

    /// The body with any `mz2` content-encoding removed.
    pub fn decoded_body(&self) -> monster_util::Result<Vec<u8>> {
        if self.headers.get("Content-Encoding") == Some("mz2") {
            monster_compress::decompress(&self.body)
        } else {
            Ok(self.body.to_vec())
        }
    }

    /// Tag a body that is an `mz2` container (`monster_compress::compress`)
    /// as such.
    pub fn content_encoded(mut self) -> Response {
        self.headers.set("Content-Encoding", "mz2");
        self
    }

    /// Serialize onto the wire with `Connection: close`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(false)
    }

    /// Serialize onto the wire with `Connection: keep-alive`.
    pub fn to_bytes_keep_alive(&self) -> Vec<u8> {
        self.encode(true)
    }

    fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        self.write_head(&mut out, keep_alive);
        out.extend_from_slice(&self.body);
        out
    }

    /// Append the status line and the headers, `Content-Length` and
    /// `Connection` last: everything the wire carries before the body.
    pub(crate) fn write_head(&self, out: &mut Vec<u8>, keep_alive: bool) {
        use std::io::Write;
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason());
        for (n, v) in self.headers.iter() {
            let _ = write!(out, "{n}: {v}\r\n");
        }
        let (len, connection) = (self.body.len(), if keep_alive { "keep-alive" } else { "close" });
        let _ = write!(out, "Content-Length: {len}\r\nConnection: {connection}\r\n\r\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_json::jobj;

    #[test]
    fn headers_are_case_insensitive_and_replace() {
        let mut h = Headers::new();
        h.set("Content-Type", "a");
        h.set("content-type", "b");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("CONTENT-TYPE"), Some("b"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn headers_remove_is_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "a");
        h.set("X-Cache", "hit");
        assert_eq!(h.remove("content-type"), Some("a".to_string()));
        assert_eq!(h.remove("content-type"), None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("X-Cache"), Some("hit"));
    }

    #[test]
    fn query_param_extraction() {
        let r = Request::get("/v1/metrics?start=2020-04-20T12:00:00Z&interval=5m&agg=max");
        assert_eq!(r.path, "/v1/metrics");
        assert_eq!(r.query_param("interval"), Some("5m"));
        assert_eq!(r.query_param("agg"), Some("max"));
        assert_eq!(r.query_param("nope"), None);
    }

    #[test]
    fn a_query_is_canonical_once_built() {
        for (target, query) in [
            ("/v?start=2020-04-20T00%3A00%3A00Z", "start=2020-04-20T00:00:00Z"),
            ("/v?start=2020-04-20T00%3a00%3a00Z", "start=2020-04-20T00:00:00Z"),
            ("/v?compress=%74rue&a=%41%2d%2E%5f%7E", "compress=true&a=A-._~"),
            ("/v?p=%21%24%27%28%29%2A%2C%3B%40%2F%3F", "p=!$'()*,;@/?"),
            // What would re-split or re-decode the query stays escaped.
            ("/v?a=%25%26%3D%2B%23&b=%2b", "a=%25%26%3D%2B%23&b=%2b"),
            // Controls, spaces, quotes, brackets and non-ASCII bytes too.
            ("/v?a=%00%0A%20%22%3C%5B%7F%C3%A9", "a=%00%0A%20%22%3C%5B%7F%C3%A9"),
            // A `%` that starts no escape is a literal `%`.
            ("/v?a=%&b=%4&c=%G1&d=%%41&e=%+1", "a=%&b=%4&c=%G1&d=%A&e=%+1"),
            ("/v?a=%é1", "a=%é1"),
            ("/v", ""),
            ("/v?", ""),
        ] {
            let r = Request::get(target);
            assert_eq!((r.path.as_str(), r.query.as_str()), ("/v", query), "{target}");
        }
        let wire = b"GET /v1/metrics?start=2020-04-20T00%3A00%3A00Z HTTP/1.1\r\n\r\n";
        let parsed = crate::parse_request(wire).unwrap();
        assert_eq!(parsed.query_param("start"), Some("2020-04-20T00:00:00Z"));
    }

    #[test]
    fn request_wire_format() {
        let r = Request::get("/redfish/v1/Chassis/System.Embedded.1/Thermal/");
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("GET /redfish/v1/Chassis/System.Embedded.1/Thermal/ HTTP/1.1\r\n"));
        assert!(s.contains("Content-Length: 0\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_json_round_trip() {
        let v = jobj! { "Reading" => 273.8 };
        let resp = Response::json(&v);
        assert_eq!(resp.json_body().unwrap(), v);
        assert!(resp.status.is_success());
    }

    #[test]
    fn compressed_response_decodes_transparently() {
        let v = jobj! { "data" => "x".repeat(2000) };
        let packed = monster_compress::compress(
            v.to_string_compact().as_bytes(),
            monster_compress::Level::default(),
        );
        let resp = Response::bytes(packed, "application/json").content_encoded();
        assert_eq!(resp.headers.get("Content-Encoding"), Some("mz2"));
        assert!(resp.body.len() < 500);
        assert_eq!(resp.json_body().unwrap(), v);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert_eq!(Status(503).reason(), "Service Unavailable");
        assert!(!Status::NOT_FOUND.is_success());
    }

    #[test]
    fn method_parsing() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("PATCH"), None);
    }
}
