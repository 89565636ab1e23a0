//! Wire parsing for HTTP/1.1 messages.
//!
//! Framing is `Content-Length` only (MonSTer peers never send chunked
//! bodies). The parsers take the complete message bytes; a
//! [`MessageReader`] pulls them off a connection one message at a time.

use crate::message::{Headers, Method, Request, Response, Status};
use monster_util::{Error, Result};
use std::io::Read;

/// Hard cap on header block size — guards the server against garbage.
const MAX_HEAD: usize = 64 * 1024;
/// Hard cap on the size of a body a client reads (a full-range
/// uncompressed Metrics Builder response is tens of MB; give headroom).
pub(crate) const MAX_BODY: usize = 512 * 1024 * 1024;

/// Split raw bytes into (head, body) at the CRLFCRLF boundary.
fn split_head(raw: &[u8]) -> Result<(&str, &[u8])> {
    let pos = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| Error::parse("missing header terminator"))?;
    let head =
        std::str::from_utf8(&raw[..pos]).map_err(|_| Error::parse("non-UTF-8 header block"))?;
    Ok((head, &raw[pos + 4..]))
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers> {
    let mut headers = Headers::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| Error::parse(format!("malformed header line {line:?}")))?;
        headers.set(name.trim(), value.trim());
    }
    Ok(headers)
}

fn body_from<'a>(headers: &Headers, rest: &'a [u8]) -> Result<&'a [u8]> {
    let len: usize = headers
        .get("Content-Length")
        .unwrap_or("0")
        .parse()
        .map_err(|_| Error::parse("bad Content-Length"))?;
    if len > MAX_BODY {
        return Err(Error::invalid("body exceeds size cap"));
    }
    if rest.len() < len {
        return Err(Error::parse("body shorter than Content-Length"));
    }
    Ok(&rest[..len])
}

/// Parse a complete request message.
pub fn parse_request(raw: &[u8]) -> Result<Request> {
    let (head, rest) = split_head(raw)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| Error::parse("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().and_then(Method::parse).ok_or_else(|| Error::parse("bad method"))?;
    let target = parts.next().ok_or_else(|| Error::parse("missing target"))?;
    let version = parts.next().ok_or_else(|| Error::parse("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(Error::parse(format!("unsupported version {version:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers = parse_headers(lines)?;
    let body = body_from(&headers, rest)?.to_vec();
    let keep_alive =
        headers.get("Connection").map(|v| v.eq_ignore_ascii_case("keep-alive")).unwrap_or(false);
    Ok(Request { method, path, query, headers, body, keep_alive })
}

/// Parse a complete response message.
pub fn parse_response(raw: &[u8]) -> Result<Response> {
    let (head, rest) = split_head(raw)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| Error::parse("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or_else(|| Error::parse("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(Error::parse(format!("unsupported version {version:?}")));
    }
    let code: u16 = parts
        .next()
        .ok_or_else(|| Error::parse("missing status"))?
        .parse()
        .map_err(|_| Error::parse("non-numeric status"))?;
    let headers = parse_headers(lines)?;
    // The one copy a client makes of a body: into the shared `Body`.
    let body = body_from(&headers, rest)?;
    Ok(Response::new(Status(code), headers, body.into()))
}

/// One connection's read side. A read can run past the end of the message
/// it completes (a pipelining peer sends its next request behind the
/// first); those bytes wait here and begin the next message.
pub struct MessageReader<R> {
    inner: R,
    ahead: Vec<u8>,
}

impl<R: Read> MessageReader<R> {
    /// A reader with nothing read yet.
    pub fn new(inner: R) -> Self {
        MessageReader { inner, ahead: Vec::new() }
    }

    /// The stream, for writing the other way.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Read one full message: until the header block is complete, then the
    /// `Content-Length` bytes of its body straight into one buffer reserved
    /// at that length. A message announcing more than `max_body` is refused
    /// from its header, before a body byte is read.
    pub fn read_message(&mut self, max_body: usize) -> Result<Vec<u8>> {
        let mut buf = std::mem::take(&mut self.ahead);
        let mut chunk = [0u8; 4096];
        // Phase 1: until CRLFCRLF.
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if buf.len() > MAX_HEAD {
                return Err(Error::invalid("header block exceeds size cap"));
            }
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::Network("connection closed mid-header".into()));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        // Phase 2: find Content-Length in the head.
        let head = std::str::from_utf8(&buf[..head_end - 4])
            .map_err(|_| Error::parse("non-UTF-8 header block"))?;
        let mut content_length = 0usize;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length =
                        value.trim().parse().map_err(|_| Error::parse("bad Content-Length"))?;
                }
            }
        }
        if content_length > max_body {
            return Err(Error::invalid("body exceeds size cap"));
        }
        // Phase 3: the rest of the body, or the next message's first bytes
        // put aside.
        let total = head_end + content_length;
        if buf.len() > total {
            self.ahead = buf.split_off(total);
        } else {
            let rest = total - buf.len();
            buf.reserve_exact(rest);
            self.inner.by_ref().take(rest as u64).read_to_end(&mut buf)?;
            if buf.len() < total {
                return Err(Error::Network("connection closed mid-body".into()));
            }
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_json::jobj;

    #[test]
    fn request_round_trip() {
        let mut r = Request::get("/v1/metrics?interval=5m");
        r.headers.set("Accept", "application/json");
        let parsed = parse_request(&r.to_bytes()).unwrap();
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(parsed.path, "/v1/metrics");
        assert_eq!(parsed.query, "interval=5m");
        assert_eq!(parsed.headers.get("accept"), Some("application/json"));
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn post_round_trip_preserves_body() {
        let v = jobj! { "points" => vec![1i64, 2, 3] };
        let r = Request::post_json("/v1/write", &v);
        let parsed = parse_request(&r.to_bytes()).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(monster_json::parse(std::str::from_utf8(&parsed.body).unwrap()).unwrap(), v);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(&jobj! { "ok" => true });
        let parsed = parse_response(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.json_body().unwrap(), jobj! { "ok" => true });
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"GARBAGE"[..],
            b"PATCH / HTTP/1.1\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            assert!(parse_request(bad).is_err());
        }
    }

    #[test]
    fn read_message_handles_fragmented_delivery() {
        // A reader that returns one byte at a time.
        struct Trickle(Vec<u8>, usize);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let msg = Response::json(&jobj! { "v" => 42i64 }).to_bytes();
        let got = MessageReader::new(Trickle(msg.clone(), 0)).read_message(MAX_BODY).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn read_message_errors_on_truncation() {
        struct Fixed(std::io::Cursor<Vec<u8>>);
        impl Read for Fixed {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.0.read(buf)
            }
        }
        let mut msg = Response::json(&jobj! { "v" => 42i64 }).to_bytes();
        msg.truncate(msg.len() - 3);
        let mut f = MessageReader::new(Fixed(std::io::Cursor::new(msg)));
        assert!(matches!(f.read_message(MAX_BODY), Err(Error::Network(_))));
    }

    #[test]
    fn status_codes_survive_round_trip() {
        for status in [Status::NOT_FOUND, Status::SERVICE_UNAVAILABLE, Status::BAD_REQUEST] {
            let resp = Response::error(status, "why");
            let parsed = parse_response(&resp.to_bytes()).unwrap();
            assert_eq!(parsed.status, status);
            assert_eq!(parsed.body, b"why");
        }
    }
}
