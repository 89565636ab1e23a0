//! Property tests: HTTP wire codec round trips, parser robustness, the
//! connection reader over fragmented and pipelined streams, and the
//! server's vectored write against the one-buffer serializer.

use monster_http::{
    parse_request, parse_response, MessageReader, Method, Request, Response, Router, Server, Status,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

fn arb_path() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-zA-Z0-9._-]{1,12}", 1..5)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

/// The body cap the stream properties read under.
const CAP: usize = 512;

/// Hands `data` out in reads of the sizes `sizes` cycles through.
struct Fragments {
    data: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl Read for Fragments {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Pipelined messages, one body each: requests (as a server reads them) or
/// responses (as a client does), each on the wire the way its type writes it.
fn pipelined(bodies: &[Vec<u8>], requests: bool) -> Vec<Vec<u8>> {
    let status = [Status::OK, Status::NOT_FOUND, Status(503)];
    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            if requests {
                let req = Request { body: body.clone(), ..Request::get(&format!("/m/{i}?q={i}")) };
                Request { method: Method::Post, ..req }.keep_alive().to_bytes()
            } else {
                let resp = Response::bytes(body.clone(), "application/octet-stream");
                Response { status: status[i % status.len()], ..resp }.to_bytes_keep_alive()
            }
        })
        .collect()
}

/// Read the stream `wires` makes, cut after `cut` bytes, in fragments of
/// `sizes`: every message that arrived whole and under the cap comes out
/// as sent and parses as its one-shot parse; the first that did not is an
/// `Err`, and so is a read past the last.
fn check_stream(
    wires: &[Vec<u8>],
    bodies: &[Vec<u8>],
    cut: usize,
    sizes: Vec<usize>,
    requests: bool,
) -> Result<(), TestCaseError> {
    let stream = wires.concat();
    let data = stream[..cut].to_vec();
    let mut reader = MessageReader::new(Fragments { data, at: 0, sizes, next: 0 });
    let mut end = 0;
    for (wire, body) in wires.iter().zip(bodies) {
        end += wire.len();
        let got = reader.read_message(CAP);
        if body.len() > CAP || end > cut {
            prop_assert!(got.is_err(), "message ending at {end} of a stream cut at {cut}");
            return Ok(());
        }
        let raw = got.map_err(|e| TestCaseError::fail(format!("ending at {end}: {e}")))?;
        prop_assert_eq!(&raw, wire);
        if requests {
            prop_assert_eq!(parse_request(&raw), parse_request(wire));
        } else {
            prop_assert_eq!(parse_response(&raw), parse_response(wire));
        }
    }
    prop_assert!(reader.read_message(CAP).is_err());
    Ok(())
}

#[test]
fn a_pipelined_stream_cut_at_every_offset_loses_and_reorders_nothing() {
    let bodies = [vec![b'a'; 40], Vec::new(), vec![b'c'; 300], vec![b'd'; CAP + 1]];
    for requests in [true, false] {
        let wires = pipelined(&bodies, requests);
        let len: usize = wires.iter().map(Vec::len).sum();
        for sizes in [vec![1], vec![3, 1, 7], vec![4096]] {
            for cut in 0..=len {
                check_stream(&wires, &bodies, cut, sizes.clone(), requests).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn get_requests_round_trip(
        path in arb_path(),
        params in prop::collection::vec(("[a-z]{1,8}", "[a-zA-Z0-9:.-]{1,16}"), 0..4),
    ) {
        let query: String = params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("&");
        let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
        let req = Request::get(&target);
        let parsed = parse_request(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed.method, Method::Get);
        prop_assert_eq!(&parsed.path, &path);
        for (k, v) in &params {
            // Later duplicates shadow earlier ones in query_param; check
            // the first occurrence only.
            if params.iter().position(|(k2, _)| k2 == k)
                == params.iter().position(|(k2, v2)| k2 == k && v2 == v)
            {
                prop_assert_eq!(parsed.query_param(k), Some(v.as_str()));
            }
        }
    }

    #[test]
    fn bodies_round_trip(body in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut req = Request::get("/upload");
        req.method = Method::Post;
        req.body = body.clone();
        let parsed = parse_request(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed.body, body.clone());

        let resp = Response::bytes(body.clone(), "application/octet-stream");
        let parsed = parse_response(&resp.to_bytes()).unwrap();
        prop_assert_eq!(parsed.status, Status::OK);
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn parsers_never_panic_on_garbage(data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = parse_request(&data);
        let _ = parse_response(&data);
    }

    #[test]
    fn truncated_messages_error_not_panic(body in prop::collection::vec(any::<u8>(), 1..256), cut_frac in 0.0f64..1.0) {
        let resp = Response::bytes(body, "application/octet-stream");
        let wire = resp.to_bytes();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        if cut < wire.len() {
            // Either fails (truncated) or succeeds iff the cut only
            // removed body bytes beyond Content-Length (impossible here),
            // so: must fail.
            prop_assert!(parse_response(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn header_values_survive(value in "[ -~&&[^\r\n]]{1,40}") {
        let mut req = Request::get("/h");
        req.headers.set("X-Test", value.trim());
        let parsed = parse_request(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed.headers.get("x-test"), Some(value.trim()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pipelined_streams_read_in_any_fragments_come_out_whole_and_in_order(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..CAP + 48), 1..6),
        requests in any::<bool>(),
        sizes in prop::collection::vec(1usize..5000, 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let wires = pipelined(&bodies, requests);
        let len: usize = wires.iter().map(Vec::len).sum();
        // Any offset from nothing sent to everything sent.
        let cut = ((len + 1) as f64 * cut_frac) as usize;
        check_stream(&wires, &bodies, cut.min(len), sizes, requests)?;
    }

    #[test]
    fn the_reader_never_panics_on_garbage(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        sizes in prop::collection::vec(1usize..64, 1..4),
    ) {
        let mut reader = MessageReader::new(Fragments { data, at: 0, sizes, next: 0 });
        // Each `Ok` consumes at least a header terminator.
        for _ in 0..2048 {
            if reader.read_message(CAP).is_err() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What the server puts on the socket, head and body written apart,
    /// is byte for byte what `to_bytes_keep_alive` (or, for a request that
    /// asks to close, `to_bytes`) serializes, and nothing more.
    #[test]
    fn the_vectored_write_puts_exactly_the_serialized_reply_on_the_socket(
        status in prop::sample::select(vec![200u16, 204, 404, 429, 503]),
        headers in prop::collection::vec(("X-[A-Za-z]{1,8}", "[!-~]{0,24}"), 0..4),
        body in prop::collection::vec(any::<u8>(), 0..40_000),
    ) {
        let mut resp = Response::bytes(body, "application/octet-stream");
        resp.status = Status(status);
        for (n, v) in &headers {
            resp.headers.set(n.as_str(), v.as_str());
        }
        let served = resp.clone();
        let server =
            Server::spawn(0, Router::new().route(Method::Get, "/r", move |_, _| served.clone()))
                .unwrap();
        for keep_alive in [true, false] {
            let req = Request { keep_alive, ..Request::get("/r") };
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&req.to_bytes()).unwrap();
            // The server answers, finds the connection closed behind the
            // request, and closes its side: the socket holds exactly the
            // reply.
            stream.shutdown(Shutdown::Write).unwrap();
            let mut wire = Vec::new();
            stream.read_to_end(&mut wire).unwrap();
            let want = if keep_alive { resp.to_bytes_keep_alive() } else { resp.to_bytes() };
            prop_assert_eq!(wire, want);
        }
    }
}
