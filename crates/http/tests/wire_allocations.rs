//! What a reply asks of the allocator on each end of the wire.
//!
//! The client reads a body into one buffer reserved at its announced
//! length and copies it once, into the shared `Body`: a kept-alive exchange
//! of an N-byte body asks for about 2 × N bytes. The server writes a cached
//! body from where it lies: serving a primed hit allocates nothing near the
//! size of its body.
//!
//! Both tests hold `all_threads()`: the server test counts every thread,
//! and the client test's bodies must not land in its window.

use counting_alloc::{all_threads, counted};
use monster_http::{Client, Method, PersistentClient, Request, Response, Router, Server};
use std::io::{Read, Write};
use std::net::TcpStream;

/// 0.1, 1.1 and 6.2 MB: a small panel, a middling one, the largest the
/// dashboard catalog serves.
const SIZES: [usize; 3] = [100_000, 1_100_000, 6_200_000];

/// The replies `/b/:i` serves: one body a size, built once and shared by
/// every answer, as the response cache shares a hit's.
fn replies() -> Vec<Response> {
    SIZES.iter().map(|&n| Response::bytes(vec![b'x'; n], "application/octet-stream")).collect()
}

fn server() -> Server {
    let replies = replies();
    let router = Router::new().route(Method::Get, "/b/:i", move |_, p| {
        replies[p.get("i").and_then(|i| i.parse::<usize>().ok()).unwrap()].clone()
    });
    Server::spawn(0, router).unwrap()
}

#[test]
fn a_kept_alive_exchange_asks_for_about_twice_its_body() {
    let _wide = all_threads();
    let server = server();
    let mut client = PersistentClient::new(server.addr(), Client::new());
    for (i, &n) in SIZES.iter().enumerate() {
        let req = Request::get(&format!("/b/{i}"));
        // Connected, and the connection's thread on the server warm.
        client.send(&req).unwrap();
        let (resp, counts) = counted(|| client.send(&req).unwrap());
        assert_eq!(resp.body.len(), n);
        assert!(counts.bytes as f64 <= 2.1 * n as f64, "a {n} B body: {counts:?}");
    }
    assert_eq!(client.reuse_count(), 2 * SIZES.len());
}

#[test]
fn serving_a_primed_hit_allocates_nothing_the_size_of_its_body() {
    let wide = all_threads();
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for (i, (&n, reply)) in SIZES.iter().zip(replies()).enumerate() {
        let req = Request::get(&format!("/b/{i}")).keep_alive().to_bytes();
        let expect = reply.to_bytes_keep_alive();
        // What the reader reads into is allocated before the window.
        let mut got = vec![0u8; expect.len()];
        let mut exchange = || {
            stream.write_all(&req).unwrap();
            stream.read_exact(&mut got).unwrap();
        };
        exchange();
        let ((), counts) = wide.counted(exchange);
        assert_eq!(got, expect);
        assert!(counts.largest < n / 2, "serving a {n} B hit: {counts:?}");
    }
}
