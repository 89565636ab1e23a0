//! Keep-alive behaviour: one connection, many exchanges.

use monster_http::{
    parse_response, Client, MessageReader, Method, PersistentClient, Request, Response, Router,
    Server, Status,
};
use monster_json::jobj;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A router that counts requests and reports a per-connection-ish counter.
fn counting_router(counter: Arc<AtomicUsize>) -> Router {
    Router::new().route(Method::Get, "/n", move |_, _| {
        let n = counter.fetch_add(1, Ordering::SeqCst);
        Response::json(&jobj! { "n" => n as i64 })
    })
}

#[test]
fn persistent_client_reuses_one_connection() {
    let counter = Arc::new(AtomicUsize::new(0));
    let server = Server::spawn(0, counting_router(Arc::clone(&counter))).unwrap();
    let mut pc = PersistentClient::new(server.addr(), Client::new());
    for expect in 0..10i64 {
        let resp = pc.send(&Request::get("/n")).unwrap();
        assert_eq!(resp.json_body().unwrap().get("n").unwrap().as_i64(), Some(expect));
    }
    // All ten exchanges went over the same connection.
    assert_eq!(pc.reuse_count(), 10);
    assert_eq!(counter.load(Ordering::SeqCst), 10);
}

#[test]
fn close_requests_still_close() {
    let counter = Arc::new(AtomicUsize::new(0));
    let server = Server::spawn(0, counting_router(counter)).unwrap();
    // The plain client sends Connection: close; a fresh connection each
    // time still works against the keep-alive-capable server.
    let client = Client::new();
    for _ in 0..3 {
        let resp = client.send(server.addr(), &Request::get("/n")).unwrap();
        assert_eq!(resp.status, Status::OK);
        // Server honours close: the response says so.
        assert_eq!(resp.headers.get("Connection"), Some("close"));
    }
}

#[test]
fn persistent_client_survives_server_restart() {
    let counter = Arc::new(AtomicUsize::new(0));
    let mut server = Server::spawn(0, counting_router(Arc::clone(&counter))).unwrap();
    let addr = server.addr();
    let mut pc = PersistentClient::new(addr, Client::new());
    assert!(pc.send(&Request::get("/n")).is_ok());

    // Kill and rebind on the same port (retry a few times: the OS may
    // briefly hold the port).
    server.shutdown();
    drop(server);
    let mut revived = None;
    for _ in 0..20 {
        match Server::spawn(addr.port(), counting_router(Arc::clone(&counter))) {
            Ok(s) => {
                revived = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let _revived = revived.expect("rebind");

    // The old connection is dead; the client reconnects transparently.
    let resp = pc.send(&Request::get("/n")).unwrap();
    assert_eq!(resp.status, Status::OK);
}

#[test]
fn pipelined_requests_are_each_answered_in_order() {
    let counter = Arc::new(AtomicUsize::new(0));
    let server = Server::spawn(0, counting_router(counter)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Two requests in one write: the server's first read takes both, and
    // the second must wait in its connection rather than be dropped.
    let one = Request::get("/n").keep_alive().to_bytes();
    (&stream).write_all(&[one.clone(), one].concat()).unwrap();
    let mut reader = MessageReader::new(&stream);
    for expect in 0..2i64 {
        let resp = parse_response(&reader.read_message(1 << 20).unwrap()).unwrap();
        assert_eq!(resp.json_body().unwrap().get("n").unwrap().as_i64(), Some(expect));
    }
}

#[test]
fn mixed_keep_alive_and_close_on_same_server() {
    let counter = Arc::new(AtomicUsize::new(0));
    let server = Server::spawn(0, counting_router(counter)).unwrap();
    let mut pc = PersistentClient::new(server.addr(), Client::new());
    let oneshot = Client::new();
    for _ in 0..3 {
        assert!(pc.send(&Request::get("/n")).is_ok());
        assert!(oneshot.send(server.addr(), &Request::get("/n")).is_ok());
    }
    assert_eq!(pc.reuse_count(), 3);
}
