//! A thread-per-connection HTTP server.
//!
//! Serves a [`Router`] on a TCP listener. Each connection serves one
//! exchange by default, or a sequence of them under `Connection:
//! keep-alive`. Shutdown is cooperative: a flag plus a self-connect to
//! unblock `accept`.

use crate::message::{Response, Status};
use crate::parse::{parse_request, MessageReader};
use crate::router::Router;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a peer may keep a connection's thread waiting, for its next
/// request or for room to write the reply into.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// The largest request body a connection buffers. No route of the API
/// takes more than a few KB; a request announcing more is refused from its
/// `Content-Length`.
const MAX_REQUEST_BODY: usize = 1024 * 1024;

/// A running HTTP server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind to `127.0.0.1:port` (port 0 picks a free port) and serve
    /// `router` until [`Server::shutdown`] or drop.
    pub fn spawn(port: u16, router: Router) -> monster_util::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let router = Arc::new(router);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let router = Arc::clone(&router);
                // A thread per connection is plenty for the monitoring
                // workload: a handful of persistent peers plus occasional
                // one-shot consumers.
                std::thread::spawn(move || {
                    handle_connection(stream, &router, IO_TIMEOUT);
                });
            }
        });
        Ok(Server { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL (`http://127.0.0.1:PORT`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, router: &Router, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    // A peer that stops reading fails the write instead of pinning the thread.
    let _ = stream.set_write_timeout(Some(timeout));
    let mut reader = MessageReader::new(&stream);
    let mut head = Vec::with_capacity(256);
    // Serve exchanges until the client closes, asks to close, or errors.
    loop {
        let (response, keep_alive) =
            match reader.read_message(MAX_REQUEST_BODY).and_then(|raw| parse_request(&raw)) {
                Ok(req) => {
                    let keep = req.keep_alive;
                    (router.dispatch(&req), keep)
                }
                Err(monster_util::Error::Network(_)) => return, // client went away
                Err(e) => (Response::error(Status::BAD_REQUEST, &e.to_string()), false),
            };
        // The body goes out from where it lies (a cache hit's shared
        // buffer); the kernel's copy into the socket is the only one.
        head.clear();
        response.write_head(&mut head, keep_alive);
        let mut wire = [IoSlice::new(&head), IoSlice::new(&response.body)];
        if write_all_vectored(&mut &stream, &mut wire).is_err() || !keep_alive {
            return;
        }
    }
}

/// Write every byte of `bufs`, each `writev` resuming where the last one
/// stopped.
fn write_all_vectored(out: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match out.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::message::{Method, Request};
    use monster_json::jobj;

    fn test_router() -> Router {
        Router::new()
            .route(Method::Get, "/ping", |_, _| Response::json(&jobj! { "pong" => true }))
            .route(Method::Post, "/echo", |req, _| {
                Response::bytes(req.body.clone(), "application/octet-stream")
            })
    }

    #[test]
    fn serves_and_shuts_down() {
        let mut server = Server::spawn(0, test_router()).unwrap();
        let client = Client::new();
        let resp = client.send(server.addr(), &Request::get("/ping")).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.json_body().unwrap(), jobj! { "pong" => true });
        server.shutdown();
        // Idempotent shutdown.
        server.shutdown();
    }

    #[test]
    fn post_bodies_echo() {
        let server = Server::spawn(0, test_router()).unwrap();
        let client = Client::new();
        let payload = jobj! { "xs" => vec![1i64, 2, 3] };
        let resp = client.send(server.addr(), &Request::post_json("/echo", &payload)).unwrap();
        assert_eq!(resp.body, payload.to_string_compact().into_bytes());
    }

    #[test]
    fn unknown_route_is_404() {
        let server = Server::spawn(0, test_router()).unwrap();
        let client = Client::new();
        let resp = client.send(server.addr(), &Request::get("/missing")).unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn concurrent_requests_all_answered() {
        let server = Server::spawn(0, test_router()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                std::thread::spawn(move || {
                    let client = Client::new();
                    client.send(addr, &Request::get("/ping")).unwrap().status
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Status::OK);
        }
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = Server::spawn(0, test_router()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let raw = MessageReader::new(&stream).read_message(MAX_REQUEST_BODY).unwrap();
        let resp = crate::parse::parse_response(&raw).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
    }

    #[test]
    fn an_oversized_content_length_is_refused_before_its_body() {
        let server = Server::spawn(0, test_router()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The head only: a server that waited for (or made room for) the
        // body it announces would not answer inside the read timeout.
        let head = format!(
            "POST /echo HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BODY + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let raw = MessageReader::new(&stream).read_message(MAX_REQUEST_BODY).unwrap();
        assert_eq!(crate::parse::parse_response(&raw).unwrap().status, Status::BAD_REQUEST);
        // And the connection is closed, keep-alive or not.
        assert_eq!(std::io::Read::read(&mut stream, &mut [0u8; 16]).unwrap(), 0);
        // At the cap is served.
        let body = vec![b'x'; MAX_REQUEST_BODY];
        let req = Request { body: body.clone(), ..Request::post_json("/echo", &jobj! {}) };
        assert_eq!(Client::new().send(server.addr(), &req).unwrap().body, body);
    }

    #[test]
    fn a_peer_that_never_reads_is_cut_off_and_its_thread_exits() {
        // More than the loopback socket buffers hold between them.
        let big = Router::new().route(Method::Get, "/big", |_, _| {
            Response::bytes(vec![b'z'; 64 << 20], "application/octet-stream")
        });
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            handle_connection(stream, &big, Duration::from_millis(200));
            done_tx.send(()).unwrap();
        });
        peer.write_all(&Request::get("/big").to_bytes()).unwrap();
        // `peer` stays open and silent for as long as the worker lives.
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the connection's thread is still blocked in its write");
        worker.join().unwrap();
        drop(peer);
    }

    #[test]
    fn a_socket_that_takes_a_few_bytes_a_call_still_gets_every_byte_in_order() {
        /// Takes at most `max` bytes a call, across as many slices as that
        /// reaches into.
        struct Short {
            max: usize,
            out: Vec<u8>,
        }
        impl Write for Short {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let before = self.out.len();
                for b in bufs {
                    let room = self.max - (self.out.len() - before);
                    self.out.extend_from_slice(&b[..b.len().min(room)]);
                }
                Ok(self.out.len() - before)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for (head, body) in [(&b"head\r\n\r\n"[..], &body[..]), (b"h", b""), (b"h", b"b")] {
            for max in [1, 3, 8, 9, 64, 4096] {
                let mut short = Short { max, out: Vec::new() };
                let mut bufs = [IoSlice::new(head), IoSlice::new(body)];
                write_all_vectored(&mut short, &mut bufs).unwrap();
                assert_eq!(short.out, [head, body].concat(), "{max} bytes a call");
            }
        }
    }
}
