//! A blocking HTTP client with connect/read timeouts.
//!
//! The Metrics Collector's BMC polling loop needs exactly what §III-B1
//! describes: "connection timeout, read timeout, and retry mechanisms".
//! Timeouts live here; the retry policy lives with the caller (the Redfish
//! client), which knows which failures are worth retrying.

use crate::message::{Request, Response};
use crate::parse::{parse_response, MessageReader, MAX_BODY};
use monster_util::{Error, Result};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a client waits for a peer to accept a connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a client waits on a silent peer before giving up on a read.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect to `addr` with both timeouts set.
fn open(addr: SocketAddr) -> Result<TcpStream> {
    let stream =
        TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut => Error::Timeout("connect".into()),
            _ => Error::Network(format!("connect to {addr}: {e}")),
        })?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// A one-exchange client (no connection pooling — peers close after one
/// exchange), bounded by `CONNECT_TIMEOUT` and `READ_TIMEOUT`.
#[derive(Debug, Clone, Default)]
pub struct Client;

impl Client {
    /// A client with the 5 s connect and 30 s read timeouts.
    pub fn new() -> Self {
        Client
    }

    /// Send one request and wait for the full response.
    pub fn send(&self, addr: SocketAddr, req: &Request) -> Result<Response> {
        let mut stream = open(addr)?;
        stream.write_all(&req.to_bytes()).map_err(|e| Error::Network(format!("send: {e}")))?;
        parse_response(&MessageReader::new(stream).read_message(MAX_BODY)?)
    }

    /// Send and fail unless the status is 2xx.
    pub fn send_ok(&self, addr: SocketAddr, req: &Request) -> Result<Response> {
        let resp = self.send(addr, req)?;
        if resp.status.is_success() {
            Ok(resp)
        } else {
            Err(Error::Http {
                status: resp.status.0,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        }
    }
}

/// A client that holds one TCP connection open across requests
/// (`Connection: keep-alive`) — what a production collector uses to avoid
/// 1868 handshakes per sweep. Reconnects transparently after errors or a
/// server-side close.
pub struct PersistentClient {
    addr: SocketAddr,
    conn: Option<MessageReader<TcpStream>>,
    /// Exchanges completed on the current connection (observability).
    reused: usize,
}

impl PersistentClient {
    /// A persistent client for one peer, with [`Client`]'s timeouts.
    pub fn new(addr: SocketAddr, _: Client) -> Self {
        PersistentClient { addr, conn: None, reused: 0 }
    }

    /// Exchanges served without reconnecting.
    pub fn reuse_count(&self) -> usize {
        self.reused
    }

    fn connect(&mut self) -> Result<&mut MessageReader<TcpStream>> {
        if self.conn.is_none() {
            self.conn = Some(MessageReader::new(open(self.addr)?));
            self.reused = 0;
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Send one request over the persistent connection. The request is
    /// forced to `keep-alive`; one transparent retry covers a stale
    /// connection the server already closed.
    pub fn send(&mut self, req: &Request) -> Result<Response> {
        let wire = req.clone().keep_alive().to_bytes();
        for attempt in 0..2 {
            let conn = self.connect()?;
            let outcome = conn
                .get_mut()
                .write_all(&wire)
                .map_err(|e| Error::Network(format!("send: {e}")))
                .and_then(|()| conn.read_message(MAX_BODY))
                .and_then(|raw| parse_response(&raw));
            match outcome {
                Ok(resp) => {
                    self.reused += 1;
                    return Ok(resp);
                }
                Err(e @ Error::Network(_)) if attempt == 0 => {
                    // Stale connection (server closed between exchanges):
                    // reconnect once. Timeouts are NOT replayed — the peer
                    // may have processed the request (double-writes on
                    // POST /write would corrupt the database).
                    let _ = e;
                    self.conn = None;
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        unreachable!("loop returns on success or error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Status};
    use crate::router::Router;
    use crate::server::Server;
    use monster_json::jobj;

    #[test]
    fn send_ok_raises_on_http_error() {
        let router = Router::new().route(Method::Get, "/boom", |_, _| {
            Response::error(Status::SERVICE_UNAVAILABLE, "bmc busy")
        });
        let server = Server::spawn(0, router).unwrap();
        let client = Client::new();
        let err = client.send_ok(server.addr(), &Request::get("/boom")).unwrap_err();
        assert_eq!(err, Error::Http { status: 503, message: "bmc busy".into() });
    }

    #[test]
    fn connect_to_dead_port_is_network_error() {
        // Bind then drop to get a port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = Client::new();
        let err = client.send(addr, &Request::get("/")).unwrap_err();
        assert!(err.is_retryable(), "got {err}");
    }

    #[test]
    fn read_timeout_fires_on_silent_server() {
        // A listener that accepts but never responds.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = std::thread::spawn(move || {
            let conn = listener.accept().map(|(s, _)| s);
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let start = std::time::Instant::now();
        let err = MessageReader::new(stream).read_message(MAX_BODY).unwrap_err();
        assert!(err.is_retryable(), "got {err}");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn connections_carry_both_timeouts() {
        // A silent server costs a client at most READ_TIMEOUT per read; the
        // kernel enforces it once the socket carries it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = open(listener.local_addr().unwrap()).unwrap();
        assert_eq!(stream.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn full_exchange_against_real_server() {
        let router = Router::new()
            .route(Method::Get, "/v", |_, _| Response::json(&jobj! { "version" => "1.0" }));
        let server = Server::spawn(0, router).unwrap();
        let resp = Client::new().send_ok(server.addr(), &Request::get("/v")).unwrap();
        assert_eq!(resp.json_body().unwrap().get("version").unwrap().as_str(), Some("1.0"));
    }
}
