//! `monster-http` — a minimal HTTP/1.1 stack.
//!
//! MonSTer's external surfaces are HTTP: the Redfish API the Metrics
//! Collector polls, and the Metrics Builder API that analysis tools like
//! HiperJobViz consume (§III-D). The workspace cannot pull in a web
//! framework, so this crate implements the slice of HTTP/1.1 the system
//! needs:
//!
//! * [`Request`] / [`Response`] messages with case-insensitive headers;
//! * a wire [`parse`](parse::parse_request) / serializer pair, and a
//!   [`MessageReader`] that frames messages off one connection;
//! * a thread-per-connection [`Server`] with a path-pattern [`Router`];
//! * a blocking [`Client`] with connect/read timeouts;
//! * `Content-Encoding: mz2` response compression via `monster-compress`
//!   (both peers are in-workspace, so the private coding is fine).
//!
//! Bodies are `Content-Length`-framed. Connections default to
//! `Connection: close`; a client that polls one server repeatedly (a
//! dashboard reading the Metrics Builder API) uses [`PersistentClient`] and
//! `Connection: keep-alive` to amortize handshakes.

#![warn(missing_docs)]

mod client;
mod message;
mod parse;
mod router;
mod server;

pub use client::{Client, PersistentClient};
pub use message::{Body, Headers, Method, Request, Response, Status};
pub use parse::{parse_request, parse_response, MessageReader};
pub use router::{PathParams, Router};
pub use server::Server;
