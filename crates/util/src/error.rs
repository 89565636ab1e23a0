//! Workspace-wide error type.
//!
//! MonSTer spans many subsystems (HTTP, TSDB, scheduler, Redfish, codecs);
//! each reports failures through the same [`Error`] enum so errors can cross
//! crate boundaries without conversion boilerplate.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type shared by all MonSTer crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Malformed input to a parser (JSON, InfluxQL, line protocol, HTTP,
    /// timestamps, intervals). Carries a human-readable description.
    Parse(String),
    /// A request referenced something that does not exist (measurement,
    /// node, job, HTTP route, Redfish resource).
    NotFound(String),
    /// A request was syntactically valid but semantically unacceptable
    /// (bad aggregation for a field type, zero-length interval, ...).
    Invalid(String),
    /// A network-level failure in the simulated or real transport:
    /// connection refused, reset, dropped response.
    Network(String),
    /// An operation exceeded its deadline (BMC read timeout, HTTP timeout).
    Timeout(String),
    /// The peer answered with an HTTP error status.
    Http {
        /// The HTTP status code.
        status: u16,
        /// The response body or reason phrase.
        message: String,
    },
    /// Data failed an integrity check (corrupt compressed stream, bad
    /// Gorilla block, checksum mismatch).
    Corrupt(String),
    /// An I/O error from the host OS (real sockets, file snapshots).
    Io(String),
    /// The subsystem is shutting down or a channel was disconnected.
    Closed(String),
}

impl Error {
    /// Shorthand constructor for [`Error::Parse`].
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }

    /// Shorthand constructor for [`Error::Invalid`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::Invalid(msg.into())
    }

    /// Shorthand constructor for [`Error::NotFound`].
    pub fn not_found(msg: impl Into<String>) -> Self {
        Error::NotFound(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Invalid(m) => write!(f, "invalid: {m}"),
            Error::Network(m) => write!(f, "network error: {m}"),
            Error::Timeout(m) => write!(f, "timeout: {m}"),
            Error::Http { status, message } => write!(f, "http {status}: {message}"),
            Error::Corrupt(m) => write!(f, "corrupt data: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::Closed(m) => write!(f, "closed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                Error::Timeout(e.to_string())
            }
            _ => Error::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_variant_and_message() {
        assert_eq!(Error::parse("bad token").to_string(), "parse error: bad token");
        assert_eq!(
            Error::Http { status: 404, message: "gone".into() }.to_string(),
            "http 404: gone"
        );
    }

    #[test]
    fn io_error_conversion_maps_timeouts() {
        let e: Error = std::io::Error::new(std::io::ErrorKind::TimedOut, "t").into();
        assert!(matches!(e, Error::Timeout(_)));
        let e: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "f").into();
        assert!(matches!(e, Error::Io(_)));
    }
}
