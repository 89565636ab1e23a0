//! Redfish session authentication.
//!
//! Real iDRACs gate every resource behind credentials: clients POST to
//! `/redfish/v1/SessionService/Sessions` with a username/password and
//! receive an `X-Auth-Token` to present on subsequent requests (the
//! collector's long-lived sessions avoid re-authenticating 1868 times per
//! sweep). This module implements the token store; the gateway's
//! authenticated router enforces it.

use monster_util::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Seconds a token stays valid without use (iDRAC defaults to 30 min).
pub const SESSION_IDLE_LIMIT: u64 = 1800;

#[derive(Debug, Clone)]
struct Session {
    user: String,
    /// Monotonic "last used" stamp (caller supplies the clock).
    last_used: u64,
}

/// Credential store + live session tokens.
pub struct SessionManager {
    username: String,
    password: String,
    sessions: Mutex<HashMap<String, Session>>,
    counter: std::sync::atomic::AtomicU64,
    seed: u64,
}

impl SessionManager {
    /// A manager accepting exactly one service account (how production
    /// MonSTer authenticates to every BMC).
    pub fn new(username: impl Into<String>, password: impl Into<String>, seed: u64) -> Self {
        SessionManager {
            username: username.into(),
            password: password.into(),
            sessions: Mutex::new(HashMap::new()),
            counter: std::sync::atomic::AtomicU64::new(1),
            seed,
        }
    }

    /// Attempt a login; returns the new token.
    pub fn login(&self, username: &str, password: &str, now: u64) -> Result<String> {
        if username != self.username || password != self.password {
            return Err(Error::Http { status: 401, message: "invalid credentials".into() });
        }
        let n = self.counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Deterministic per (seed, counter) but unguessable enough for the
        // simulation: FNV over the pair, hex-encoded twice.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in n.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let token = format!("{h:016x}{:016x}", h.wrapping_mul(n | 1));
        self.sessions
            .lock()
            .insert(token.clone(), Session { user: username.to_string(), last_used: now });
        Ok(token)
    }

    /// Validate a token, refreshing its idle timer. Expired tokens are
    /// removed and rejected.
    pub fn validate(&self, token: &str, now: u64) -> Result<String> {
        let mut sessions = self.sessions.lock();
        match sessions.get_mut(token) {
            Some(s) if now.saturating_sub(s.last_used) <= SESSION_IDLE_LIMIT => {
                s.last_used = now;
                Ok(s.user.clone())
            }
            Some(_) => {
                sessions.remove(token);
                Err(Error::Http { status: 401, message: "session expired".into() })
            }
            None => Err(Error::Http { status: 401, message: "unknown token".into() }),
        }
    }

    /// Explicit logout (DELETE on the session resource).
    // kept: half of the session API (login, logout) a real iDRAC enforces
    pub fn logout(&self, token: &str) -> bool {
        self.sessions.lock().remove(token).is_some()
    }

    /// Live session count.
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SessionManager {
        SessionManager::new("monster", "hunter2", 42)
    }

    #[test]
    fn login_issues_distinct_tokens() {
        let m = mgr();
        let a = m.login("monster", "hunter2", 0).unwrap();
        let b = m.login("monster", "hunter2", 0).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.active_sessions(), 2);
        assert_eq!(m.validate(&a, 10).unwrap(), "monster");
        assert_eq!(m.validate(&b, 10).unwrap(), "monster");
    }

    #[test]
    fn bad_credentials_rejected() {
        let m = mgr();
        assert!(m.login("monster", "wrong", 0).is_err());
        assert!(m.login("root", "hunter2", 0).is_err());
        assert_eq!(m.active_sessions(), 0);
    }

    #[test]
    fn idle_expiry_enforced_and_refreshed() {
        let m = mgr();
        let t = m.login("monster", "hunter2", 0).unwrap();
        // Used at 1000: refreshes.
        assert!(m.validate(&t, 1000).is_ok());
        // 1000 + 1800 is still fine...
        assert!(m.validate(&t, 2800).is_ok());
        // ...but a gap beyond the idle limit kills it.
        assert!(m.validate(&t, 2800 + SESSION_IDLE_LIMIT + 1).is_err());
        // And it is gone for good.
        assert!(m.validate(&t, 2800).is_err());
        assert_eq!(m.active_sessions(), 0);
    }

    #[test]
    fn logout_invalidates() {
        let m = mgr();
        let t = m.login("monster", "hunter2", 0).unwrap();
        assert!(m.logout(&t));
        assert!(!m.logout(&t));
        assert!(m.validate(&t, 0).is_err());
    }

    #[test]
    fn unknown_token_rejected() {
        assert!(mgr().validate("deadbeef", 0).is_err());
    }
}
