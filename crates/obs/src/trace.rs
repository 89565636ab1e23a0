//! Distributed-trace identity and context propagation: what ties a
//! record's units of work into a causal graph.
//!
//! * [`TraceId`] — 128-bit identity of one end-to-end pipeline pass (one
//!   collection interval, or one builder API request);
//! * [`SpanId`] — 64-bit identity of one operation inside a trace;
//! * [`TraceContext`] — the `(trace, span)` pair a parent hands to its
//!   children, serialized on the wire as a W3C `traceparent` header.
//!
//! Ids are minted from the owning [`Registry`]'s atomic counter run
//! through a splitmix64 finalizer: unique within the registry, well spread
//! across the id space, and — unlike random ids — identical across replays
//! of the same deterministic simulation, so a seeded chaos run produces
//! the same trace graph every time, whatever else the process runs.
//!
//! # In-process propagation
//!
//! The current context rides a thread-local ([`set_current`], [`current`]):
//! the collector installs its interval's root while it collects, the
//! deployment again around its writes, and the exemplars underneath pick
//! it up without any signature changes. Worker threads do not inherit it.

use crate::Registry;
use std::cell::Cell;
use std::fmt;

/// 128-bit trace identity (one end-to-end pipeline pass).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// 64-bit span identity (one operation within a trace).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// splitmix64 finalizer: bijective, so distinct counter values can never
/// collide, while consecutive values land far apart in the id space.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A nonzero id from `registry`'s mint.
fn next_nonzero(registry: &Registry) -> u64 {
    loop {
        let id = mix64(registry.next_id());
        if id != 0 {
            return id;
        }
    }
}

impl TraceId {
    /// Parse the 32-hex-digit form [`TraceId`] displays as (the id part
    /// of a `traceparent`, or a flight-recorder record's `trace_id`).
    /// `None` on wrong length, anything but lowercase hex digits (a sign
    /// included), or the forbidden all-zero id.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !is_lower_hex(s) {
            return None;
        }
        let id = u128::from_str_radix(s, 16).ok()?;
        if id == 0 {
            return None;
        }
        Some(TraceId(id))
    }
}

/// The propagated `(trace, span)` pair: which trace we are inside, and
/// which span is the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace every descendant span joins.
    pub trace: TraceId,
    /// The span that children of this context hang off.
    pub span: SpanId,
}

impl TraceContext {
    /// A fresh root context minted from `registry`: new trace, new root
    /// span id.
    pub fn root(registry: &Registry) -> TraceContext {
        let trace = ((next_nonzero(registry) as u128) << 64) | next_nonzero(registry) as u128;
        TraceContext { trace: TraceId(trace), span: SpanId(next_nonzero(registry)) }
    }

    /// A child context inside the same trace, its span id minted from
    /// `registry`.
    pub fn child(&self, registry: &Registry) -> TraceContext {
        TraceContext { trace: self.trace, span: SpanId(next_nonzero(registry)) }
    }

    /// Serialize as a W3C `traceparent` header value
    /// (`00-{trace-id}-{parent-id}-01`, the sampled flag always set —
    /// MonSTer traces everything it keeps).
    pub fn to_traceparent(&self) -> String {
        format!("00-{}-{}-01", self.trace, self.span)
    }

    /// Parse a W3C `traceparent` header value. Returns `None` on any
    /// malformation (wrong field count, wrong lengths, non-hex digits,
    /// all-zero ids, or the forbidden `ff` version) — the caller starts a
    /// new root instead of failing the request.
    pub fn parse_traceparent(s: &str) -> Option<TraceContext> {
        let mut parts = s.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some() && version == "00" {
            // Version 00 defines exactly four fields; future versions may
            // append more, which we'd ignore.
            return None;
        }
        if version.len() != 2 || version == "ff" || !is_lower_hex(version) {
            return None;
        }
        if trace.len() != 32 || span.len() != 16 || flags.len() != 2 {
            return None;
        }
        if !is_lower_hex(trace) || !is_lower_hex(span) || !is_lower_hex(flags) {
            return None;
        }
        let trace = u128::from_str_radix(trace, 16).ok()?;
        let span = u64::from_str_radix(span, 16).ok()?;
        if trace == 0 || span == 0 {
            return None;
        }
        Some(TraceContext { trace: TraceId(trace), span: SpanId(span) })
    }
}

fn is_lower_hex(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context currently installed on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Install `ctx` as the thread's current context for the lifetime of the
/// returned guard; the previous context (if any) is restored on drop.
pub fn set_current(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

/// Restores the previously-installed context when dropped.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let r = Registry::new();
        let a = TraceContext::root(&r);
        let b = TraceContext::root(&r);
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
        assert_ne!(a.trace.0, 0);
        assert_ne!(a.span.0, 0);
        let child = a.child(&r);
        assert_eq!(child.trace, a.trace);
        assert_ne!(child.span, a.span);
    }

    #[test]
    fn each_registry_mints_its_own_ids() {
        // A registry's ids do not depend on what another has minted.
        let (first, second) = (Registry::new(), Registry::new());
        let a = TraceContext::root(&first);
        let a_child = a.child(&first);
        for _ in 0..5 {
            TraceContext::root(&first);
        }
        let b = TraceContext::root(&second);
        assert_eq!(b, a);
        assert_eq!(b.child(&second), a_child);
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::root(&Registry::new());
        let header = ctx.to_traceparent();
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let parsed = TraceContext::parse_traceparent(&header).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        for bad in [
            "",
            "garbage",
            "00-abc-def-01", // wrong lengths
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 + extra field
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
        ] {
            assert!(TraceContext::parse_traceparent(bad).is_none(), "accepted {bad:?}");
        }
        // A valid header parses.
        assert!(TraceContext::parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
        )
        .is_some());
    }

    #[test]
    fn trace_ids_roundtrip_through_hex() {
        let id = TraceContext::root(&Registry::new()).trace;
        assert_eq!(TraceId::parse_hex(&id.to_string()), Some(id));
        assert_eq!(
            TraceId::parse_hex("4bf92f3577b34da6a3ce929d0e0e4736"),
            Some(TraceId(0x4bf92f3577b34da6a3ce929d0e0e4736))
        );
        for bad in [
            "",
            "abc",
            "zzf92f3577b34da6a3ce929d0e0e4736",
            "00000000000000000000000000000000",
            "+4bf92f3577b34da6a3ce929d0e0e473",
        ] {
            assert!(TraceId::parse_hex(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn current_context_nests_and_restores() {
        assert_eq!(current(), None);
        let r = Registry::new();
        let a = TraceContext::root(&r);
        {
            let _g = set_current(a);
            assert_eq!(current(), Some(a));
            let b = a.child(&r);
            {
                let _g2 = set_current(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert_eq!(current(), None);
    }
}
