//! Named fault profiles: deterministic, seeded schedules of per-entity
//! failure/stall-rate changes over virtual time.
//!
//! Production HPC monitors treat flaky node agents as the normal case, not
//! the exception: §III-B1 measures 4.29 s mean BMC requests with stalls and
//! drops against a 60 s cadence. A profile turns that qualitative statement
//! into a replayable schedule — given (profile, seed, entity index, tick) it
//! returns the fault rates in force, so a chaos run is exactly reproducible
//! across machines and across the CI matrix.
//!
//! Profiles are generic over "entities" (the Redfish layer maps them to
//! nodes) and "ticks" (the collector maps them to sweeps), so this module
//! stays free of any fleet-specific types.

use crate::rng::SimRng;

/// Racks a fleet is partitioned into for rack-granular profiles.
pub const RACKS: usize = 8;

/// The fault rates in force for one entity at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a request is refused outright, per attempt.
    pub failure_rate: f64,
    /// Probability a request stalls past the read timeout, per attempt.
    pub stall_rate: f64,
    /// The entity is entirely unreachable (powered off / crashed BMC).
    pub dead: bool,
}

impl FaultSpec {
    /// No faults injected.
    pub const NONE: FaultSpec = FaultSpec { failure_rate: 0.0, stall_rate: 0.0, dead: false };

    /// True when this spec perturbs the entity at all.
    pub fn is_faulty(&self) -> bool {
        self.dead || self.failure_rate > 0.0 || self.stall_rate > 0.0
    }
}

/// A named, seeded fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults, ever — the control cell.
    Calm,
    /// A seeded ~15% of entities stall heavily (the long-tail iDRACs the
    /// paper's retry machinery exists for); everyone else is clean.
    FlakyTail,
    /// A brownout window rolls across racks 0..6 every few ticks: the rack
    /// under the window refuses and stalls, then recovers as the window
    /// moves on. Racks 6 and 7 are never touched.
    RollingBrownout,
    /// One seeded rack is entirely dead (unreachable BMCs) for the active
    /// phase.
    DeadRack,
}

impl FaultProfile {
    /// Every profile, in matrix order.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::Calm,
        FaultProfile::FlakyTail,
        FaultProfile::RollingBrownout,
        FaultProfile::DeadRack,
    ];

    /// The profile's name in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultProfile::Calm => "calm",
            FaultProfile::FlakyTail => "flaky-tail",
            FaultProfile::RollingBrownout => "rolling-brownout",
            FaultProfile::DeadRack => "dead-rack",
        }
    }

    /// Which rack an entity lives in (`RACKS` equal slices in index order).
    pub fn rack_of(entity: usize, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        (entity * RACKS / total).min(RACKS - 1)
    }

    /// The fault spec for `entity` (of `total`) at `tick`, while the
    /// profile is active for `active_ticks` ticks. From `active_ticks`
    /// onward every profile is clear — the recovery phase chaos runs use to
    /// assert that breakers close and staleness drains.
    ///
    /// Deterministic: depends only on (profile, seed, entity, total, tick).
    pub fn spec(
        &self,
        seed: u64,
        entity: usize,
        total: usize,
        tick: u64,
        active_ticks: u64,
    ) -> FaultSpec {
        if tick >= active_ticks {
            return FaultSpec::NONE;
        }
        match self {
            FaultProfile::Calm => FaultSpec::NONE,
            FaultProfile::FlakyTail => {
                let mut rng = SimRng::derive(seed, &format!("fault/flaky-tail/{entity}"));
                if rng.chance(0.15) {
                    FaultSpec { failure_rate: 0.10, stall_rate: 0.85, dead: false }
                } else {
                    FaultSpec::NONE
                }
            }
            FaultProfile::RollingBrownout => {
                // The window advances one rack every 3 ticks and never
                // reaches racks 6-7, so part of the fleet stays healthy.
                let window = (tick / 3) as usize % (RACKS - 2);
                if Self::rack_of(entity, total) == window {
                    FaultSpec { failure_rate: 0.60, stall_rate: 0.30, dead: false }
                } else {
                    FaultSpec::NONE
                }
            }
            FaultProfile::DeadRack => {
                let mut rng = SimRng::derive(seed, "fault/dead-rack");
                let victim = rng.below(RACKS);
                if Self::rack_of(entity, total) == victim {
                    FaultSpec { failure_rate: 0.0, stall_rate: 0.0, dead: true }
                } else {
                    FaultSpec::NONE
                }
            }
        }
    }

    /// Entities this profile ever perturbs over `[0, active_ticks)` — the
    /// complement is the "healthy set" chaos invariants are checked
    /// against.
    pub fn perturbed(&self, seed: u64, total: usize, active_ticks: u64) -> Vec<usize> {
        let mut out = Vec::new();
        for entity in 0..total {
            let touched = (0..active_ticks)
                .any(|t| self.spec(seed, entity, total, t, active_ticks).is_faulty());
            if touched {
                out.push(entity);
            }
        }
        out
    }

    /// Entities this profile kills outright (dead BMCs, not merely flaky)
    /// at any point in `[0, active_ticks)` — the set an alert engine must
    /// flag unreachable, with exactly one critical each.
    pub fn dead_entities(&self, seed: u64, total: usize, active_ticks: u64) -> Vec<usize> {
        (0..total)
            .filter(|&entity| {
                (0..active_ticks).any(|t| self.spec(seed, entity, total, t, active_ticks).dead)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_never_perturbs() {
        assert!(FaultProfile::Calm.perturbed(1, 64, 100).is_empty());
    }

    #[test]
    fn dead_entities_is_exactly_the_dead_rack() {
        // Only dead-rack kills; the flaky/brownout profiles perturb
        // without killing, so their dead set is empty.
        assert!(FaultProfile::FlakyTail.dead_entities(1, 96, 10).is_empty());
        assert!(FaultProfile::RollingBrownout.dead_entities(1, 96, 10).is_empty());
        let dead = FaultProfile::DeadRack.dead_entities(5, 96, 10);
        assert_eq!(dead.len(), 96 / RACKS);
        assert_eq!(
            dead,
            (0..96)
                .filter(|&e| FaultProfile::DeadRack.spec(5, e, 96, 0, 10).dead)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn profiles_clear_after_active_phase() {
        for p in FaultProfile::ALL {
            for e in 0..32 {
                assert_eq!(p.spec(7, e, 32, 20, 20), FaultSpec::NONE, "{} entity {e}", p.name());
            }
        }
    }

    #[test]
    fn flaky_tail_is_seeded_and_partial() {
        let a = FaultProfile::FlakyTail.perturbed(1, 96, 10);
        let b = FaultProfile::FlakyTail.perturbed(1, 96, 10);
        assert_eq!(a, b, "not deterministic");
        assert!(!a.is_empty(), "no tail selected");
        assert!(a.len() < 40, "tail too large: {}", a.len());
        let c = FaultProfile::FlakyTail.perturbed(2, 96, 10);
        assert_ne!(a, c, "seed has no effect");
    }

    #[test]
    fn rolling_brownout_moves_and_spares_last_racks() {
        let p = FaultProfile::RollingBrownout;
        let total = 96;
        // The perturbed set at tick 0 differs from tick 3 (window moved).
        let at = |tick| -> Vec<usize> {
            (0..total).filter(|&e| p.spec(3, e, total, tick, 60).is_faulty()).collect()
        };
        assert_ne!(at(0), at(3));
        // Racks 6 and 7 never see the window.
        let perturbed = p.perturbed(3, total, 60);
        for &e in &perturbed {
            assert!(FaultProfile::rack_of(e, total) < RACKS - 2);
        }
        assert!(!perturbed.is_empty());
    }

    #[test]
    fn dead_rack_kills_exactly_one_rack() {
        let p = FaultProfile::DeadRack;
        let total = 96;
        let dead: Vec<usize> = (0..total).filter(|&e| p.spec(5, e, total, 0, 10).dead).collect();
        assert_eq!(dead.len(), total / RACKS);
        let racks: std::collections::HashSet<usize> =
            dead.iter().map(|&e| FaultProfile::rack_of(e, total)).collect();
        assert_eq!(racks.len(), 1);
    }
}
