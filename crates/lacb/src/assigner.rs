//! The broker-matching policy interface.

use platform_sim::{
    AuditReport, DayFeedback, Platform, Request, ResilienceStats, StageBreakdown, StateFault,
};

/// A batched broker-matching policy (the "assignment algorithms" of
/// Sec. VII-A).
///
/// The runner guarantees the call order
/// `begin_day → (assign_batch)* → end_day` for every day of the horizon.
/// Implementations see only algorithm-legal information: the utility
/// matrix, the public broker state (current workloads) and the day-level
/// feedback trials — never the latent capacities (except the explicit
/// [`crate::OracleCapacity`] reference policy).
///
/// `Send` is required so experiment harnesses can run independent
/// policies on worker threads (each against its own `Platform`).
pub trait Assigner: Send {
    /// Display name used in reports (e.g. `"LACB-Opt"`).
    fn name(&self) -> String;

    /// Called after `platform.begin_day()`: estimate capacities, reset
    /// per-day state.
    fn begin_day(&mut self, platform: &Platform, day: usize);

    /// Produce the batch assignment: `result[r]` is the broker id to
    /// serve request `r` of the batch, or `None` to leave it unserved.
    ///
    /// Matching-based policies (KM, AN, LACB) return distinct brokers per
    /// batch; recommendation-style policies (Top-K, RR, CTop-K) may repeat
    /// a broker, because each client picks independently from its own
    /// recommendation list — that collision is precisely what overloads
    /// top brokers.
    fn assign_batch(&mut self, platform: &Platform, requests: &[Request]) -> Vec<Option<usize>>;

    /// End-of-day feedback with the realised trial triples.
    fn end_day(&mut self, platform: &Platform, feedback: &DayFeedback);

    /// Degradation counters, for policies that track them (the
    /// fault-tolerant wrapper [`crate::ResilientAssigner`]). Plain
    /// policies report `None`.
    fn resilience_stats(&self) -> Option<ResilienceStats> {
        None
    }

    /// Drain the runtime invariant-audit report, for policies that
    /// self-audit (see [`crate::audit`]). Plain policies report `None`.
    fn take_audit_report(&mut self) -> Option<AuditReport> {
        None
    }

    /// Repair any audit-quarantined per-broker state in place (the
    /// serving loops call this between batches; no-op for policies
    /// without an auditor).
    fn repair_quarantined_brokers(&mut self) {}

    /// Apply one seeded state-corruption fault (chaos/soak harnesses).
    /// No-op for policies without corruptible learned state.
    fn inject_state_fault(&mut self, _fault: &StateFault) {}

    /// Drain the cumulative sub-stage timing breakdown (bandit scoring,
    /// CBS selection, KM solve), for policies that record one. The
    /// serving loops fold it into `RunMetrics::timings`. Plain policies
    /// report `None`.
    fn take_stage_breakdown(&mut self) -> Option<StageBreakdown> {
        None
    }
}

/// Forward every [`Assigner`] method through a pointer to a policy.
macro_rules! forward_assigner {
    ($($header:tt)*) => {
        $($header)* {
            fn name(&self) -> String {
                (**self).name()
            }
            fn begin_day(&mut self, platform: &Platform, day: usize) {
                (**self).begin_day(platform, day);
            }
            fn assign_batch(
                &mut self,
                platform: &Platform,
                requests: &[Request],
            ) -> Vec<Option<usize>> {
                (**self).assign_batch(platform, requests)
            }
            fn end_day(&mut self, platform: &Platform, feedback: &DayFeedback) {
                (**self).end_day(platform, feedback);
            }
            fn resilience_stats(&self) -> Option<ResilienceStats> {
                (**self).resilience_stats()
            }
            fn take_audit_report(&mut self) -> Option<AuditReport> {
                (**self).take_audit_report()
            }
            fn repair_quarantined_brokers(&mut self) {
                (**self).repair_quarantined_brokers();
            }
            fn inject_state_fault(&mut self, fault: &StateFault) {
                (**self).inject_state_fault(fault);
            }
            fn take_stage_breakdown(&mut self) -> Option<StageBreakdown> {
                (**self).take_stage_breakdown()
            }
        }
    };
}

// Boxed policies are policies too, so dynamic callers (the CLI) can
// wrap any algorithm in [`crate::ResilientAssigner`]; borrowed ones let
// the serving core drive a policy its caller keeps.
forward_assigner!(impl Assigner for Box<dyn Assigner>);
forward_assigner!(impl<T: Assigner + ?Sized> Assigner for &mut T);

/// Assert the matching property (each broker at most once per batch);
/// used by the runner in debug builds and by tests.
pub fn assert_is_matching(assignment: &[Option<usize>]) {
    let mut seen = std::collections::HashSet::new();
    for b in assignment.iter().flatten() {
        assert!(seen.insert(*b), "broker {b} assigned twice in one batch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_assertion_accepts_distinct() {
        assert_is_matching(&[Some(1), None, Some(2)]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn matching_assertion_rejects_duplicates() {
        assert_is_matching(&[Some(1), Some(1)]);
    }
}
