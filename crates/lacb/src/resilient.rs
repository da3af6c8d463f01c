//! Fault-tolerant serving: the degradation ladder and the lossy
//! feedback channel.
//!
//! [`ResilientAssigner`] wraps any [`Assigner`] and guarantees that every
//! batch yields a full, executable assignment even when the primary
//! algorithm panics, blows its time budget, or returns garbage (a routed
//! offline broker, a duplicate, a wrong-length vector). The ladder is
//!
//! 1. **Primary** (e.g. LACB-Opt) — run under `catch_unwind` with a
//!    per-batch deadline; its output is validated before use.
//! 2. **Greedy matching** — on the sanitised, online-brokers-only
//!    utility matrix. Half-optimal in the worst case but panic-free and
//!    `O(nm log nm)`.
//! 3. **Capacity-aware Top-k patching** — any request still unassigned
//!    (more requests than online brokers, or an all-stages wipeout short
//!    of total outage) is routed to the least-loaded of its top-k
//!    brokers by utility. Repeats are allowed, exactly like the
//!    recommendation-style baselines, so a batch is fully served
//!    whenever at least one broker is reachable.
//!
//! End-of-day feedback flows through a lossy channel model: delivery is
//! retried with exponential backoff while the seeded fault schedule
//! keeps failing it; feedback marked *delayed* is queued and merged into
//! the next day's delivery; a day lost after all retries degrades to an
//! empty [`DayFeedback`] so the learner's day counters still advance.
//!
//! Every degradation event is counted in [`ResilienceStats`] and
//! surfaced through [`RunMetrics::resilience`] by [`run_chaos`].

use crate::assigner::Assigner;
use crate::runner::RunConfig;
use crate::serving::Engine;
use matching::greedy::greedy_assignment;
use matching::hungarian::sanitize_utilities;
use matching::UtilityMatrix;
use platform_sim::{
    AuditReport, Dataset, DayFeedback, FaultPlan, Platform, Request, ResilienceStats, RunMetrics,
    StateFault,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Knobs of the degradation ladder.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Per-batch time budget for the primary algorithm; exceeding it
    /// falls back to greedy. `None` disables the deadline.
    pub batch_deadline: Option<Duration>,
    /// Retries of a lost end-of-day feedback delivery before the day is
    /// declared lost.
    pub max_feedback_retries: usize,
    /// Base of the exponential backoff between feedback retries
    /// (`base · 2^attempt`). Zero — the default — skips the real sleep
    /// so simulations and tests stay fast; the retry *count* is still
    /// tracked.
    pub backoff_base: Duration,
    /// Ceiling on a single backoff sleep. Exponential growth stops
    /// here, so a generous retry count cannot escalate into
    /// multi-minute stalls.
    pub backoff_cap: Duration,
    /// Total sleep budget across all retries of one day's delivery.
    /// Once exhausted, remaining retries proceed without sleeping (the
    /// day is then lost or delivered on the fault schedule's terms, but
    /// the serving loop never blocks past the deadline).
    pub retry_deadline: Duration,
    /// How many top-utility brokers the patcher weighs by load.
    pub patch_top_k: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            batch_deadline: None,
            max_feedback_retries: 4,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(5),
            retry_deadline: Duration::from_secs(30),
            patch_top_k: 5,
        }
    }
}

/// Sleep duration for the `attempt`-th retry (0-based): exponential in
/// the attempt, saturating, clamped to `cap`, and truncated to what is
/// left of `budget`. Pure so the bounds are unit-testable without
/// sleeping.
fn backoff_delay(base: Duration, cap: Duration, budget: Duration, attempt: usize) -> Duration {
    if base.is_zero() || budget.is_zero() {
        return Duration::ZERO;
    }
    // 2^10·base already exceeds any sane cap; saturating beyond that
    // guards pathological configs rather than real schedules.
    let exp = u32::try_from(attempt.min(10)).expect("capped at 10");
    let raw = base.saturating_mul(1u32 << exp);
    raw.min(cap).min(budget)
}

/// A fault-tolerant wrapper around any assignment policy. See the
/// module docs for the ladder. Generic over the primary so callers that
/// need typed access (the checkpoint layer wraps `Lacb` concretely) keep
/// it; dynamic users can wrap a `Box<dyn Assigner>`.
pub struct ResilientAssigner<A: Assigner> {
    primary: A,
    cfg: ResilienceConfig,
    stats: ResilienceStats,
    /// Feedback marked delayed by the fault schedule, queued for the
    /// next day's delivery.
    pending_feedback: Option<DayFeedback>,
    /// Current day (set in `begin_day`; `end_day` runs after the
    /// platform has already advanced its own day counter).
    day: usize,
    /// Sanitised utility matrix, reused across degraded batches.
    clean_buf: UtilityMatrix,
    /// Online-columns sub-matrix for the greedy rung, reused likewise.
    sub_buf: UtilityMatrix,
    /// Per-request broker ranking scratch for the top-k patcher.
    ranked_buf: Vec<usize>,
    /// Intra-batch load counters for the top-k patcher.
    load_buf: Vec<u32>,
}

impl<A: Assigner> ResilientAssigner<A> {
    pub fn new(primary: A, cfg: ResilienceConfig) -> Self {
        Self {
            primary,
            cfg,
            stats: ResilienceStats::default(),
            pending_feedback: None,
            day: 0,
            clean_buf: UtilityMatrix::zeros(0, 0),
            sub_buf: UtilityMatrix::zeros(0, 0),
            ranked_buf: Vec::new(),
            load_buf: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn primary(&self) -> &A {
        &self.primary
    }

    /// Mutable access to the wrapped policy — the overload controller
    /// uses it to set brownout match modes and read work proxies.
    pub fn primary_mut(&mut self) -> &mut A {
        &mut self.primary
    }

    /// Degradation counters accumulated so far.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Feedback queued for next-day delivery (delayed by the channel).
    pub fn pending_feedback(&self) -> Option<&DayFeedback> {
        self.pending_feedback.as_ref()
    }

    /// Restore channel state (checkpoint restore).
    pub fn restore_channel(&mut self, pending: Option<DayFeedback>, stats: ResilienceStats) {
        self.pending_feedback = pending;
        self.stats = stats;
    }

    /// Check the primary's output is executable: right length, in-range
    /// distinct brokers, and nothing routed to an offline broker.
    fn validate(assignment: &[Option<usize>], requests: usize, platform: &Platform) -> bool {
        if assignment.len() != requests {
            return false;
        }
        let mut used = vec![false; platform.num_brokers()];
        for b in assignment.iter().flatten() {
            if *b >= platform.num_brokers() || !platform.broker_online(*b) || used[*b] {
                return false;
            }
            used[*b] = true;
        }
        true
    }

    /// Refill the sanitised algorithm-visible utility matrix buffer,
    /// with the sanitisation count folded into the stats. The buffer is
    /// reused across batches — a degraded batch costs no allocation.
    fn clean_matrix(&mut self, platform: &Platform, requests: &[Request]) {
        platform.utility_matrix_into(requests, &mut self.clean_buf);
        self.stats.utilities_sanitized += sanitize_utilities(&mut self.clean_buf) as u64;
    }

    /// Ladder stage 2: greedy matching restricted to online brokers.
    fn greedy_fallback(
        &mut self,
        platform: &Platform,
        requests: &[Request],
        online: &[usize],
    ) -> Vec<Option<usize>> {
        self.stats.greedy_fallbacks += 1;
        if online.is_empty() {
            return vec![None; requests.len()];
        }
        self.clean_matrix(platform, requests);
        self.sub_buf.select_columns_from(&self.clean_buf, online);
        let g = greedy_assignment(&self.sub_buf, f64::NEG_INFINITY);
        g.row_to_col.iter().map(|slot| slot.map(|j| online[j])).collect()
    }

    /// Ladder stage 3: route every still-unassigned request to the
    /// least-loaded of its `patch_top_k` best online brokers. Repeats
    /// are allowed (recommendation semantics), so this always succeeds
    /// unless *every* broker is offline.
    fn patch_unassigned(
        &mut self,
        platform: &Platform,
        requests: &[Request],
        online: &[usize],
        assignment: &mut [Option<usize>],
    ) {
        if online.is_empty() || assignment.iter().all(|a| a.is_some()) {
            return;
        }
        self.clean_matrix(platform, requests);
        let m = &self.clean_buf;
        self.load_buf.clear();
        self.load_buf.resize(platform.num_brokers(), 0);
        for b in assignment.iter().flatten() {
            self.load_buf[*b] += 1;
        }
        self.ranked_buf.clear();
        self.ranked_buf.extend_from_slice(online);
        let ranked = &mut self.ranked_buf;
        for (r, slot) in assignment.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            ranked.sort_by(|&a, &b| m.get(r, b).total_cmp(&m.get(r, a)).then(a.cmp(&b)));
            let top = &ranked[..ranked.len().min(self.cfg.patch_top_k.max(1))];
            let best = top
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let la = platform.workload_today(a) + f64::from(self.load_buf[a]);
                    let lb = platform.workload_today(b) + f64::from(self.load_buf[b]);
                    la.total_cmp(&lb).then(a.cmp(&b))
                })
                .expect("top slice is non-empty");
            *slot = Some(best);
            self.load_buf[best] += 1;
            self.stats.topk_patches += 1;
        }
    }

    /// Deliver end-of-day feedback through the lossy channel: merge any
    /// queued delayed day, retry a lost delivery with exponential
    /// backoff, and degrade to an empty feedback if the day stays lost.
    /// Without a fault schedule the channel is perfect.
    fn channel_deliver(&mut self, plan: Option<&FaultPlan>, feedback: &DayFeedback) -> DayFeedback {
        let mut merged = self.pending_feedback.take().unwrap_or_default();
        let delivered = match plan {
            None => true,
            Some(plan) if plan.feedback_delayed(self.day) => {
                self.stats.feedback_delayed_days += 1;
                self.pending_feedback = Some(feedback.clone());
                return merged;
            }
            Some(plan) => {
                let mut attempt = 0usize;
                let mut budget = self.cfg.retry_deadline;
                let mut delivered = !plan.feedback_lost(self.day, attempt);
                while !delivered && attempt < self.cfg.max_feedback_retries {
                    let (base, cap) = (self.cfg.backoff_base, self.cfg.backoff_cap);
                    let delay = backoff_delay(base, cap, budget, attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                        budget -= delay;
                    }
                    attempt += 1;
                    self.stats.feedback_retries += 1;
                    delivered = !plan.feedback_lost(self.day, attempt);
                }
                delivered
            }
        };
        if delivered {
            merged.trials.extend(feedback.trials.iter().cloned());
            merged.realized += feedback.realized;
        } else {
            self.stats.feedback_lost_days += 1;
        }
        merged
    }
}

impl<A: Assigner> Assigner for ResilientAssigner<A> {
    fn name(&self) -> String {
        format!("Resilient({})", self.primary.name())
    }

    fn begin_day(&mut self, platform: &Platform, day: usize) {
        self.day = day;
        if catch_unwind(AssertUnwindSafe(|| self.primary.begin_day(platform, day))).is_err() {
            self.stats.primary_panics += 1;
        }
    }

    fn assign_batch(&mut self, platform: &Platform, requests: &[Request]) -> Vec<Option<usize>> {
        let online = platform.online_brokers();
        let t0 = Instant::now();
        let primary =
            catch_unwind(AssertUnwindSafe(|| self.primary.assign_batch(platform, requests)));
        let validated = match primary {
            Err(_) => {
                self.stats.primary_panics += 1;
                None
            }
            Ok(a) => {
                if self.cfg.batch_deadline.is_some_and(|d| t0.elapsed() > d) {
                    self.stats.primary_timeouts += 1;
                    None
                } else if Self::validate(&a, requests.len(), platform) {
                    Some(a)
                } else {
                    self.stats.invalid_primary_outputs += 1;
                    None
                }
            }
        };
        let mut assignment = match validated {
            Some(a) => a,
            None => self.greedy_fallback(platform, requests, &online),
        };
        self.patch_unassigned(platform, requests, &online, &mut assignment);
        assignment
    }

    fn end_day(&mut self, platform: &Platform, feedback: &DayFeedback) {
        let delivered = self.channel_deliver(platform.fault_plan(), feedback);
        if catch_unwind(AssertUnwindSafe(|| self.primary.end_day(platform, &delivered))).is_err() {
            self.stats.primary_panics += 1;
        }
    }

    fn resilience_stats(&self) -> Option<ResilienceStats> {
        Some(self.stats.clone())
    }

    fn take_audit_report(&mut self) -> Option<AuditReport> {
        self.primary.take_audit_report()
    }

    fn repair_quarantined_brokers(&mut self) {
        self.primary.repair_quarantined_brokers();
    }

    fn inject_state_fault(&mut self, fault: &StateFault) {
        self.primary.inject_state_fault(fault);
    }

    fn take_stage_breakdown(&mut self) -> Option<platform_sim::StageBreakdown> {
        self.primary.take_stage_breakdown()
    }
}

/// Run one algorithm over one dataset under a seeded fault schedule:
/// batch spikes are applied to the dataset, outages and corruption to
/// the platform, and the ledger tracks what actually got served.
/// [`RunMetrics::resilience`] carries the degradation counters (the
/// wrapper's when `assigner` is a [`ResilientAssigner`], plus the count
/// of requests that failed on offline brokers for any policy).
pub fn run_chaos(
    dataset: &Dataset,
    assigner: &mut dyn Assigner,
    cfg: &RunConfig,
    plan: FaultPlan,
) -> RunMetrics {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut engine = Engine::new(&spiked, Some(plan), assigner).max_days(cfg.max_days);
    engine.run_to_end();
    engine.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lacb::{Lacb, LacbConfig};
    use crate::runner::run;
    use platform_sim::{FaultConfig, SyntheticConfig};

    #[test]
    fn backoff_grows_then_hits_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let budget = Duration::from_secs(60);
        assert_eq!(backoff_delay(base, cap, budget, 0), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, cap, budget, 1), Duration::from_millis(20));
        assert_eq!(backoff_delay(base, cap, budget, 3), Duration::from_millis(80));
        // From attempt 4 on, the cap wins — growth stops.
        assert_eq!(backoff_delay(base, cap, budget, 4), cap);
        assert_eq!(backoff_delay(base, cap, budget, 63), cap);
        assert_eq!(backoff_delay(base, cap, budget, usize::MAX), cap);
    }

    #[test]
    fn backoff_never_exceeds_the_remaining_budget() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(5);
        let budget = Duration::from_millis(25);
        assert_eq!(backoff_delay(base, cap, budget, 2), Duration::from_millis(25));
        assert_eq!(backoff_delay(base, cap, Duration::ZERO, 2), Duration::ZERO);
    }

    #[test]
    fn backoff_saturates_on_pathological_bases() {
        // A huge base times 2^10 must saturate, not panic or wrap.
        let d = backoff_delay(Duration::MAX, Duration::from_secs(1), Duration::from_secs(9), 40);
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn zero_base_disables_sleeping_entirely() {
        for attempt in 0..20 {
            assert_eq!(
                backoff_delay(
                    Duration::ZERO,
                    Duration::from_secs(5),
                    Duration::from_secs(30),
                    attempt
                ),
                Duration::ZERO
            );
        }
    }

    fn dataset(seed: u64) -> Dataset {
        Dataset::synthetic(&SyntheticConfig {
            num_brokers: 30,
            num_requests: 900,
            days: 3,
            imbalance: 0.2,
            seed,
        })
    }

    /// A policy that panics on every third batch and otherwise routes
    /// everything to broker 0 (a matching violation half the time).
    struct Flaky {
        calls: usize,
    }

    impl Assigner for Flaky {
        fn name(&self) -> String {
            "Flaky".into()
        }
        fn begin_day(&mut self, _: &Platform, _: usize) {}
        fn assign_batch(&mut self, _: &Platform, requests: &[Request]) -> Vec<Option<usize>> {
            self.calls += 1;
            match self.calls % 3 {
                0 => panic!("flaky policy crashed"),
                1 => vec![Some(0); requests.len()],
                _ => vec![None; requests.len().saturating_sub(1)],
            }
        }
        fn end_day(&mut self, _: &Platform, _: &DayFeedback) {}
    }

    #[test]
    fn ladder_absorbs_panics_and_invalid_outputs() {
        let ds = dataset(91);
        let mut r = ResilientAssigner::new(Flaky { calls: 0 }, Default::default());
        let plan = FaultPlan::new(FaultConfig::scenario("none", 1).unwrap());
        let m = run_chaos(&ds, &mut r, &RunConfig::default(), plan);
        let stats = m.resilience.as_ref().unwrap();
        assert!(stats.primary_panics > 0, "panics must be caught and counted");
        assert!(stats.invalid_primary_outputs > 0, "bad outputs must be rejected");
        assert!(stats.greedy_fallbacks > 0);
        // Every request of every batch got served (no offline brokers).
        let served: f64 = m.ledger.per_broker_served().iter().sum();
        assert_eq!(served as usize, ds.total_requests());
    }

    #[test]
    fn resilient_lacb_survives_combined_chaos_and_serves_everything() {
        let ds = dataset(93);
        let plan =
            FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", 7).unwrap());
        let mut r = ResilientAssigner::new(Lacb::new(LacbConfig::default()), Default::default());
        let m = run_chaos(&ds, &mut r, &RunConfig::default(), plan);
        let stats = m.resilience.as_ref().unwrap();
        // The wrapper routes around offline brokers, so nothing fails.
        assert_eq!(stats.requests_failed, 0, "resilient run must not hit offline brokers");
        let served: f64 = m.ledger.per_broker_served().iter().sum();
        assert_eq!(served as usize, ds.total_requests());
        assert!(m.total_utility > 0.0);
    }

    #[test]
    fn plain_lacb_under_dropout_fails_requests_resilient_does_not() {
        let ds = dataset(95);
        let plan = FaultPlan::new(FaultConfig::scenario("broker-dropout", 11).unwrap());
        let mut plain = Lacb::new(LacbConfig::default());
        let mp = run_chaos(&ds, &mut plain, &RunConfig::default(), plan);
        assert!(
            mp.resilience.as_ref().unwrap().requests_failed > 0,
            "an outage-blind policy should lose requests to offline brokers"
        );
        let mut res = ResilientAssigner::new(Lacb::new(LacbConfig::default()), Default::default());
        let mr = run_chaos(&ds, &mut res, &RunConfig::default(), plan);
        assert_eq!(mr.resilience.as_ref().unwrap().requests_failed, 0);
    }

    #[test]
    fn utility_retention_under_combined_chaos_is_at_least_70_percent() {
        // The acceptance bar: resilient LACB under broker-dropout +
        // lost-feedback retains ≥70% of the fault-free utility.
        let ds = dataset(67);
        let fault_free = run(&ds, &mut Lacb::new(LacbConfig::default()), &RunConfig::default());
        let plan =
            FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", 3).unwrap());
        let mut r = ResilientAssigner::new(Lacb::new(LacbConfig::default()), Default::default());
        let chaos = run_chaos(&ds, &mut r, &RunConfig::default(), plan);
        let retention = chaos.total_utility / fault_free.total_utility;
        assert!(retention >= 0.70, "retained only {:.1}% of fault-free utility", retention * 100.0);
    }

    #[test]
    fn feedback_channel_counts_losses_and_delays() {
        let ds = dataset(97);
        let plan = FaultPlan::new(FaultConfig::scenario("lost-feedback", 5).unwrap());
        let mut r = ResilientAssigner::new(Lacb::new(LacbConfig::default()), Default::default());
        let m = run_chaos(&ds, &mut r, &RunConfig::default(), plan);
        let stats = m.resilience.as_ref().unwrap();
        assert!(
            stats.feedback_retries + stats.feedback_lost_days + stats.feedback_delayed_days > 0,
            "a 35%-loss/20%-delay channel over 3 days should register events: {stats:?}"
        );
        assert!(stats.degradation_events() > 0);
    }

    #[test]
    fn deadline_zero_forces_greedy_every_batch() {
        let ds = dataset(99);
        let cfg = ResilienceConfig { batch_deadline: Some(Duration::ZERO), ..Default::default() };
        let mut r = ResilientAssigner::new(Lacb::new(LacbConfig::default()), cfg);
        let plan = FaultPlan::new(FaultConfig::scenario("none", 1).unwrap());
        let m = run_chaos(&ds, &mut r, &RunConfig::default(), plan);
        let stats = m.resilience.as_ref().unwrap();
        let batches: usize = ds.days.iter().map(|d| d.len()).sum();
        assert_eq!(stats.primary_timeouts, batches as u64);
        assert_eq!(stats.greedy_fallbacks, batches as u64);
        let served: f64 = m.ledger.per_broker_served().iter().sum();
        assert_eq!(served as usize, ds.total_requests());
    }

    #[test]
    fn batch_spikes_preserve_request_totals() {
        let ds = dataset(101);
        let plan = FaultPlan::new(FaultConfig::scenario("batch-spike", 13).unwrap());
        let spiked = ds.with_batch_spikes(&plan);
        assert_eq!(spiked.total_requests(), ds.total_requests());
        let merged_days = spiked.days.iter().zip(&ds.days).filter(|(s, o)| s.len() < o.len());
        assert!(merged_days.count() > 0, "a 15% spike rate over 3 days should merge something");
    }
}
