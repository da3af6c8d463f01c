//! The one serving loop: a deterministic pipeline advanced one
//! WAL-record-sized unit at a time.
//!
//! Every serving mode drives the same [`Engine`]: plain experiment runs
//! ([`crate::run`]), chaos runs, checkpoint/resume, overload protection,
//! the durable loop and its recovery, and both ends of a replicated
//! pair. The paper's Alg. 2 loop is three units:
//!
//! * **day start** — the platform opens the day, then the policy's
//!   `begin_day` (capacity estimation);
//! * **batch** — admission control when an [`OverloadState`] is
//!   attached, `assign_batch`, execution against the platform, then the
//!   seeded state fault, the duplicated delivery and quarantine repair;
//! * **day end** — the platform closes the day, then the policy's
//!   `end_day` (the bandit update), the overload controller's day close
//!   and repair.
//!
//! Each unit emits [`WalRecord`]s. A decision record is settled
//! **before** its effect (`Admission` before matching, `Batch` before
//! execution, `DayEnd` before the bandit update): when the head of the
//! replay queue sits at the same position it is a replay and must equal
//! the logged record bit for bit (else a `Divergence`); otherwise it
//! is live and goes to `Hooks::log`. Recovery preloads the WAL tail
//! (`Engine::replay`); a follower pushes each shipped record and steps
//! once (`Engine::verify_apply`). That check is the only replay path.
//!
//! A `Hooks` implementation is what differs between modes: where live
//! records go, crash points, and how quarantined brokers are repaired.
//! Day-boundary work that needs the whole pipeline (checkpoints, WAL
//! pruning, kill points) runs in the driver between units.

use crate::assigner::Assigner;
use crate::checkpoint::{Checkpoint, CheckpointError, RunProgress};
use crate::lacb::{Lacb, LacbConfig};
use crate::overload::{OverloadConfig, OverloadState};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use durability::WalRecord;
use platform_sim::{
    BrokerLedger, Dataset, FaultPlan, Platform, Request, ResilienceStats, RunMetrics, StageTimings,
};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::mem::discriminant;
use std::time::Instant;

/// The next serving unit a pipeline will execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unit {
    DayStart(usize),
    Batch(usize, usize),
    DayEnd(usize),
    Done,
}

/// What became of a record the pipeline emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Logged {
    /// Kept nowhere: the mode keeps no log, or has latched it off.
    Memory,
    /// Appended to a write-ahead log on disk.
    Disk,
    /// Held in the degraded-mode replay buffer of a failing disk.
    Buffered,
    /// Matched a record already in the log (recovery or follower replay).
    Replayed,
}

/// A recomputed record disagrees with the logged one at its position.
#[derive(Clone, Debug)]
pub(crate) struct Divergence {
    pub day: usize,
    pub batch: Option<usize>,
    pub detail: String,
}

/// What a serving mode adds around `Engine::step`.
pub(crate) trait Hooks<A: Assigner + ?Sized> {
    type Error: From<Divergence>;

    /// A live record, called before the pipeline applies it.
    fn log(&mut self, _rec: &WalRecord) -> Result<Logged, Self::Error> {
        Ok(Logged::Memory)
    }

    /// A batch tick begins.
    fn tick(&mut self) {}

    /// Batch `(day, batch)` was executed against the platform;
    /// `replayed` when its record came from the log.
    fn executed(&mut self, _day: usize, _batch: usize, _replayed: bool) {}

    /// Repair audit-quarantined broker state (after every batch and
    /// every day end). The default re-initialises it.
    fn repair(&mut self, assigner: &mut A, _day: usize) {
        assigner.repair_quarantined_brokers();
    }
}

/// The hooks of a run that keeps no log.
pub(crate) struct InMemory;

impl<A: Assigner + ?Sized> Hooks<A> for InMemory {
    type Error = Divergence;
}

/// A policy the engine can drive.
pub trait Policy: Assigner {
    /// The LACB matcher that admission control prices and degrades
    /// through; only policies with one can serve under overload control.
    fn lacb_mut(&mut self) -> Option<&mut Lacb> {
        None
    }
}

impl<T: Assigner + ?Sized> Policy for &mut T {}

impl Policy for ResilientAssigner<Lacb> {
    fn lacb_mut(&mut self) -> Option<&mut Lacb> {
        Some(self.primary_mut())
    }
}

fn lacb<A: Policy>(assigner: &mut A) -> &mut Lacb {
    assigner.lacb_mut().expect("admission control prices through the LACB matcher")
}

/// A counter of the policy's degradation stats (0 without any).
fn count(assigner: &impl Assigner, counter: fn(&ResilienceStats) -> u64) -> u64 {
    assigner.resilience_stats().as_ref().map_or(0, counter)
}

fn batch_of(rec: &WalRecord) -> Option<usize> {
    match rec {
        WalRecord::Batch { batch, .. } | WalRecord::Admission { batch, .. } => Some(*batch),
        _ => None,
    }
}

/// One deterministic serving pipeline: platform, policy, ledger, run
/// accumulators and the optional overload controller.
pub struct Engine<'d, A> {
    dataset: &'d Dataset,
    horizon: usize,
    plan: Option<FaultPlan>,
    pub(crate) platform: Platform,
    pub(crate) assigner: A,
    pub(crate) ledger: BrokerLedger,
    pub(crate) progress: RunProgress,
    pub(crate) overload: Option<OverloadState>,
    replay: VecDeque<WalRecord>,
    /// Batch records verified against logged ones so far.
    pub(crate) replayed_batches: usize,
    next_batch: usize,
    day_open: bool,
    timings: StageTimings,
    pool_before: pool::PoolStats,
}

impl<'d, A: Policy> Engine<'d, A> {
    /// A fresh pipeline over `dataset`. With a `plan`, outages and
    /// corruption hit the platform and state faults and duplicated
    /// deliveries hit the policy; batch spikes must already be applied
    /// to `dataset` (see [`Dataset::with_batch_spikes`]).
    pub(crate) fn new(dataset: &'d Dataset, plan: Option<FaultPlan>, assigner: A) -> Self {
        let mut platform = Platform::from_dataset(dataset);
        if let Some(plan) = plan {
            platform.enable_faults(plan);
        }
        Engine {
            dataset,
            horizon: dataset.days.len(),
            plan,
            ledger: BrokerLedger::new(platform.num_brokers()),
            platform,
            assigner,
            progress: RunProgress::default(),
            overload: None,
            replay: VecDeque::new(),
            replayed_batches: 0,
            next_batch: 0,
            day_open: false,
            timings: StageTimings::default(),
            pool_before: pool::stats(),
        }
    }

    /// Stop after `max_days` days (`None` = the whole dataset).
    pub fn max_days(mut self, max_days: Option<usize>) -> Self {
        if let Some(days) = max_days {
            self.horizon = days.min(self.dataset.days.len());
        }
        self
    }

    /// Put admission control, shedding, breakers and brownout in front
    /// of the matcher.
    pub fn with_overload(mut self, overload: OverloadState) -> Self {
        self.overload = Some(overload);
        self
    }

    /// `(next day, next batch)` of the pipeline.
    pub(crate) fn position(&self) -> (usize, usize) {
        (self.progress.next_day, self.next_batch)
    }

    /// Queue logged records for recompute-and-verify replay: every
    /// record the pipeline emits at a queued record's position must
    /// equal it.
    pub(crate) fn replay(&mut self, records: impl IntoIterator<Item = WalRecord>) {
        self.replay.extend(records);
    }

    pub(crate) fn peek(&self) -> Unit {
        let d = self.progress.next_day;
        if !self.day_open {
            return if d < self.horizon { Unit::DayStart(d) } else { Unit::Done };
        }
        if self.next_batch < self.dataset.days[d].len() {
            Unit::Batch(d, self.next_batch)
        } else {
            Unit::DayEnd(d)
        }
    }

    /// Execute the next unit and return it ([`Unit::Done`] once the
    /// horizon is complete).
    pub(crate) fn step<H: Hooks<A>>(&mut self, hooks: &mut H) -> Result<Unit, H::Error> {
        let unit = self.peek();
        match unit {
            Unit::Done => {}
            Unit::DayStart(d) => {
                self.platform.begin_day();
                let t = Instant::now();
                self.assigner.begin_day(&self.platform, d);
                let secs = t.elapsed().as_secs_f64();
                self.timings.begin_day_secs.push(secs);
                self.progress.elapsed_secs += secs;
                self.settle(hooks, &WalRecord::DayStart { day: d })?;
                self.day_open = true;
                self.next_batch = 0;
            }
            Unit::Batch(d, b) => self.batch(hooks, d, b)?,
            Unit::DayEnd(d) => {
                let feedback = self.platform.end_day();
                let rec = WalRecord::DayEnd {
                    day: d,
                    realized_bits: feedback.realized.to_bits(),
                    trials: feedback.trials.len(),
                    draws: self.platform.appeal_draws(),
                };
                self.settle(hooks, &rec)?;
                let t = Instant::now();
                let failures = count(&self.assigner, ResilienceStats::channel_failures);
                self.assigner.end_day(&self.platform, &feedback);
                if let Some(ov) = self.overload.as_mut() {
                    ov.observe_feedback(
                        count(&self.assigner, ResilienceStats::channel_failures) > failures,
                    );
                    ov.end_day();
                }
                let secs = t.elapsed().as_secs_f64();
                self.timings.end_day_secs.push(secs);
                self.progress.elapsed_secs += secs;
                // Deep-audit quarantines must not cross the day boundary
                // (nor reach the boundary's checkpoint).
                hooks.repair(&mut self.assigner, d);
                self.ledger.end_day(feedback.realized);
                self.progress.daily_utility.push(feedback.realized);
                self.progress.daily_elapsed.push(self.progress.elapsed_secs);
                self.progress.next_day = d + 1;
                self.day_open = false;
            }
        }
        Ok(unit)
    }

    fn batch<H: Hooks<A>>(&mut self, hooks: &mut H, d: usize, b: usize) -> Result<(), H::Error> {
        hooks.tick();
        let dataset = self.dataset;
        let offered = &dataset.days[d][b].requests;
        let t = Instant::now();
        let requests: Cow<'d, [Request]> = match self.overload.as_mut() {
            Some(ov) => Cow::Owned(ov.admit(lacb(&mut self.assigner), &self.platform, offered)),
            None => Cow::Borrowed(offered),
        };
        let mut secs = t.elapsed().as_secs_f64();
        if self.overload.is_some() {
            let admitted = requests.iter().map(|r| r.id).collect();
            self.settle(hooks, &WalRecord::Admission { day: d, batch: b, admitted })?;
            let t = Instant::now();
            if let Some(ov) = self.overload.as_mut() {
                ov.plan_quality(lacb(&mut self.assigner));
            }
            secs += t.elapsed().as_secs_f64();
        }
        // An overload tick whose admission drained nothing matches nothing.
        let serve = self.overload.is_none() || !requests.is_empty();
        if serve {
            let t = Instant::now();
            let failures = count(&self.assigner, ResilienceStats::ladder_failures);
            let assignment = self.assigner.assign_batch(&self.platform, &requests);
            if let Some(ov) = self.overload.as_mut() {
                let degraded = count(&self.assigner, ResilienceStats::ladder_failures) > failures;
                ov.observe_solve(lacb(&mut self.assigner), degraded);
            }
            secs += t.elapsed().as_secs_f64();
            let rec = WalRecord::Batch {
                day: d,
                batch: b,
                draws: self.platform.appeal_draws(),
                assignment: assignment.clone(),
            };
            let replayed = self.settle(hooks, &rec)? == Logged::Replayed;
            let outcome = self.platform.execute_batch(&requests, &assignment);
            self.progress.requests_failed += outcome.failed.len() as u64;
            if let Some(ov) = self.overload.as_mut() {
                ov.record_served(&outcome);
            }
            self.ledger.record_batch(&outcome);
            hooks.executed(d, b, replayed);
        }
        self.timings.assign_batch_secs.push(secs);
        self.progress.elapsed_secs += secs;
        // State corruption and duplicated delivery land after the batch
        // is logged and executed; the policy's audits must catch and
        // repair them before the next batch is matched.
        if let Some(plan) = self.plan {
            if let Some(fault) = plan.state_fault(d, b, self.platform.num_brokers()) {
                self.assigner.inject_state_fault(&fault);
            }
            if serve && plan.batch_replayed(d, b) {
                // The duplicate re-enters the matcher (mutating its
                // learned state twice); its output is discarded because
                // the platform already executed the original delivery.
                let _ = self.assigner.assign_batch(&self.platform, &requests);
            }
        }
        hooks.repair(&mut self.assigner, d);
        self.next_batch += 1;
        Ok(())
    }

    /// Settle one emitted record: replay it against the queue head at
    /// its position, or hand it to the hooks as live.
    fn settle<H: Hooks<A>>(&mut self, hooks: &mut H, rec: &WalRecord) -> Result<Logged, H::Error> {
        let logged = match self.replay.front() {
            Some(head)
                if discriminant(head) == discriminant(rec)
                    && head.day() == rec.day()
                    && batch_of(head) == batch_of(rec) =>
            {
                let head = self.replay.pop_front().expect("head just matched");
                if head != *rec {
                    return Err(Divergence {
                        day: rec.day(),
                        batch: batch_of(rec),
                        detail: format!("logged {head:?} recomputed {rec:?}"),
                    }
                    .into());
                }
                if matches!(rec, WalRecord::Batch { .. }) {
                    self.replayed_batches += 1;
                }
                Logged::Replayed
            }
            _ => hooks.log(rec)?,
        };
        self.observe_log(logged);
        Ok(logged)
    }

    /// Feed the overload controller's WAL breaker: a record that landed
    /// on disk is a success, one that fell into the degraded replay
    /// buffer a failure.
    pub(crate) fn observe_log(&mut self, logged: Logged) {
        if let Some(ov) = self.overload.as_mut() {
            match logged {
                Logged::Disk => ov.observe_wal(true),
                Logged::Buffered => ov.observe_wal(false),
                Logged::Memory | Logged::Replayed => {}
            }
        }
    }

    /// Run the remaining horizon in memory.
    pub fn run_to_end(&mut self) {
        while self.peek() != Unit::Done {
            self.step(&mut InMemory).expect("only recovery queues records for replay");
        }
    }

    /// Follower replay of one shipped record: executing the next unit
    /// must reproduce it bit for bit. One record per unit, so the
    /// shipped pipeline runs without admission control.
    pub(crate) fn verify_apply(&mut self, rec: WalRecord) -> Result<(), Divergence> {
        let unit = self.peek();
        self.replay.push_back(rec);
        self.step(&mut InMemory)?;
        match self.replay.pop_front() {
            None => Ok(()),
            Some(rec) => Err(Divergence {
                day: rec.day(),
                batch: batch_of(&rec),
                detail: format!("record {rec:?} arrived at pipeline position {unit:?}"),
            }),
        }
    }

    /// Close the run: fold the policy's stage breakdown and this run's
    /// worker-pool deltas into the timings and assemble the metrics.
    /// Pool counters are process-wide, so a second pipeline stepping in
    /// the same process (a replication follower) bleeds into them.
    pub(crate) fn finish(mut self) -> (RunMetrics, A) {
        if let Some(b) = self.assigner.take_stage_breakdown() {
            self.timings.breakdown.absorb(&b);
        }
        let ps = pool::stats();
        let before = &self.pool_before;
        let breakdown = &mut self.timings.breakdown;
        breakdown.pool_sync_secs += (ps.sync_nanos - before.sync_nanos) as f64 * 1e-9;
        breakdown.parallel_rounds += ps.parallel_rounds - before.parallel_rounds;
        breakdown.inline_rounds += ps.inline_rounds - before.inline_rounds;
        let resilience = self.plan.map(|_| {
            let mut stats = self.assigner.resilience_stats().unwrap_or_default();
            stats.requests_failed = self.progress.requests_failed;
            stats
        });
        let name = self.assigner.name();
        let metrics = RunMetrics {
            algorithm: if self.overload.is_some() { format!("Overload({name})") } else { name },
            total_utility: self.ledger.total_realized(),
            elapsed_secs: self.progress.elapsed_secs,
            daily_utility: self.progress.daily_utility,
            daily_elapsed: self.progress.daily_elapsed,
            ledger: self.ledger,
            resilience,
            overload: self.overload.map(|ov| ov.stats().clone()),
            timings: self.timings,
            audit: self.assigner.take_audit_report(),
            replication: None,
            storage: None,
        };
        (metrics, self.assigner)
    }
}

impl<'d> Engine<'d, ResilientAssigner<Lacb>> {
    /// A fresh resilient LACB pipeline over the spiked `dataset`, under
    /// overload control when `overload` is given.
    pub fn lacb(
        dataset: &'d Dataset,
        cfg: LacbConfig,
        rcfg: ResilienceConfig,
        plan: FaultPlan,
        overload: Option<&OverloadConfig>,
    ) -> Self {
        let assigner = ResilientAssigner::new(Lacb::new(cfg), rcfg);
        Engine {
            overload: overload.map(|ocfg| OverloadState::new(ocfg.clone())),
            ..Engine::new(dataset, Some(plan), assigner)
        }
    }

    /// Rebuild a resilient LACB pipeline at a checkpoint's day
    /// boundary. With `overload`, the controller resumes from the
    /// checkpoint's snapshot, or starts fresh when it carries none.
    pub fn restore(
        dataset: &'d Dataset,
        ckpt: &Checkpoint,
        cfg: LacbConfig,
        rcfg: ResilienceConfig,
        plan: FaultPlan,
        overload: Option<&OverloadConfig>,
    ) -> Result<Self, CheckpointError> {
        let mut platform = Platform::from_dataset(dataset);
        platform.enable_faults(plan);
        let r = ckpt.restore(cfg, &mut platform)?;
        let mut assigner = ResilientAssigner::new(r.matcher, rcfg);
        assigner.restore_channel(r.pending_feedback, r.stats);
        let overload = overload.map(|ocfg| match &r.overload {
            Some(snap) => OverloadState::from_snapshot(ocfg.clone(), snap),
            None => OverloadState::new(ocfg.clone()),
        });
        Ok(Engine {
            platform,
            ledger: r.ledger,
            progress: r.progress,
            overload,
            ..Engine::new(dataset, Some(plan), assigner)
        })
    }

    /// The matcher's learned state ([`Lacb::write_state`] text).
    pub fn learned_state(&self) -> String {
        let mut out = String::new();
        self.assigner.primary().write_state(&mut out);
        out
    }

    /// [`Engine::finish`] plus the matcher's final learned state.
    pub(crate) fn finish_lacb(self) -> (RunMetrics, String) {
        let state = self.learned_state();
        (self.finish().0, state)
    }
}
