//! Replicated serving: deterministic WAL shipping over a simulated
//! network, epoch-fenced failover, and bit-identical takeover.
//!
//! [`run_replicated`] drives two [`crate::serving`] pipelines, one at
//! each end of a [`replica::SimLink`]:
//!
//! * the **primary** serves, appends each record to its on-disk WAL,
//!   and ships it as a checksummed, sequence-numbered, epoch-tagged
//!   [`replica::Frame`] — one link tick per serving unit;
//! * the **follower** admits frames idempotently (duplicates dropped,
//!   gaps buffered, torn or damaged frames rejected by CRC) and applies
//!   each record by the core's recompute-and-verify replay
//!   (`serving::Engine::verify_apply`) — a mismatch is a typed
//!   [`ReplicationError::Divergence`], never silent drift;
//! * the follower acks its applied watermark every tick; the primary
//!   prunes its frame outbox and its on-disk WAL
//!   ([`durability::Wal::prune_to_watermark`]) up to the acked day at
//!   each checkpoint boundary;
//! * a [`replica::FailureDetector`] counts silent link ticks; when the
//!   primary goes quiet past the threshold — because a seeded
//!   [`KillPoint`] killed it, or a seeded network partition made it
//!   *look* dead — the follower promotes itself under a bumped epoch.
//!   Every frame still carrying the old epoch is fenced off (counted in
//!   [`ReplicationStats::stale_epoch_rejected`]), so a deposed primary
//!   can never split-brain the learned state.
//!
//! Takeover is **bit-identical**: the follower's replayed state at its
//! watermark equals the clean single-node state at that boundary (the
//! pipeline is a pure function of its seeds), and its post-promotion
//! execution re-derives everything the dead primary did but never got
//! acked. The `caam failover` harness asserts final metrics and matcher
//! state equal to an uninterrupted [`crate::resilient::run_chaos`] run,
//! for every seeded kill point and network-fault scenario.

use crate::checkpoint::Checkpoint;
use crate::lacb::{Lacb, LacbConfig};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use crate::serving::{Divergence, Engine, Hooks, Logged, Unit};
use durability::{tmp_path, CheckpointStore, StdVfs, StoreError, Vfs, Wal, WalError, WalRecord};
use platform_sim::{
    Dataset, FaultPlan, KillPoint, NetDelivery, NetFaultPlan, ReplicationStats, RunMetrics,
};
use replica::{
    AckChannel, Admitted, Delivery, FailureDetector, Follower, Frame, FramePayload, Primary,
    SimLink,
};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the primary's WAL inside the replication directory.
pub const REPLICA_WAL_FILE: &str = "primary.wal";

/// Safety valve on the protocol loops that wait for network
/// convergence; hitting it is a protocol bug, not a slow link.
const CONVERGENCE_GUARD_TICKS: u64 = 100_000;

/// Knobs of a replicated run.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Directory holding the primary's WAL and checkpoint generations.
    pub dir: PathBuf,
    /// Checkpoint generations to retain.
    pub keep: usize,
    /// Consecutive silent link ticks before the follower promotes.
    pub heartbeat_timeout: u64,
    /// Ticks without ack progress before the outbox is retransmitted.
    pub retransmit_after: u64,
    /// Seeded primary kill point (failover harness only).
    pub kill: Option<KillPoint>,
    /// Filesystem the primary's WAL and checkpoint store go through.
    pub vfs: Arc<dyn Vfs>,
    /// When set, primary-side storage faults are absorbed instead of
    /// aborting: the failing handle is latched off, the fault is
    /// counted in [`ReplicationStats`], and shipping continues — the
    /// follower's acked watermark is the durability story then.
    pub tolerate_storage_faults: bool,
}

impl ReplicationConfig {
    /// A replicated run rooted at `dir` with default timeouts, no
    /// injected kill, the real filesystem, and storage faults fatal.
    pub fn at(dir: &Path) -> Self {
        ReplicationConfig {
            dir: dir.to_path_buf(),
            keep: 3,
            heartbeat_timeout: 6,
            retransmit_after: 2,
            kill: None,
            vfs: Arc::new(StdVfs),
            tolerate_storage_faults: false,
        }
    }

    /// Route the primary's durability I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Absorb primary-side storage faults instead of aborting.
    pub fn tolerant(mut self) -> Self {
        self.tolerate_storage_faults = true;
        self
    }
}

/// Why a replicated run failed.
#[derive(Clone, Debug)]
pub enum ReplicationError {
    /// The primary's WAL could not be written or pruned.
    Wal(WalError),
    /// The primary's checkpoint store failed.
    Store(StoreError),
    /// A shipped record recomputed differently on the follower.
    /// Deterministic replay makes this impossible unless state, code,
    /// or wire were corrupted in a way the checksums could not see.
    Divergence { day: usize, batch: Option<usize>, detail: String },
    /// The protocol itself misbehaved (convergence guard exhausted,
    /// or an unshippable record reached the wire).
    Protocol(String),
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Wal(e) => write!(f, "WAL error: {e}"),
            ReplicationError::Store(e) => write!(f, "checkpoint store error: {e}"),
            ReplicationError::Divergence { day, batch: Some(b), detail } => {
                write!(f, "replication divergence at day {day} batch {b}: {detail}")
            }
            ReplicationError::Divergence { day, batch: None, detail } => {
                write!(f, "replication divergence at day {day} boundary: {detail}")
            }
            ReplicationError::Protocol(e) => write!(f, "replication protocol error: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<WalError> for ReplicationError {
    fn from(e: WalError) -> Self {
        ReplicationError::Wal(e)
    }
}

impl From<StoreError> for ReplicationError {
    fn from(e: StoreError) -> Self {
        ReplicationError::Store(e)
    }
}

impl From<Divergence> for ReplicationError {
    fn from(Divergence { day, batch, detail }: Divergence) -> Self {
        ReplicationError::Divergence { day, batch, detail }
    }
}

/// What a completed replicated run reports.
#[derive(Clone, Debug)]
pub struct ReplicatedOutcome {
    /// The surviving node's whole-horizon metrics, directly comparable
    /// with [`crate::resilient::run_chaos`]; `metrics.replication`
    /// carries the protocol counters.
    pub metrics: RunMetrics,
    /// The surviving node's final learned state — the failover harness
    /// compares this bit-for-bit against a clean single-node run.
    pub final_state: String,
    /// Whether the follower took over.
    pub promoted: bool,
    /// The follower's `(day, batch)` position at the moment it
    /// promoted (its verified watermark), if it did.
    pub promoted_at: Option<(usize, usize)>,
    /// Protocol counters (also threaded into `metrics.replication`).
    pub replication: ReplicationStats,
    /// For runs the primary survived: whether the follower's replayed
    /// state converged bit-identically to the primary's. `None` when
    /// the follower was promoted (it *is* the surviving state then).
    pub follower_converged: Option<bool>,
    /// WAL records pruned below acked watermarks over the run.
    pub wal_pruned: u64,
}

/// The primary's side of the disk and the wire: its WAL and checkpoint
/// store (each latched off by a tolerated storage fault) and the record
/// its last serving step emitted, waiting to be shipped.
#[derive(Default)]
struct PrimaryLog {
    wal: Option<Wal>,
    store: Option<CheckpointStore>,
    tolerant: bool,
    storage_faults: u64,
    checkpoints_skipped: u64,
    prunes_skipped: u64,
    wal_pruned: u64,
    shipped: Option<WalRecord>,
}

impl PrimaryLog {
    /// Count a storage fault when tolerated; fail the run otherwise.
    fn tolerate(&mut self, e: impl Into<ReplicationError>) -> Result<(), ReplicationError> {
        if !self.tolerant {
            return Err(e.into());
        }
        self.storage_faults += 1;
        Ok(())
    }

    /// Append to the WAL, latching it off on a tolerated failure: the
    /// follower's acked watermark is the durability story from there.
    fn append(&mut self, rec: &WalRecord) -> Result<Logged, ReplicationError> {
        let Some(w) = self.wal.as_mut() else { return Ok(Logged::Memory) };
        match w.append(rec) {
            Ok(()) => Ok(Logged::Disk),
            Err(e) => {
                self.tolerate(e)?;
                self.wal = None;
                Ok(Logged::Memory)
            }
        }
    }

    /// Save the day-boundary checkpoint, log its WAL mark, and prune the
    /// WAL to `prune_day` (the first unacked record's day). A degraded
    /// WAL has nothing safe to prune — count the skip.
    fn checkpoint(
        &mut self,
        next_day: usize,
        text: &str,
        prune_day: usize,
    ) -> Result<(), ReplicationError> {
        match self.store.as_ref().map(|s| s.save(next_day, text, None)) {
            Some(Ok(_)) => {
                self.append(&WalRecord::Checkpoint { next_day })?;
            }
            Some(Err(e)) => {
                self.tolerate(e)?;
                self.checkpoints_skipped += 1;
            }
            None => self.checkpoints_skipped += 1,
        }
        match self.wal.as_mut().map(|w| w.prune_to_watermark(prune_day)) {
            Some(Ok(n)) => self.wal_pruned += n as u64,
            Some(Err(e)) => {
                self.tolerate(e)?;
                self.prunes_skipped += 1;
                self.wal = None;
            }
            None => self.prunes_skipped += 1,
        }
        Ok(())
    }
}

impl Hooks<ResilientAssigner<Lacb>> for PrimaryLog {
    type Error = ReplicationError;

    fn log(&mut self, rec: &WalRecord) -> Result<Logged, ReplicationError> {
        self.shipped = Some(rec.clone());
        self.append(rec)
    }
}

/// Translate a seeded [`NetDelivery`] verdict into the link's dialect.
fn verdict(net: &NetFaultPlan, epoch: u64, seq: u64, attempt: u64) -> Delivery {
    match net.delivery(epoch, seq, attempt) {
        NetDelivery::Deliver { delay } => Delivery::Deliver { delay },
        NetDelivery::DeliverTwice { first, second } => Delivery::DeliverTwice { first, second },
        NetDelivery::DeliverCorrupt { delay, byte, mask } => {
            Delivery::DeliverCorrupt { delay, byte, mask }
        }
        NetDelivery::Drop => Delivery::Drop,
    }
}

/// Both ends of the simulated network: the link and ack channel, the
/// primary and follower protocol nodes, the follower's own pipeline,
/// and the failure detector that promotes it.
struct Wire<'d> {
    net: NetFaultPlan,
    link: SimLink,
    acks: AckChannel,
    primary: Primary,
    follower: Follower,
    engine: Engine<'d, ResilientAssigner<Lacb>>,
    detector: FailureDetector,
    /// Transmissions so far per frame sequence number.
    attempts: HashMap<u64, u64>,
    /// Heartbeat fault draws use a disjoint attempt domain so they
    /// never collide with record retransmission attempts.
    hb_attempt: u64,
    primary_alive: bool,
    promoted: bool,
    promoted_at: Option<(usize, usize)>,
}

impl Wire<'_> {
    /// Send one record frame under its next seeded delivery verdict.
    fn send(&mut self, frame: &Frame) {
        let attempt = self.attempts.entry(frame.seq).or_insert(0);
        let delivery = verdict(&self.net, self.primary.epoch(), frame.seq, *attempt);
        self.link.send(&frame.encode(), delivery);
        *attempt += 1;
    }

    fn heartbeat(&mut self) {
        let hb = self.primary.heartbeat();
        let delivery = verdict(&self.net, self.primary.epoch(), hb.seq, self.hb_attempt);
        self.link.send(&hb.encode(), delivery);
        self.hb_attempt += 1;
    }

    /// Resend the whole unacked outbox.
    fn retransmit(&mut self) {
        for f in self.primary.retransmit() {
            self.send(&f);
        }
    }

    fn partitioned(&self) -> bool {
        self.net.partitioned(self.primary.epoch(), self.link.now())
    }

    /// One network round: tick the link, admit and verify-apply at the
    /// follower, ack the watermark, deliver acks to the primary, advance
    /// the failure detector, and promote on suspicion.
    fn exchange(&mut self) -> Result<(), ReplicationError> {
        let mut saw_traffic = false;
        for bytes in self.link.tick() {
            match self.follower.admit_bytes(&bytes) {
                Admitted::Apply(recs) => {
                    saw_traffic = true;
                    for rec in recs {
                        self.engine.verify_apply(rec)?;
                    }
                }
                Admitted::Heartbeat => saw_traffic = true,
                Admitted::Ignored => {}
            }
        }
        if !self.promoted {
            self.acks.send(self.follower.epoch(), self.follower.watermark());
        }
        for (epoch, watermark) in self.acks.tick() {
            if self.primary_alive {
                self.primary.ack(epoch, watermark);
                if self.primary.deposed() {
                    self.primary_alive = false;
                }
            }
        }
        if !self.promoted && self.detector.tick(saw_traffic) {
            self.follower.promote();
            self.promoted = true;
            self.promoted_at = Some(self.engine.position());
        }
        Ok(())
    }

    /// Exchange until `done`, failing with `stalled` past the
    /// convergence guard.
    fn exchange_until(
        &mut self,
        mut done: impl FnMut(&mut Self) -> bool,
        stalled: impl Fn(&Self) -> String,
    ) -> Result<(), ReplicationError> {
        for _ in 0..=CONVERGENCE_GUARD_TICKS {
            if done(self) {
                return Ok(());
            }
            self.exchange()?;
        }
        Err(ReplicationError::Protocol(stalled(self)))
    }
}

/// Run a primary/follower replicated serving pair over the whole
/// horizon under seeded platform faults (`plan`), seeded network faults
/// (`net`), and an optional seeded primary kill. See module docs for
/// the protocol; see [`ReplicatedOutcome`] for what comes back.
pub fn run_replicated(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
    net: NetFaultPlan,
    repl: &ReplicationConfig,
) -> Result<ReplicatedOutcome, ReplicationError> {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut disk = PrimaryLog { tolerant: repl.tolerate_storage_faults, ..PrimaryLog::default() };
    match CheckpointStore::open_with(repl.vfs.clone(), &repl.dir, repl.keep) {
        Ok(s) => disk.store = Some(s),
        Err(e) => disk.tolerate(e)?,
    }
    // The replicated primary starts a fresh log; composing replication
    // with single-node crash recovery is `supervisor`'s job.
    match Wal::recover_with(repl.vfs.clone(), &repl.dir.join(REPLICA_WAL_FILE)) {
        Ok((w, _, _)) => disk.wal = Some(w),
        Err(e) => disk.tolerate(e)?,
    }

    let mut engine = Engine::lacb(&spiked, cfg.clone(), rcfg.clone(), plan, None);
    let mut w = Wire {
        net,
        link: SimLink::new(),
        acks: AckChannel::new(),
        primary: Primary::new(0),
        follower: Follower::new(0),
        engine: Engine::lacb(&spiked, cfg, rcfg, plan, None),
        detector: FailureDetector::new(repl.heartbeat_timeout),
        attempts: HashMap::new(),
        hb_attempt: 1 << 40,
        primary_alive: true,
        promoted: false,
        promoted_at: None,
    };
    let mut stall_ticks: u64 = 0;
    let mut last_acked: u64 = 0;

    // Phase 1: the primary serves, one unit per link tick.
    while w.primary_alive && !w.promoted && engine.peek() != Unit::Done {
        let partitioned = w.partitioned();
        if let (Some(KillPoint::BeforeDayEnd { day }), Unit::DayEnd(d)) = (repl.kill, engine.peek())
        {
            w.primary_alive = d != day;
        }
        if w.primary_alive {
            engine.step(&mut disk)?;
            let rec = disk.shipped.take().expect("every serving unit emits one record");
            let batch = match rec {
                WalRecord::Batch { day, batch, .. } => Some((day, batch)),
                _ => None,
            };
            let frame = w.primary.ship(rec.clone());
            if batch
                .is_some_and(|(day, batch)| repl.kill == Some(KillPoint::MidFrame { day, batch }))
            {
                // The primary dies halfway through the send: the wire
                // carries a torn prefix the follower's CRC must reject.
                let line = frame.encode();
                w.link.send_raw(line.as_bytes()[..line.len() / 2].to_vec());
                w.primary_alive = false;
            } else if !partitioned {
                w.send(&frame);
            }
            if batch
                .is_some_and(|(day, batch)| repl.kill == Some(KillPoint::AfterBatch { day, batch }))
            {
                w.primary_alive = false;
            }
            if let (true, WalRecord::DayEnd { day: d, .. }) = (w.primary_alive, rec) {
                let text = Checkpoint::capture(&engine).with_epoch(w.primary.epoch()).to_v2_text();
                if repl.kill == Some(KillPoint::MidCheckpoint { day: d }) {
                    // Dying mid-write leaves a torn tmp that the atomic
                    // rename never promoted — invisible to every reader,
                    // exactly like a crashed save.
                    let healthy = disk.store.as_ref().expect("kill harness runs on a healthy disk");
                    let tmp = tmp_path(&healthy.generation_path(d + 1));
                    repl.vfs.write(&tmp, &text.as_bytes()[..text.len() / 2]).map_err(|e| {
                        ReplicationError::Protocol(format!("torn tmp write failed: {e}"))
                    })?;
                    w.primary_alive = false;
                } else {
                    // Prune below the acked watermark: keep from the first
                    // unacked record's day (or drop everything when fully
                    // acked).
                    let prune_day = match w.primary.retransmit().first().map(|f| &f.payload) {
                        Some(FramePayload::Record(r)) => r.day(),
                        _ => d + 1,
                    };
                    disk.checkpoint(d + 1, &text, prune_day)?;
                    w.primary_alive = repl.kill != Some(KillPoint::AfterCheckpoint { day: d });
                }
            }
            if w.primary_alive && !partitioned {
                w.heartbeat();
                if stall_ticks >= repl.retransmit_after {
                    w.retransmit();
                }
            }
        }
        w.exchange()?;
        if w.primary.acked() > last_acked {
            last_acked = w.primary.acked();
            stall_ticks = 0;
        } else {
            stall_ticks += 1;
        }
    }

    if w.primary_alive && !w.promoted {
        // Phase 2a: the primary finished serving — keep heartbeating and
        // retransmitting until the follower's watermark catches up.
        w.exchange_until(
            |w| {
                let synced = !w.primary_alive
                    || w.promoted
                    || w.follower.watermark() >= w.primary.next_seq();
                if !synced && !w.partitioned() {
                    w.heartbeat();
                    w.retransmit();
                }
                synced
            },
            |w| {
                format!(
                    "tail sync stalled: follower watermark {} vs primary seq {}",
                    w.follower.watermark(),
                    w.primary.next_seq()
                )
            },
        )?;
    }
    if !w.primary_alive && !w.promoted {
        // Phase 2b: the primary is dead — tick silence (and the in-flight
        // tail) until the failure detector fires and the follower promotes.
        w.exchange_until(
            |w| w.promoted,
            |_| "failure detector never fired after primary death".into(),
        )?;
    }

    // Phase 3: after a takeover, the wire still holds the old primary's
    // unacked transmissions. Replaying them proves the fence: every
    // old-epoch frame must be rejected, none may move the watermark.
    if w.promoted {
        for f in w.primary.retransmit() {
            let _ = w.follower.admit(f);
        }
        let _ = w.follower.admit(w.primary.heartbeat());
        for bytes in w.link.drain() {
            let _ = w.follower.admit_bytes(&bytes);
        }
        w.engine.run_to_end();
    }

    let (primary, follower, link) = (&w.primary, &w.follower, &w.link);
    let promoted = w.promoted;
    let follower_converged = (!promoted).then(|| {
        w.engine.learned_state() == engine.learned_state()
            && follower.watermark() == primary.next_seq()
    });
    let replication = ReplicationStats {
        epoch: if promoted { follower.epoch() } else { primary.epoch() },
        promotions: follower.stats().promotions,
        frames_shipped: link.stats().sent,
        frames_applied: follower.stats().frames_applied,
        frames_dropped: link.stats().dropped,
        duplicates_dropped: follower.stats().duplicates_dropped,
        reordered_buffered: follower.stats().reordered_buffered,
        corrupt_rejected: follower.stats().corrupt_rejected,
        stale_epoch_rejected: follower.stats().stale_epoch_rejected,
        heartbeats_missed: w.detector.total_missed(),
        acked_watermark: primary.acked(),
        pruned_records: disk.wal_pruned,
        max_lag: primary.max_lag(),
        primary_storage_faults: disk.storage_faults,
        checkpoints_skipped: disk.checkpoints_skipped,
        prunes_skipped: disk.prunes_skipped,
    };
    let (mut metrics, final_state) =
        if promoted { w.engine.finish_lacb() } else { engine.finish_lacb() };
    metrics.replication = Some(replication.clone());
    Ok(ReplicatedOutcome {
        metrics,
        final_state,
        promoted,
        promoted_at: w.promoted_at,
        replication,
        follower_converged,
        wal_pruned: disk.wal_pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::run_chaos;
    use crate::runner::RunConfig;
    use durability::parse_v2_section;
    use platform_sim::{
        seeded_kill_schedule, FaultConfig, NetFaultConfig, ResilienceStats, SyntheticConfig,
    };

    fn dataset(seed: u64) -> Dataset {
        Dataset::synthetic(&SyntheticConfig {
            num_brokers: 24,
            num_requests: 480,
            days: 3,
            imbalance: 0.25,
            seed,
        })
    }

    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", seed).unwrap())
    }

    fn quiet_net(seed: u64) -> NetFaultPlan {
        NetFaultPlan::new(NetFaultConfig { seed, ..NetFaultConfig::default() })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("caam-replication-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn reference(ds: &Dataset, plan: FaultPlan) -> (RunMetrics, String) {
        let mut r =
            ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
        let m = run_chaos(ds, &mut r, &RunConfig::default(), plan);
        let mut state = String::new();
        r.primary().write_state(&mut state);
        (m, state)
    }

    fn assert_bit_identical(a: &RunMetrics, b: &RunMetrics) {
        assert_eq!(a.total_utility.to_bits(), b.total_utility.to_bits());
        assert_eq!(a.daily_utility.len(), b.daily_utility.len());
        for (x, y) in a.daily_utility.iter().zip(&b.daily_utility) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // requests_failed rides ResilienceStats; compare them whole.
        let zero = ResilienceStats::default();
        assert_eq!(a.resilience.as_ref().unwrap_or(&zero), b.resilience.as_ref().unwrap_or(&zero));
        let (sa, sb) = (a.ledger.snapshot(), b.ledger.snapshot());
        assert_eq!(sa.realized_utility, sb.realized_utility);
        assert_eq!(sa.requests_served, sb.requests_served);
    }

    #[test]
    fn clean_replicated_run_matches_run_chaos_and_converges() {
        let ds = dataset(211);
        let plan = chaos_plan(131);
        let dir = scratch("clean");
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(1),
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert!(!out.promoted);
        assert_eq!(out.follower_converged, Some(true));
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let repl = &out.replication;
        assert_eq!(repl.promotions, 0);
        assert_eq!(repl.stale_epoch_rejected, 0);
        assert_eq!(repl.corrupt_rejected, 0);
        assert!(repl.frames_applied > 0);
        assert!(repl.acked_watermark > 0, "acks must flow back");
        assert!(out.wal_pruned > 0, "acked prefix must be pruned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_kill_point_variant_fails_over_bit_identically() {
        let ds = dataset(223);
        let plan = chaos_plan(137);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        let spiked = ds.with_batch_spikes(&plan);
        let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
        // 5 points = one per kill variant; the CLI harness scales this.
        for (i, point) in seeded_kill_schedule(191, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("kill-{i}"));
            let mut repl = ReplicationConfig::at(&dir);
            repl.kill = Some(point);
            let out = run_replicated(
                &ds,
                LacbConfig::default(),
                ResilienceConfig::default(),
                plan,
                quiet_net(2),
                &repl,
            )
            .unwrap_or_else(|e| panic!("failover after {} failed: {e}", point.label()));
            assert!(out.promoted, "kill {} must promote the follower", point.label());
            assert!(
                out.replication.stale_epoch_rejected > 0,
                "kill {} must fence stale frames",
                point.label()
            );
            assert_bit_identical(&out.metrics, &reference_metrics);
            assert_eq!(out.final_state, reference_state, "state diverged after {}", point.label());
            if matches!(point, KillPoint::MidFrame { .. }) {
                assert!(out.replication.corrupt_rejected > 0, "torn frame must be CRC-rejected");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lossy_link_converges_bit_identically_without_promotion() {
        let ds = dataset(227);
        let plan = chaos_plan(139);
        let dir = scratch("lossy");
        let net = NetFaultPlan::new(NetFaultConfig::scenario("lossy", 7).unwrap());
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            net,
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_eq!(out.follower_converged, Some(true), "lossy link must still converge");
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let repl = &out.replication;
        assert!(
            repl.frames_dropped + repl.duplicates_dropped + repl.corrupt_rejected > 0,
            "lossy scenario must actually exercise the fault families: {repl:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn primary_storage_faults_latch_and_shipping_still_converges() {
        let ds = dataset(233);
        let plan = chaos_plan(151);
        let dir = scratch("storage-tolerant");
        // A disk that fails every operation: the primary runs fully
        // diskless, yet the follower still converges bit-identically —
        // the acked watermark is the durability story.
        let dead = platform_sim::StorageFaultConfig {
            seed: 11,
            disk_gone: 1.0,
            disk_gone_every: 1,
            disk_gone_span: 1,
            ..platform_sim::StorageFaultConfig::default()
        };
        let repl = ReplicationConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead)))
            .tolerant();
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(5),
            &repl,
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert!(!out.promoted);
        assert_eq!(out.follower_converged, Some(true));
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let stats = &out.replication;
        assert!(stats.primary_storage_faults > 0, "{stats:?}");
        assert!(stats.checkpoints_skipped > 0, "{stats:?}");
        assert!(stats.prunes_skipped > 0, "{stats:?}");
        assert_eq!(out.wal_pruned, 0, "a dead disk has nothing to prune");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_checkpoints_carry_the_fencing_epoch() {
        let ds = dataset(229);
        let plan = chaos_plan(149);
        let dir = scratch("epoch-section");
        run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(3),
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let (_, newest) = store.generations()[0].clone();
        let text = store.read(&newest).unwrap();
        let section = parse_v2_section(&text, "epoch").unwrap();
        assert_eq!(section.trim(), "replication-epoch 0");
        std::fs::remove_dir_all(&dir).ok();
    }
}
