//! Crash-consistent serving: the durable run loop and its recovery path.
//!
//! [`run_durable`] serves through the [`crate::serving`] core with hooks
//! that make every step recoverable: each record is appended to a
//! checksummed WAL **before** the pipeline applies it, and each day
//! boundary cuts a `caam-ckpt v2` checkpoint into a generation store via
//! an atomic tmp+rename write, then logs a checkpoint mark in the WAL.
//!
//! On startup the same function *is* the recovery path: it truncates
//! any torn WAL tail, restores the newest checkpoint that verifies
//! (falling back generation by generation to the last known good, or to
//! a fresh start when none exists), and queues the WAL tail for the
//! core's recompute-and-verify replay — a mismatch is a typed
//! [`RecoveryError::Divergence`], never a silent drift. After the tail
//! the loop continues live, so a recovered run finishes with metrics and
//! learned state bit-identical to an uninterrupted one (the `caam
//! crash-test` harness asserts exactly this across every seeded
//! [`CrashPoint`]).
//!
//! Crash injection rides the same hooks: a [`DurableConfig::crash`]
//! point panics at the matching boundary (after a batch, halfway
//! through a WAL append, before/halfway-through/after a checkpoint
//! write), leaving on disk exactly what a power cut would.

use crate::assigner::Assigner;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::lacb::{Lacb, LacbConfig};
use crate::overload::OverloadConfig;
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use crate::serving::{Divergence, Engine, Hooks, Logged, Unit};
use crate::storage::{FaultSite, StorageConfig, StorageGuard};
use durability::{
    parse_v2_section, CheckpointStore, StdVfs, StoreError, Vfs, Wal, WalError, WalRecord,
    WalRecovery, WriteCrash,
};
use platform_sim::{CrashPoint, Dataset, FaultPlan, RunMetrics, StorageMode};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the serving WAL inside the durable directory.
pub const WAL_FILE: &str = "serving.wal";

/// Where and how a durable run persists its state.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Directory holding the WAL and checkpoint generations.
    pub dir: PathBuf,
    /// Checkpoint generations to retain.
    pub keep: usize,
    /// Seeded crash point to inject (recovery harness only).
    pub crash: Option<CrashPoint>,
    /// Filesystem all durability I/O goes through. [`StdVfs`] in
    /// production; the storage chaos harness injects a
    /// `platform_sim::FaultVfs`.
    pub vfs: Arc<dyn Vfs>,
    /// Storage-fault tolerance. `None` (the default) keeps the legacy
    /// contract: any storage failure aborts the run with a typed
    /// [`RecoveryError`]. `Some` enables the degraded-mode machine
    /// ([`StorageGuard`]): faults trip the WAL/checkpoint breaker and
    /// the loop keeps serving diskless.
    pub storage: Option<StorageConfig>,
}

impl DurableConfig {
    /// A durable run rooted at `dir` with default retention, no
    /// injected crash, the real filesystem, and storage faults fatal.
    pub fn at(dir: &Path) -> Self {
        DurableConfig {
            dir: dir.to_path_buf(),
            keep: 3,
            crash: None,
            vfs: Arc::new(StdVfs),
            storage: None,
        }
    }

    /// Route all durability I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Enable the degraded-mode state machine.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

/// Why a durable run could not start, recover, or stay consistent.
#[derive(Clone, Debug)]
pub enum RecoveryError {
    /// The WAL itself could not be opened or appended.
    Wal(WalError),
    /// The checkpoint store could not be opened or written.
    Store(StoreError),
    /// A freshly captured checkpoint failed to serialise — fatal,
    /// because continuing would silently widen the replay window.
    Checkpoint(CheckpointError),
    /// A replayed batch recomputed differently from its WAL record.
    /// Deterministic replay makes this impossible unless state, code,
    /// or log were corrupted in a way the checksums could not see.
    Divergence { day: usize, batch: Option<usize>, detail: String },
    /// The WAL references serving coordinates outside the dataset's
    /// horizon (wrong WAL for this run?).
    Horizon(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "WAL error: {e}"),
            RecoveryError::Store(e) => write!(f, "checkpoint store error: {e}"),
            RecoveryError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            RecoveryError::Divergence { day, batch: Some(b), detail } => {
                write!(f, "replay divergence at day {day} batch {b}: {detail}")
            }
            RecoveryError::Divergence { day, batch: None, detail } => {
                write!(f, "replay divergence at day {day} boundary: {detail}")
            }
            RecoveryError::Horizon(e) => write!(f, "WAL outside horizon: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl From<StoreError> for RecoveryError {
    fn from(e: StoreError) -> Self {
        RecoveryError::Store(e)
    }
}

impl From<Divergence> for RecoveryError {
    fn from(Divergence { day, batch, detail }: Divergence) -> Self {
        RecoveryError::Divergence { day, batch, detail }
    }
}

/// What a completed durable run reports.
#[derive(Clone, Debug)]
pub struct DurableOutcome {
    /// Whole-horizon metrics, directly comparable with
    /// [`crate::resilient::run_chaos`].
    pub metrics: RunMetrics,
    /// The matcher's final learned state ([`Lacb::write_state`] text) —
    /// the harness compares this bit-for-bit across crash/recover runs.
    pub final_state: String,
    /// Day boundary of the checkpoint the run restored from, or `None`
    /// for a fresh start.
    pub recovered_from: Option<usize>,
    /// Checkpoint generations that existed but failed verification and
    /// were skipped on the way to the last known good one.
    pub generations_skipped: usize,
    /// WAL records recomputed and verified against the log.
    pub replayed_batches: usize,
    /// What WAL recovery found on disk (torn tail, dropped bytes).
    pub wal_recovery: WalRecovery,
}

/// The newest checkpoint generation at or before day `max_day` that
/// `parse` accepts, plus how many newer generations it rejected on the
/// way there.
fn newest_good<T>(
    store: &CheckpointStore,
    max_day: usize,
    parse: impl Fn(String) -> Option<T>,
) -> (Option<(usize, T)>, usize) {
    let mut skipped = 0;
    for (day, path) in store.generations() {
        if day > max_day {
            continue;
        }
        match store.read(&path).ok().and_then(&parse) {
            Some(v) => return (Some((day, v)), skipped),
            None => skipped += 1,
        }
    }
    (None, skipped)
}

/// The durable loop's view of its storage: the checkpoint store, the
/// WAL, and (when [`DurableConfig::storage`] is set) the degraded-mode
/// [`StorageGuard`] that absorbs their failures.
///
/// Without a guard every method keeps the legacy contract — the first
/// storage failure is a typed [`RecoveryError`]. With a guard a failing
/// component handle is dropped (`store`/`wal` become `None`), the fault
/// trips the guard's breaker, and appends flow into the bounded replay
/// buffer until a day-boundary resync writes a fresh full checkpoint
/// plus a fresh WAL and re-arms both handles. Degraded paths never
/// touch the matcher, the platform, or the ledger, so a degraded run's
/// serving results stay bit-identical to a fault-free run.
struct DiskState {
    cfg: DurableConfig,
    store: Option<CheckpointStore>,
    wal: Option<Wal>,
    guard: Option<StorageGuard>,
}

impl DiskState {
    /// Open the store and recover the WAL through the configured VFS.
    /// With a guard, startup failures degrade instead of aborting: the
    /// run starts diskless and resyncs once the disk heals. Recovered
    /// WAL records are kept for replay even when the handles degrade.
    fn open(dcfg: &DurableConfig) -> Result<(Self, Vec<WalRecord>, WalRecovery), RecoveryError> {
        let mut guard = dcfg.storage.map(StorageGuard::new);
        // With a guard a startup failure degrades; without one it is fatal.
        let mut absorbed = |e: &dyn fmt::Display| match guard.as_mut() {
            Some(g) => {
                g.storage_fault(FaultSite::Startup, &e.to_string());
                true
            }
            None => false,
        };
        let store = match CheckpointStore::open_with(dcfg.vfs.clone(), &dcfg.dir, dcfg.keep) {
            Ok(s) => Some(s),
            Err(e) if absorbed(&e) => None,
            Err(e) => return Err(e.into()),
        };
        let (wal, records, recovery) = match Wal::recover_with(dcfg.vfs.clone(), &dcfg.wal_path()) {
            Ok((w, records, recovery)) => (Some(w), records, recovery),
            Err(e) if absorbed(&e) => (None, Vec::new(), WalRecovery::default()),
            Err(e) => return Err(e.into()),
        };
        // A store that failed to open cannot host the next checkpoint,
        // so even a healthy WAL must stop accepting appends: drop the
        // handle and run degraded from birth.
        let wal = if guard.as_ref().is_some_and(|g| !g.durable()) { None } else { wal };
        Ok((DiskState { cfg: dcfg.clone(), store, wal, guard }, records, recovery))
    }

    /// Append a record: to the WAL while Durable, to the bounded replay
    /// buffer while degraded. Only the guard-less legacy path can fail.
    fn append(&mut self, rec: &WalRecord) -> Result<Logged, RecoveryError> {
        let Some(durable) = self.guard.as_ref().map(StorageGuard::durable) else {
            let wal = self.wal.as_mut().expect("legacy path always holds a WAL");
            wal.append(rec)?;
            return Ok(Logged::Disk);
        };
        if durable {
            match self.wal.as_mut().expect("durable mode holds a WAL").append(rec) {
                Ok(()) => return Ok(Logged::Disk),
                Err(e) => {
                    self.wal = None;
                    self.guard().storage_fault(FaultSite::WalAppend, &e.to_string());
                }
            }
        }
        self.guard().buffer_record(rec.clone());
        Ok(Logged::Buffered)
    }

    /// The degraded-mode machine (fault-tolerant mode only).
    fn guard(&mut self) -> &mut StorageGuard {
        self.guard.as_mut().expect("fault-tolerant mode holds a guard")
    }

    /// Day-boundary persistence; `boundary` is the next day to run
    /// (`d + 1`). While Durable: save the checkpoint and log the WAL
    /// marker (failures degrade). While Degraded: attempt a resync iff
    /// the breaker's cooldown has elapsed. Returns how the checkpoint
    /// marker was logged, or `None` when the boundary stayed diskless.
    fn checkpoint(
        &mut self,
        boundary: usize,
        text: &str,
        write_crash: Option<WriteCrash>,
    ) -> Result<Option<Logged>, RecoveryError> {
        let Some(mode) = self.guard.as_ref().map(StorageGuard::mode) else {
            let store = self.store.as_ref().expect("legacy path always holds a store");
            store.save(boundary, text, write_crash)?;
            let wal = self.wal.as_mut().expect("legacy path always holds a WAL");
            wal.append(&WalRecord::Checkpoint { next_day: boundary })?;
            return Ok(Some(Logged::Disk));
        };
        match mode {
            StorageMode::Durable => {
                let store = self.store.as_ref().expect("durable mode holds a store");
                match store.save(boundary, text, write_crash) {
                    Ok(report) => {
                        self.guard().note_prune_warnings(report.warnings.len());
                        Ok(Some(self.append(&WalRecord::Checkpoint { next_day: boundary })?))
                    }
                    Err(e) => {
                        self.guard().storage_fault(FaultSite::CheckpointSave, &e.to_string());
                        Ok(None)
                    }
                }
            }
            StorageMode::Degraded => {
                if self.guard().wants_resync() {
                    self.guard().begin_resync();
                    self.try_resync(boundary, text, write_crash);
                }
                Ok(None)
            }
            StorageMode::Resyncing => {
                unreachable!("a resync attempt completes or fails within its day boundary")
            }
        }
    }

    /// One resync attempt: make sure the store is open, write a fresh
    /// full checkpoint, then start a fresh WAL whose first record is
    /// the checkpoint marker. Any failure returns to Degraded and
    /// restarts the cooldown. Stale WAL content left by a failure here
    /// is harmless: recovery drops records before the restored
    /// checkpoint's boundary.
    fn try_resync(&mut self, boundary: usize, text: &str, write_crash: Option<WriteCrash>) {
        if self.store.is_none() {
            match CheckpointStore::open_with(self.cfg.vfs.clone(), &self.cfg.dir, self.cfg.keep) {
                Ok(s) => self.store = Some(s),
                Err(e) => return self.guard().resync_failed(&e.to_string()),
            }
        }
        let saved = self.store.as_ref().expect("opened above").save(boundary, text, write_crash);
        let report = match saved {
            Ok(r) => r,
            Err(e) => return self.guard().resync_failed(&e.to_string()),
        };
        let fresh = Wal::create_with(self.cfg.vfs.clone(), &self.cfg.wal_path())
            .and_then(|mut w| w.append(&WalRecord::Checkpoint { next_day: boundary }).map(|()| w));
        match fresh {
            Ok(w) => {
                self.wal = Some(w);
                let g = self.guard();
                g.note_prune_warnings(report.warnings.len());
                g.resync_complete();
            }
            Err(e) => {
                self.wal = None;
                self.guard().resync_failed(&e.to_string());
            }
        }
    }
}

/// The durable loop's hooks: live records go to the WAL (or the
/// degraded replay buffer), crash points fire around them, and
/// quarantined brokers are repaired from the newest good checkpoint
/// generation.
struct Durable {
    disk: DiskState,
    crash: Option<CrashPoint>,
    cfg: LacbConfig,
    num_brokers: usize,
}

impl Hooks<ResilientAssigner<Lacb>> for Durable {
    type Error = RecoveryError;

    fn log(&mut self, rec: &WalRecord) -> Result<Logged, RecoveryError> {
        if let WalRecord::Batch { day, batch, .. } = *rec {
            if self.crash == Some(CrashPoint::DuringWalAppend { day, batch }) {
                // A degraded run holds no WAL: the torn-append crash
                // window simply does not exist then.
                if let Some(w) = self.disk.wal.as_mut() {
                    w.append_torn(rec);
                }
            }
        }
        let logged = self.disk.append(rec)?;
        if let WalRecord::Admission { day, batch, .. } = *rec {
            if self.crash == Some(CrashPoint::AfterAdmission { day, batch }) {
                panic!("injected crash: after admission of batch {batch} day {day}");
            }
        }
        Ok(logged)
    }

    /// Advance the storage guard's integer clock by one batch.
    fn tick(&mut self) {
        if let Some(g) = self.disk.guard.as_mut() {
            g.advance_tick();
        }
    }

    fn executed(&mut self, day: usize, batch: usize, replayed: bool) {
        // After the crash point, so recovery replay applies the batch's
        // state fault and duplicated delivery exactly once.
        if !replayed && self.crash == Some(CrashPoint::AfterBatch { day, batch }) {
            panic!("injected crash: after batch {batch} of day {day}");
        }
    }

    /// Selective per-broker restore from the newest checkpoint
    /// generation whose matcher section verifies, falling back to
    /// re-initialization.
    ///
    /// Verification is section-granular ([`parse_v2_section`]): a
    /// checkpoint torn in an unrelated section still donates its matcher
    /// state. Capping the generation at the current day makes donor
    /// selection identical in the live run and in crash-recovery replay
    /// — a torn next-generation file left by a mid-checkpoint crash can
    /// never be chosen during replay when the live run could not see it.
    fn repair(&mut self, assigner: &mut ResilientAssigner<Lacb>, day: usize) {
        if !assigner.primary().has_quarantined_brokers() {
            return;
        }
        let donor = self.disk.store.as_ref().and_then(|store| {
            newest_good(store, day, |text| {
                let section = parse_v2_section(&text, "matcher").ok()?;
                Lacb::read_state(&mut section.lines(), self.cfg.clone(), self.num_brokers).ok()
            })
            .0
        });
        match donor {
            Some((generation, donor)) => {
                assigner.primary_mut().repair_from_donor(&donor, generation)
            }
            None => assigner.repair_quarantined_brokers(),
        }
    }
}

/// Run (or recover and finish) a durable resilient LACB run over the
/// whole horizon. Idempotent: killed at any point — including the
/// crash points [`DurableConfig::crash`] can inject — calling it again
/// on the same directory completes the run with bit-identical results.
pub fn run_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    serve_durable(dataset, cfg, rcfg, None, plan, dcfg)
}

/// Run (or recover and finish) an *overload-protected* durable run:
/// [`run_durable`]'s crash consistency with the admission/shedding/
/// breaker pipeline of [`crate::overload::run_overload`] in front of
/// the matcher.
///
/// Two extra guarantees over the plain durable loop:
///
/// * each tick's admission decision (the drained request ids) is
///   logged as a [`WalRecord::Admission`] **before** the batch is
///   matched or executed, so a crash between admission and apply —
///   [`CrashPoint::AfterAdmission`] injects exactly that window —
///   can never lose or double-assign an admitted request: recovery
///   recomputes the deterministic admission and verifies it against
///   the log, then re-executes the batch that never applied;
/// * the whole overload-controller state (queue, token bucket,
///   breakers, brownout ladder, spike EWMA, accounting) rides the
///   day-boundary checkpoint and is restored bit-identically.
pub fn run_overload_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    ocfg: &OverloadConfig,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    serve_durable(dataset, cfg, rcfg, Some(ocfg), plan, dcfg)
}

fn serve_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    overload: Option<&OverloadConfig>,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    let spiked = dataset.with_batch_spikes(&plan);
    let (disk, records, wal_recovery) = DiskState::open(dcfg)?;
    // Restore the newest checkpoint that verifies, falling back
    // generation by generation; none at all is a fresh start.
    let (restored, generations_skipped) = match disk.store.as_ref() {
        Some(store) => newest_good(store, usize::MAX, |text| {
            let ckpt = Checkpoint::from_text(&text).ok()?;
            Engine::restore(&spiked, &ckpt, cfg.clone(), rcfg.clone(), plan, overload).ok()
        }),
        None => (None, 0),
    };
    let (recovered_from, mut engine) = match restored {
        Some((day, engine)) => (Some(day), engine),
        None => (None, Engine::lacb(&spiked, cfg.clone(), rcfg, plan, overload)),
    };

    // The replay tail: records at or after the restored boundary.
    // Checkpoint marks are bookkeeping, not state, so they are dropped.
    let next_day = engine.position().0;
    let tail: Vec<WalRecord> = records
        .into_iter()
        .filter(|r| !matches!(r, WalRecord::Checkpoint { .. }) && r.day() >= next_day)
        .collect();
    if let Some(r) = tail.iter().find(|r| r.day() >= spiked.days.len()) {
        return Err(RecoveryError::Horizon(format!(
            "WAL record for day {} but horizon has {} days",
            r.day(),
            spiked.days.len()
        )));
    }
    engine.replay(tail);

    let num_brokers = engine.platform.num_brokers();
    let mut hooks = Durable { disk, crash: dcfg.crash, cfg, num_brokers };
    loop {
        let d = match engine.step(&mut hooks)? {
            Unit::Done => break,
            Unit::DayEnd(d) => d,
            _ => continue,
        };
        if dcfg.crash == Some(CrashPoint::BeforeCheckpoint { day: d }) {
            panic!("injected crash: before checkpoint of day {d}");
        }
        let write_crash = match dcfg.crash {
            Some(CrashPoint::DuringCheckpointWrite { day }) if day == d => {
                Some(WriteCrash::MidWrite)
            }
            Some(CrashPoint::BeforeCheckpointRename { day }) if day == d => {
                Some(WriteCrash::BeforeRename)
            }
            _ => None,
        };
        let text = Checkpoint::capture(&engine).to_v2_text();
        if let Some(logged) = hooks.disk.checkpoint(d + 1, &text, write_crash)? {
            engine.observe_log(logged);
        }
    }

    let replayed_batches = engine.replayed_batches;
    let (mut metrics, final_state) = engine.finish_lacb();
    // The guard's final accounting (none without storage-fault tolerance).
    metrics.storage = hooks.disk.guard.map(StorageGuard::finish);
    Ok(DurableOutcome {
        metrics,
        final_state,
        recovered_from,
        generations_skipped,
        replayed_batches,
        wal_recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::run_chaos;
    use crate::runner::RunConfig;
    use platform_sim::{seeded_schedule, FaultConfig, SyntheticConfig};

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

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("caam-supervisor-tests").join(name);
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
        assert_eq!(a.resilience, b.resilience);
        let (sa, sb) = (a.ledger.snapshot(), b.ledger.snapshot());
        assert_eq!(sa.realized_utility, sb.realized_utility);
        assert_eq!(sa.requests_served, sb.requests_served);
    }

    #[test]
    fn uninterrupted_durable_run_matches_run_chaos() {
        let ds = dataset(71);
        let plan = chaos_plan(43);
        let dir = scratch("uninterrupted");
        let out = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        assert_eq!(out.recovered_from, None);
        assert_eq!(out.replayed_batches, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_crash_point_variant_recovers_bit_identically() {
        let ds = dataset(73);
        let plan = chaos_plan(47);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        let batches: Vec<usize> = ds.days.iter().map(|d| d.len()).collect();
        // 5 points = one per variant; the CLI harness scales this to 10+.
        for (i, point) in seeded_schedule(97, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("variant-{i}"));
            let mut dcfg = DurableConfig::at(&dir);
            dcfg.crash = Some(point);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            }));
            assert!(crashed.is_err(), "crash point {point:?} did not fire");
            dcfg.crash = None;
            let out =
                run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
                    .unwrap_or_else(|e| panic!("recovery after {point:?} failed: {e}"));
            assert_bit_identical(&out.metrics, &reference_metrics);
            assert_eq!(out.final_state, reference_state, "state diverged after {point:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_last_known_good() {
        let ds = dataset(79);
        let plan = chaos_plan(53);
        let dir = scratch("fallback");
        // Crash right before day 2's checkpoint: generations 1 and 2 exist.
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(CrashPoint::BeforeCheckpoint { day: 2 });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
        }));
        assert!(crashed.is_err());
        // Vandalise the newest checkpoint: flip one byte in the middle.
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let (newest_day, newest_path) = store.generations()[0].clone();
        assert_eq!(newest_day, 2);
        let mut bytes = std::fs::read(&newest_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest_path, &bytes).unwrap();
        dcfg.crash = None;
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, Some(1), "must fall back past the corrupt generation");
        assert_eq!(out.generations_skipped, 1);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_checkpoints_corrupt_degrades_to_fresh_start_with_full_replay() {
        let ds = dataset(83);
        let plan = chaos_plan(59);
        let dir = scratch("fresh-replay");
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(CrashPoint::BeforeCheckpoint { day: 1 });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
        }));
        assert!(crashed.is_err());
        let store = CheckpointStore::open(&dir, 3).unwrap();
        for (_, path) in store.generations() {
            std::fs::write(&path, b"caam-ckpt v2\ngarbage\n").unwrap();
        }
        dcfg.crash = None;
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, None, "all generations corrupt: fresh start");
        assert!(out.replayed_batches > 0, "fresh start must still replay the WAL");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn overload_reference(
        ds: &Dataset,
        ocfg: &OverloadConfig,
        plan: FaultPlan,
    ) -> crate::overload::OverloadOutcome {
        crate::overload::run_overload(
            ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            ocfg,
            plan,
        )
    }

    #[test]
    fn uninterrupted_overload_durable_matches_in_memory_overload() {
        let base = dataset(101);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 5);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(63);
        let dir = scratch("overload-uninterrupted");
        let out = run_overload_durable(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        assert_eq!(out.metrics.total_utility.to_bits(), reference.metrics.total_utility.to_bits());
        assert_eq!(out.final_state, reference.final_state);
        assert_eq!(out.metrics.overload, reference.metrics.overload);
        assert_eq!(out.recovered_from, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_admission_and_apply_loses_no_admitted_request() {
        let base = dataset(103);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 9);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(67);
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        let spiked = ramp.dataset.with_batch_spikes(&plan);
        for (i, day) in (0..spiked.days.len()).enumerate() {
            let batch = spiked.days[day].len() - 1;
            let dir = scratch(&format!("overload-after-admission-{i}"));
            let mut dcfg = DurableConfig::at(&dir);
            dcfg.crash = Some(CrashPoint::AfterAdmission { day, batch });
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_overload_durable(
                    &ramp.dataset,
                    LacbConfig::default(),
                    ResilienceConfig::default(),
                    &ocfg,
                    plan,
                    &dcfg,
                )
            }));
            assert!(crashed.is_err(), "AfterAdmission d{day} b{batch} did not fire");
            dcfg.crash = None;
            let out = run_overload_durable(
                &ramp.dataset,
                LacbConfig::default(),
                ResilienceConfig::default(),
                &ocfg,
                plan,
                &dcfg,
            )
            .unwrap_or_else(|e| panic!("recovery after AfterAdmission d{day} failed: {e}"));
            // Bit-identical accounting proves no admitted request was
            // lost or double-assigned across the crash window.
            assert_eq!(out.metrics.overload, reference.metrics.overload);
            assert_eq!(
                out.metrics.total_utility.to_bits(),
                reference.metrics.total_utility.to_bits()
            );
            assert_eq!(out.final_state, reference.final_state);
            let ov = out.metrics.overload.as_ref().unwrap();
            assert!(ov.accounting_balanced());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn overload_durable_recovers_from_every_seeded_crash_variant() {
        let base = dataset(107);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 16], 13);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(71);
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        let spiked = ramp.dataset.with_batch_spikes(&plan);
        let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
        for (i, point) in seeded_schedule(113, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("overload-variant-{i}"));
            let mut dcfg = DurableConfig::at(&dir);
            dcfg.crash = Some(point);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_overload_durable(
                    &ramp.dataset,
                    LacbConfig::default(),
                    ResilienceConfig::default(),
                    &ocfg,
                    plan,
                    &dcfg,
                )
            }));
            assert!(crashed.is_err(), "crash point {point:?} did not fire");
            dcfg.crash = None;
            let out = run_overload_durable(
                &ramp.dataset,
                LacbConfig::default(),
                ResilienceConfig::default(),
                &ocfg,
                plan,
                &dcfg,
            )
            .unwrap_or_else(|e| panic!("recovery after {point:?} failed: {e}"));
            assert_eq!(out.metrics.overload, reference.metrics.overload);
            assert_eq!(
                out.metrics.total_utility.to_bits(),
                reference.metrics.total_utility.to_bits()
            );
            assert_eq!(out.final_state, reference.final_state, "state diverged after {point:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    fn flaky_cfg(seed: u64) -> platform_sim::StorageFaultConfig {
        // Aggressive point faults so a 3-day run is essentially
        // guaranteed to trip the guard at least once.
        platform_sim::StorageFaultConfig {
            seed,
            append_enospc: 0.5,
            fsync_fail: 0.3,
            rename_fail: 0.3,
            ..platform_sim::StorageFaultConfig::default()
        }
    }

    fn dead_disk_cfg(seed: u64) -> platform_sim::StorageFaultConfig {
        // Every window of every op fails: the disk is simply gone.
        platform_sim::StorageFaultConfig {
            seed,
            disk_gone: 1.0,
            disk_gone_every: 1,
            disk_gone_span: 1,
            ..platform_sim::StorageFaultConfig::default()
        }
    }

    #[test]
    fn degraded_run_stays_bit_identical_with_exact_accounting() {
        let ds = dataset(131);
        let plan = chaos_plan(77);
        let dir = scratch("degraded-identical");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(flaky_cfg(9))))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert!(storage.faults > 0, "fault config never fired: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        // Degraded paths never touch the matcher/platform/ledger, so
        // serving results match a fault-free in-memory run exactly.
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_fault_degrades_then_resyncs_back_to_durable() {
        let ds = dataset(137);
        let plan = chaos_plan(79);
        let dir = scratch("resync-durable");
        // Exactly one injected ENOSPC on the 6th WAL append; the disk
        // is healthy otherwise, so the cooldown's first day-boundary
        // probe must resync and re-arm the WAL.
        let fault = platform_sim::SingleFault {
            op: durability::VfsOp::Append,
            index: 5,
            kind: platform_sim::SingleFaultKind::Enospc,
        };
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::single(fault)))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert_eq!(storage.faults, 1, "{storage:?}");
        assert_eq!(storage.wal_append_failures, 1);
        assert_eq!(storage.degraded_entries, 1);
        assert_eq!(storage.resyncs_completed, 1, "{storage:?}");
        assert_eq!(storage.final_mode, StorageMode::Durable);
        assert!(storage.buffered_total > 0, "records must buffer while degraded");
        assert_eq!(storage.covered_by_resync, storage.buffered_total);
        assert_eq!(storage.buffered_final, 0);
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        // The resync left a healthy store + WAL behind: a plain re-run
        // on the same directory must recover, not start fresh.
        let resumed = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        assert!(resumed.recovered_from.is_some(), "resynced state must be recoverable");
        assert_bit_identical(&resumed.metrics, &reference_metrics);
        assert_eq!(resumed.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_disk_serves_diskless_from_birth() {
        let ds = dataset(139);
        let plan = chaos_plan(83);
        let dir = scratch("diskless-birth");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead_disk_cfg(5))))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, None);
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert_eq!(storage.final_mode, StorageMode::Degraded, "{storage:?}");
        assert_eq!(storage.resyncs_completed, 0);
        assert!(storage.resync_attempts > 0, "cooldown must keep probing: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_fault_without_guard_stays_a_typed_error() {
        let ds = dataset(149);
        let plan = chaos_plan(87);
        let dir = scratch("legacy-typed-error");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead_disk_cfg(3))));
        let err = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap_err();
        assert!(
            matches!(err, RecoveryError::Store(_) | RecoveryError::Wal(_)),
            "expected a typed storage error, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_durable_survives_storage_faults_with_balanced_accounting() {
        let base = dataset(151);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 17);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(91);
        let dir = scratch("overload-degraded");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(flaky_cfg(21))))
            .with_storage(StorageConfig::default());
        let out = run_overload_durable(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
            &dcfg,
        )
        .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert!(storage.faults > 0, "fault config never fired: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(ov.accounting_balanced());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_wal_is_rejected_not_replayed() {
        let ds = dataset(89);
        let plan = chaos_plan(61);
        let dir = scratch("foreign-wal");
        std::fs::create_dir_all(&dir).unwrap();
        // A WAL from a longer horizon: day 7 does not exist here.
        let mut wal = Wal::create(&dir.join(WAL_FILE)).unwrap();
        wal.append(&WalRecord::DayStart { day: 7 }).unwrap();
        drop(wal);
        let err = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::Horizon(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
