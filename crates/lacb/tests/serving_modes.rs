//! One serving core behind every run mode: each driver must reproduce
//! the same serving results bit for bit, and each must report the stage
//! timings of the units it executed.

use durability::{StdVfs, StorageError, Vfs};
use lacb::checkpoint::{resume_chaos, run_chaos_until};
use lacb::serving::Engine;
use lacb::{
    run, run_chaos, run_durable, run_overload, run_overload_durable, run_replicated, DurableConfig,
    Lacb, LacbConfig, OverloadConfig, ReplicationConfig, ResilienceConfig, ResilientAssigner,
    RunConfig, RunMetrics,
};
use platform_sim::{
    ramp_dataset, Dataset, FaultConfig, FaultPlan, KillPoint, NetFaultConfig, NetFaultPlan,
    SyntheticConfig,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn dataset(seed: u64) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 24,
        num_requests: 480,
        days: 3,
        imbalance: 0.25,
        seed,
    })
}

/// The two fault plans of the matrix: empty, and outages plus a lossy
/// feedback channel.
fn plans() -> [FaultPlan; 2] {
    [
        FaultPlan::new(FaultConfig::scenario("none", 1).unwrap()),
        FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", 7).unwrap()),
    ]
}

fn clean_link() -> NetFaultPlan {
    NetFaultPlan::new(NetFaultConfig::default())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("caam-serving-modes").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn resilient(cfg: &LacbConfig) -> ResilientAssigner<Lacb> {
    ResilientAssigner::new(Lacb::new(cfg.clone()), ResilienceConfig::default())
}

fn state_of(lacb: &Lacb) -> String {
    let mut out = String::new();
    lacb.write_state(&mut out);
    out
}

/// What must match across modes: the utility totals, bit for bit, and
/// the matcher's final learned state.
fn fingerprint(m: &RunMetrics, state: String) -> (u64, Vec<u64>, String) {
    (m.total_utility.to_bits(), m.daily_utility.iter().map(|u| u.to_bits()).collect(), state)
}

fn batches(ds: &Dataset, from_day: usize) -> usize {
    ds.days.iter().skip(from_day).map(Vec::len).sum()
}

/// One timing entry per executed day and per executed batch.
fn assert_timed(mode: &str, m: &RunMetrics, days: usize, batches: usize) {
    let t = &m.timings;
    assert_eq!(t.begin_day_secs.len(), days, "{mode}: begin_day entries");
    assert_eq!(t.end_day_secs.len(), days, "{mode}: end_day entries");
    assert_eq!(t.assign_batch_secs.len(), batches, "{mode}: batch entries");
}

#[test]
fn run_equals_run_chaos_under_an_empty_plan() {
    let empty = plans()[0];
    for seed in [3, 11, 29] {
        let ds = dataset(seed);
        for cfg in [LacbConfig::default(), LacbConfig::opt()] {
            let mut plain = Lacb::new(cfg.clone());
            let a = run(&ds, &mut plain, &RunConfig::default());
            let mut plain_chaos = Lacb::new(cfg.clone());
            let b = run_chaos(&ds, &mut plain_chaos, &RunConfig::default(), empty);
            assert_eq!(
                fingerprint(&a, state_of(&plain)),
                fingerprint(&b, state_of(&plain_chaos)),
                "plain {} on seed {seed}",
                a.algorithm
            );

            let mut wrapped = resilient(&cfg);
            let a = run(&ds, &mut wrapped, &RunConfig::default());
            let mut wrapped_chaos = resilient(&cfg);
            let b = run_chaos(&ds, &mut wrapped_chaos, &RunConfig::default(), empty);
            assert_eq!(
                fingerprint(&a, state_of(wrapped.primary())),
                fingerprint(&b, state_of(wrapped_chaos.primary())),
                "{} on seed {seed}",
                a.algorithm
            );
        }
    }
}

#[test]
fn chaos_resume_durable_and_replicated_runs_are_bit_identical() {
    let ds = dataset(41);
    let cfg = LacbConfig::default();
    let rcfg = ResilienceConfig::default();
    for (p, plan) in plans().into_iter().enumerate() {
        let mut direct = resilient(&cfg);
        let chaos = run_chaos(&ds, &mut direct, &RunConfig::default(), plan);
        let reference = fingerprint(&chaos, state_of(direct.primary()));

        let ckpt = run_chaos_until(&ds, cfg.clone(), rcfg.clone(), plan, 0).unwrap();
        let resumed = resume_chaos(&ds, &ckpt, cfg.clone(), rcfg.clone(), plan).unwrap();
        // `resume_chaos` reports metrics only; its pipeline, rebuilt from
        // the same checkpoint, yields the learned state.
        let spiked = ds.with_batch_spikes(&plan);
        let mut engine =
            Engine::restore(&spiked, &ckpt, cfg.clone(), rcfg.clone(), plan, None).unwrap();
        engine.run_to_end();
        assert_eq!(fingerprint(&resumed, engine.learned_state()), reference, "resume, plan {p}");

        let dir = scratch(&format!("durable-{p}"));
        let durable =
            run_durable(&ds, cfg.clone(), rcfg.clone(), plan, &DurableConfig::at(&dir)).unwrap();
        assert_eq!(durable.recovered_from, None);
        assert_eq!(
            fingerprint(&durable.metrics, durable.final_state),
            reference,
            "durable, plan {p}"
        );
        std::fs::remove_dir_all(&dir).ok();

        let dir = scratch(&format!("replicated-{p}"));
        let replicated = run_replicated(
            &ds,
            cfg.clone(),
            rcfg.clone(),
            plan,
            clean_link(),
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        assert!(!replicated.promoted);
        assert_eq!(replicated.follower_converged, Some(true));
        assert_eq!(
            fingerprint(&replicated.metrics, replicated.final_state),
            reference,
            "replicated, plan {p}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn overload_and_overload_durable_runs_are_bit_identical() {
    let base = dataset(43);
    let ramp = ramp_dataset(&base, &[1, 8], 5);
    let ocfg = OverloadConfig::sized_for(&base);
    let (cfg, rcfg) = (LacbConfig::default(), ResilienceConfig::default());
    for (p, plan) in plans().into_iter().enumerate() {
        let memory = run_overload(&ramp.dataset, cfg.clone(), rcfg.clone(), &ocfg, plan);
        let dir = scratch(&format!("overload-durable-{p}"));
        let durable = run_overload_durable(
            &ramp.dataset,
            cfg.clone(),
            rcfg.clone(),
            &ocfg,
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        assert_eq!(
            fingerprint(&durable.metrics, durable.final_state),
            fingerprint(&memory.metrics, memory.final_state),
            "plan {p}"
        );
        assert_eq!(durable.metrics.overload, memory.metrics.overload, "plan {p}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn every_mode_reports_stage_timings() {
    let ds = dataset(47);
    let plan = plans()[1];
    let spiked = ds.with_batch_spikes(&plan);
    let (days, all) = (spiked.days.len(), batches(&spiked, 0));
    // LACB-Opt routes its batches through the sparse path, so the
    // deterministic sparse counters are non-zero.
    let cfg = LacbConfig::opt();
    let rcfg = ResilienceConfig::default();

    let plain = run(&ds, &mut Lacb::new(cfg.clone()), &RunConfig::default());
    assert_timed("run", &plain, ds.days.len(), batches(&ds, 0));

    let mut direct = resilient(&cfg);
    let chaos = run_chaos(&ds, &mut direct, &RunConfig::default(), plan);
    assert_timed("run_chaos", &chaos, days, all);

    let ckpt = run_chaos_until(&ds, cfg.clone(), rcfg.clone(), plan, 0).unwrap();
    let resumed = resume_chaos(&ds, &ckpt, cfg.clone(), rcfg.clone(), plan).unwrap();
    assert_timed("resume_chaos", &resumed, days - 1, batches(&spiked, 1));

    let dir = scratch("timings-durable");
    let durable =
        run_durable(&ds, cfg.clone(), rcfg.clone(), plan, &DurableConfig::at(&dir)).unwrap();
    assert_timed("run_durable", &durable.metrics, days, all);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("timings-replicated");
    let replicated = run_replicated(
        &ds,
        cfg.clone(),
        rcfg.clone(),
        plan,
        clean_link(),
        &ReplicationConfig::at(&dir),
    )
    .unwrap();
    assert_timed("run_replicated", &replicated.metrics, days, all);
    std::fs::remove_dir_all(&dir).ok();

    let ramp = ramp_dataset(&ds, &[1, 4], 9);
    let ocfg = OverloadConfig::sized_for(&ds);
    let ramped = ramp.dataset.with_batch_spikes(&plan);
    let (ramp_days, ramp_batches) = (ramped.days.len(), batches(&ramped, 0));
    let overload = run_overload(&ramp.dataset, cfg.clone(), rcfg.clone(), &ocfg, plan);
    assert_timed("run_overload", &overload.metrics, ramp_days, ramp_batches);
    // A tick whose admission drains nothing is still a timed batch tick.
    let starved = OverloadConfig { bucket_capacity: 0, tokens_per_tick: 0, ..ocfg.clone() };
    let idle = run_overload(&ramp.dataset, cfg.clone(), rcfg.clone(), &starved, plan);
    assert_eq!(idle.metrics.overload.as_ref().map(|ov| ov.admitted), Some(0));
    assert_timed("run_overload, nothing admitted", &idle.metrics, ramp_days, ramp_batches);
    let dir = scratch("timings-overload-durable");
    let overload_durable = run_overload_durable(
        &ramp.dataset,
        cfg.clone(),
        rcfg.clone(),
        &ocfg,
        plan,
        &DurableConfig::at(&dir),
    )
    .unwrap();
    assert_timed("run_overload_durable", &overload_durable.metrics, ramp_days, ramp_batches);
    std::fs::remove_dir_all(&dir).ok();

    let sparse =
        |m: &RunMetrics| (m.timings.breakdown.sparse_rows, m.timings.breakdown.sparse_edges);
    assert!(sparse(&chaos).0 > 0, "LACB-Opt must take the sparse path");
    assert_eq!(sparse(&durable.metrics), sparse(&chaos), "durable vs chaos sparse counters");
    assert_eq!(sparse(&replicated.metrics), sparse(&chaos), "replicated primary vs chaos");
}

/// A [`Vfs`] over the real filesystem that records every whole-file
/// write.
#[derive(Debug, Default)]
struct RecordingVfs {
    writes: Mutex<Vec<(PathBuf, usize)>>,
}

impl Vfs for RecordingVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        StdVfs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.writes.lock().unwrap().push((path.to_path_buf(), bytes.len()));
        StdVfs.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        StdVfs.append(path, bytes)
    }
    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        StdVfs.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        StdVfs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        StdVfs.remove(path)
    }
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        StdVfs.list(dir)
    }
    fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        StdVfs.truncate(path, len)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        StdVfs.create_dir_all(dir)
    }
}

#[test]
fn mid_checkpoint_kill_writes_its_torn_tmp_through_the_vfs() {
    let ds = dataset(53);
    let plan = plans()[1];
    let dir = scratch("mid-checkpoint-vfs");
    let vfs = Arc::new(RecordingVfs::default());
    let mut repl = ReplicationConfig::at(&dir).with_vfs(vfs.clone());
    repl.kill = Some(KillPoint::MidCheckpoint { day: 0 });
    let out = run_replicated(
        &ds,
        LacbConfig::default(),
        ResilienceConfig::default(),
        plan,
        clean_link(),
        &repl,
    )
    .unwrap();
    assert!(out.promoted, "the killed primary must be replaced");

    // Day 0's boundary checkpoint is generation 1; the kill leaves half
    // of it in the tmp file the atomic save stages through.
    let tmp = dir.join("ckpt-000001.caam.tmp");
    let writes = vfs.writes.lock().unwrap();
    let torn: Vec<usize> = writes.iter().filter(|(p, _)| *p == tmp).map(|(_, n)| *n).collect();
    assert_eq!(torn.len(), 1, "the torn tmp write must go through the Vfs: {writes:?}");
    let on_disk = std::fs::metadata(&tmp).expect("the torn tmp stays on disk").len();
    assert_eq!(torn[0] as u64, on_disk);
    assert!(on_disk > 0);
    assert!(
        !dir.join("ckpt-000001.caam").exists(),
        "a killed save must never promote its generation"
    );
    drop(writes);
    std::fs::remove_dir_all(&dir).ok();
}
