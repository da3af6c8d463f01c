//! The three workloads: how each builds its inputs from the seed, runs
//! one serving horizon through a public entry point, and checks the
//! result.

use crate::probe::{AssignLog, ProbeAssigner, ProbeVfs, VfsLog, OPS};
use crate::stats::{split_gaps, Commit, Gaps};
use crate::trace::{Observed, Trace};
use lacb::supervisor::{run_overload_durable, DurableConfig, WAL_FILE};
use lacb::{
    run, run_replicated, Lacb, LacbConfig, OverloadConfig, ReplicationConfig, ResilienceConfig,
    RunConfig, REPLICA_WAL_FILE,
};
use platform_sim::{
    ramp_dataset, CityId, Dataset, FaultConfig, FaultPlan, NetFaultConfig, NetFaultPlan,
    RealWorldConfig, SyntheticConfig,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Salt separating the traffic ramp's clone jitter from the base world.
const RAMP_SALT: u64 = 0x4A;

/// A workload and the size of its world. [`Spec::of`] gives the sizes
/// the benchmark runs; tests shrink them.
#[derive(Clone, Debug)]
pub enum Spec {
    /// City B at `scale`, LACB-Opt at `threads`, in memory via `lacb::run`.
    CityServe { scale: f64, threads: usize },
    /// A synthetic world served by a primary/follower pair via
    /// `lacb::run_replicated`, on a clean link.
    ReplicatedDays { brokers: usize, requests: usize, days: usize, imbalance: f64 },
    /// City B at `scale` with `batches_per_day`, ramped by `stages`,
    /// served via `lacb::supervisor::run_overload_durable`.
    OverloadRamp { scale: f64, batches_per_day: usize, stages: Vec<u32> },
}

pub const NAMES: [&str; 3] = ["city-serve", "replicated-days", "overload-ramp"];

impl Spec {
    pub fn of(name: &str) -> Option<Spec> {
        Some(match name {
            "city-serve" => Spec::CityServe { scale: 0.25, threads: 2 },
            "replicated-days" => {
                Spec::ReplicatedDays { brokers: 300, requests: 36_000, days: 120, imbalance: 0.04 }
            }
            "overload-ramp" => {
                Spec::OverloadRamp { scale: 0.06, batches_per_day: 96, stages: vec![1, 4, 16] }
            }
            _ => return None,
        })
    }

    /// The WAL file a durable workload writes, if any.
    fn wal_file(&self) -> Option<&'static str> {
        match self {
            Spec::CityServe { .. } => None,
            Spec::ReplicatedDays { .. } => Some(REPLICA_WAL_FILE),
            Spec::OverloadRamp { .. } => Some(WAL_FILE),
        }
    }

    /// Build the inputs of one repetition: the workload's fixed broker
    /// population and a request stream drawn from `seed`.
    pub fn build(&self, seed: u64, state_dir: &Path) -> Inputs {
        match self {
            Spec::CityServe { scale, threads } => {
                let ds = city(*scale, RealWorldConfig::full(CityId::B).batches_per_day, seed);
                let matcher = Lacb::new(LacbConfig { n_threads: *threads, ..LacbConfig::opt() });
                Inputs { dataset: ds, overload: None, matcher: Some(matcher), dir: None }
            }
            Spec::ReplicatedDays { brokers, requests, days, imbalance } => {
                let cfg = |seed| SyntheticConfig {
                    num_brokers: *brokers,
                    num_requests: *requests,
                    days: *days,
                    imbalance: *imbalance,
                    seed,
                };
                let mut ds = Dataset::synthetic(&cfg(seed));
                ds.brokers = Dataset::synthetic(&cfg(SyntheticConfig::default().seed)).brokers;
                Inputs { dataset: ds, overload: None, matcher: None, dir: Some(fresh(state_dir)) }
            }
            Spec::OverloadRamp { scale, batches_per_day, stages } => {
                let base = city(*scale, *batches_per_day, seed);
                let ocfg = OverloadConfig::sized_for(&base);
                let ramp = ramp_dataset(&base, stages, seed ^ RAMP_SALT);
                Inputs {
                    dataset: ramp.dataset,
                    overload: Some(ocfg),
                    matcher: None,
                    dir: Some(fresh(state_dir)),
                }
            }
        }
    }
}

/// City B at `scale`: the brokers of the generator's default seed, the
/// requests of `seed`. (Brokers are drawn before requests, so a broker
/// population can be regenerated cheaply with almost no requests.)
fn city(scale: f64, batches_per_day: usize, seed: u64) -> Dataset {
    let cfg = RealWorldConfig { batches_per_day, ..RealWorldConfig::scaled(CityId::B, scale) };
    let mut ds = Dataset::real_world(&RealWorldConfig { seed, ..cfg });
    ds.brokers = Dataset::real_world(&RealWorldConfig { request_scale: 1e-4, ..cfg }).brokers;
    ds
}

/// Remove anything left at `dir` and create it empty.
fn fresh(dir: &Path) -> PathBuf {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear a stale state directory");
    }
    std::fs::create_dir_all(dir).expect("create the state directory");
    dir.to_path_buf()
}

/// One repetition's inputs, built before the horizon starts.
pub struct Inputs {
    pub dataset: Dataset,
    overload: Option<OverloadConfig>,
    matcher: Option<Lacb>,
    dir: Option<PathBuf>,
}

/// What one horizon produced.
#[derive(Debug, Default)]
pub struct Horizon {
    pub secs: f64,
    pub commits: Vec<Commit>,
    /// The horizon cut at its commits.
    pub gaps: Gaps,
    /// `None` when the run errored or panicked.
    pub total_utility: Option<f64>,
    pub offered: u64,
    pub served: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    pub failures: Vec<String>,
    /// Per-layer metrics of this horizon (all of them traced; only the
    /// counts untraced).
    pub layer: BTreeMap<String, f64>,
    pub trace: Option<Trace>,
    /// WAL appends and fsyncs by file, for the flush-policy record.
    pub flush: Option<String>,
}

/// Run one horizon over `inputs`, removing the state directory after.
pub fn run_horizon(spec: &Spec, inputs: Inputs, traced: bool, run_id: u32) -> Horizon {
    let origin = Instant::now();
    let vfs = spec.wal_file().map(|w| Arc::new(ProbeVfs::new(w, traced, origin)));
    let Inputs { dataset, overload, matcher, dir } = inputs;
    let mut h = Horizon { offered: dataset.total_requests() as u64, ..Horizon::default() };
    let batches = dataset.days.iter().map(Vec::len).sum::<usize>() as u64;
    let days = dataset.days.len() as f64;
    let rcfg = ResilienceConfig::default();
    let plan = FaultPlan::new(FaultConfig::default());
    let durable_cfg = LacbConfig { n_threads: 1, ..LacbConfig::opt() };
    let mut observed: Vec<Observed> = Vec::new();
    let h0;
    let h1;

    match spec {
        Spec::CityServe { .. } => {
            let matcher = matcher.expect("city-serve builds its matcher in setup");
            let mut probe = ProbeAssigner::new(matcher, traced, origin);
            let pool_before = pool::stats();
            h0 = ns(origin);
            let result =
                catch_unwind(AssertUnwindSafe(|| run(&dataset, &mut probe, &RunConfig::default())));
            h1 = ns(origin);
            let ps = pool::stats();
            let log = std::mem::take(&mut probe.log);
            match result {
                Ok(m) => {
                    h.total_utility = Some(m.total_utility);
                    let ledger_served: f64 = m.ledger.per_broker_served().iter().sum();
                    check_city(&log, batches, ledger_served, &mut h);
                }
                Err(_) => h.failures.push("lacb::run panicked".into()),
            }
            h.commits = log.commits.clone();
            let secs = (h1 - h0) as f64 * 1e-9;
            let l = &mut h.layer;
            l.insert("bandit.trials".into(), log.trials as f64);
            if traced {
                let inside = log.begin_day_secs + log.assign_secs + log.end_day_secs;
                let s = &log.stages;
                for (k, v) in [
                    ("lacb.begin_day_s", log.begin_day_secs),
                    ("lacb.assign_batch_s", log.assign_secs),
                    ("lacb.end_day_s", log.end_day_secs),
                    ("runner.outside_s", secs - inside),
                    ("unattributed_s", secs - inside),
                    ("cbs.build_s", s.sparse_build_secs),
                    ("cbs.rows", s.sparse_rows as f64),
                    ("cbs.edges", s.sparse_edges as f64),
                    ("cbs.edges_per_row", s.sparse_edges as f64 / s.sparse_rows.max(1) as f64),
                    ("cbs.select_s", s.cbs_select_secs),
                    ("km.solve_s", s.km_solve_secs),
                    ("km.ops", log.km_ops as f64),
                    ("bandit.score_s", s.bandit_score_secs),
                    ("pool.sync_s", (ps.sync_nanos - pool_before.sync_nanos) as f64 * 1e-9),
                    (
                        "pool.parallel_rounds",
                        (ps.parallel_rounds - pool_before.parallel_rounds) as f64,
                    ),
                    ("pool.inline_rounds", (ps.inline_rounds - pool_before.inline_rounds) as f64),
                ] {
                    l.insert(k.into(), v);
                }
                observed = log.spans;
            }
        }
        Spec::ReplicatedDays { .. } => {
            let dir = dir.expect("replicated-days has a state directory");
            let vfs = vfs.clone().expect("durable workloads watch their Vfs");
            let repl = ReplicationConfig::at(&dir).with_vfs(vfs.clone());
            let net = NetFaultPlan::new(NetFaultConfig::default());
            h0 = ns(origin);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_replicated(&dataset, durable_cfg, rcfg, plan, net, &repl)
            }));
            h1 = ns(origin);
            let log = vfs.take();
            match result {
                Ok(Ok(out)) => {
                    h.total_utility = Some(out.metrics.total_utility);
                    if out.promoted {
                        h.failures.push("the follower was promoted on a clean link".into());
                    }
                    if out.follower_converged != Some(true) {
                        h.failures.push(format!(
                            "follower_converged is {:?}, not Some(true)",
                            out.follower_converged
                        ));
                    }
                    let r = &out.replication;
                    for (k, v) in [
                        ("replica.frames_shipped", r.frames_shipped),
                        ("replica.frames_applied", r.frames_applied),
                        ("replica.pruned_records", r.pruned_records),
                        ("replica.max_lag", r.max_lag),
                        ("replica.wal_pruned", out.wal_pruned),
                    ] {
                        h.layer.insert(k.into(), v as f64);
                    }
                }
                Ok(Err(e)) => h.failures.push(format!("run_replicated failed: {e}")),
                Err(_) => h.failures.push("run_replicated panicked".into()),
            }
            observed = finish_durable(&log, batches, days, traced, &mut h);
            remove_state(&dir, &mut h);
        }
        Spec::OverloadRamp { .. } => {
            let dir = dir.expect("overload-ramp has a state directory");
            let vfs = vfs.clone().expect("durable workloads watch their Vfs");
            let dcfg = DurableConfig::at(&dir).with_vfs(vfs.clone());
            let ocfg = overload.expect("overload-ramp sizes its admission control in setup");
            h0 = ns(origin);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_overload_durable(&dataset, durable_cfg, rcfg, &ocfg, plan, &dcfg)
            }));
            h1 = ns(origin);
            let log = vfs.take();
            match result {
                Ok(Ok(out)) => {
                    h.total_utility = Some(out.metrics.total_utility);
                    if out.recovered_from.is_some() {
                        h.failures.push(format!(
                            "a fresh directory recovered from day {:?}",
                            out.recovered_from
                        ));
                    }
                    match &out.metrics.overload {
                        Some(ov) => {
                            if !ov.accounting_balanced() {
                                h.failures.push("admission accounting does not balance".into());
                            }
                            if ov.offered != h.offered {
                                h.failures.push(format!(
                                    "admission saw {} requests, the ramp offered {}",
                                    ov.offered, h.offered
                                ));
                            }
                            if ov.served != log.served {
                                h.failures.push(format!(
                                    "admission counts {} served, the WAL {}",
                                    ov.served, log.served
                                ));
                            }
                            h.shed = ov.shed_total();
                            for (k, v) in [
                                ("admission.offered", ov.offered),
                                ("admission.admitted", ov.admitted),
                                ("admission.served", ov.served),
                                ("admission.shed_queue_full", ov.shed_queue_full),
                                ("admission.shed_deadline", ov.shed_deadline),
                                ("admission.shed_watermark", ov.shed_watermark),
                                ("admission.leftover_queued", ov.leftover_queued),
                                ("admission.breaker_trips", ov.breaker_trips),
                                ("admission.brownout_escalations", ov.brownout_escalations),
                                ("admission.reduced_cbs_batches", ov.reduced_cbs_batches),
                                ("admission.greedy_batches", ov.greedy_batches),
                            ] {
                                h.layer.insert(k.into(), v as f64);
                            }
                        }
                        None => {
                            h.failures.push("the overload run carried no admission stats".into())
                        }
                    }
                }
                Ok(Err(e)) => h.failures.push(format!("run_overload_durable failed: {e}")),
                Err(_) => h.failures.push("run_overload_durable panicked".into()),
            }
            observed = finish_durable(&log, batches, days, traced, &mut h);
            if log.admission_records != batches {
                h.failures.push(format!(
                    "{} admission records for {batches} batches",
                    log.admission_records
                ));
            }
            remove_state(&dir, &mut h);
        }
    }
    h.secs = (h1 - h0) as f64 * 1e-9;
    h.gaps = split_gaps(&h.commits, h0, h1);
    if traced && spec.wal_file().is_some() {
        // The Vfs calls are the only spans a durable loop exposes.
        let in_vfs: f64 = observed.iter().map(|o| (o.end_ns - o.start_ns) as f64 * 1e-9).sum();
        h.layer.insert("unattributed_s".into(), h.secs - in_vfs);
    }
    if traced {
        let t = Trace::build(run_id, (h0, h1), &h.commits, &observed);
        let r = t.reduce();
        if let Some(a) = r.get("lacb.assign_batch") {
            h.layer.insert("lacb.assign_self_s".into(), a.2);
        }
        h.trace = Some(t);
    }
    h
}

fn ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
}

/// city-serve checks: one returned assignment per batch, each a
/// matching of the batch's size, and the served count the ledger saw.
fn check_city(log: &AssignLog, batches: u64, ledger_served: f64, h: &mut Horizon) {
    if log.assignments.len() as u64 != batches {
        h.failures.push(format!("{} assignments for {batches} batches", log.assignments.len()));
    }
    if log.misshapen > 0 {
        h.failures.push(format!("{} assignments do not match their batch size", log.misshapen));
    }
    let mut served = 0u64;
    let mut unassigned = 0u64;
    for a in &log.assignments {
        if catch_unwind(|| lacb::assigner::assert_is_matching(a)).is_err() {
            h.failures.push("a batch assignment is not a matching".into());
            break;
        }
        served += a.iter().flatten().count() as u64;
        unassigned += a.iter().filter(|s| s.is_none()).count() as u64;
    }
    if served + unassigned != h.offered || log.offered != h.offered {
        h.failures.push(format!(
            "served {served} + unassigned {unassigned} != offered {} (assigner saw {})",
            h.offered, log.offered
        ));
    }
    if served as f64 != ledger_served {
        h.failures.push(format!("assigner served {served}, the ledger {ledger_served}"));
    }
    h.served = served;
}

/// Shared tail of the durable workloads: commits, served count, the
/// batch-record check, the Vfs metrics and the flush-policy record.
fn finish_durable(
    log: &VfsLog,
    batches: u64,
    days: f64,
    traced: bool,
    h: &mut Horizon,
) -> Vec<Observed> {
    h.commits = log.commits.clone();
    h.served = log.served;
    if log.batch_records != batches {
        h.failures.push(format!("{} WAL batch records for {batches} batches", log.batch_records));
    }
    if log.unparsed_appends > 0 {
        h.failures.push(format!("{} WAL appends did not parse", log.unparsed_appends));
    }
    let records =
        log.batch_records + log.admission_records + log.day_end_records + log.other_records;
    h.flush = Some(format!(
        "{} WAL appends with {} fsyncs on the WAL (prune rewrites); \
         {} checkpoint fsyncs over {days} days",
        records + log.unparsed_appends,
        log.wal_fsyncs,
        log.ckpt_fsyncs
    ));
    let l = &mut h.layer;
    l.insert("bandit.trials".into(), log.trials as f64);
    l.insert(
        "wal.bytes_per_batch".into(),
        log.wal_append_bytes as f64 / log.batch_records.max(1) as f64,
    );
    l.insert("ckpt.bytes_per_day".into(), log.ckpt_write_bytes as f64 / days.max(1.0));
    l.insert("wal.fsyncs_per_record".into(), log.wal_fsyncs as f64 / records.max(1) as f64);
    for (op, st) in OPS.iter().zip(&log.ops) {
        l.insert(format!("vfs.{}.n", op.label()), st.n as f64);
        l.insert(format!("vfs.{}.bytes", op.label()), st.bytes as f64);
        if traced {
            l.insert(format!("vfs.{}_s", op.label()), st.secs);
        }
    }
    if traced {
        log.spans.clone()
    } else {
        Vec::new()
    }
}

/// Remove the state directory and check it is gone.
fn remove_state(dir: &Path, h: &mut Horizon) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        h.failures.push(format!("could not remove the state directory: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::{StdVfs, Vfs};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("servebench-{name}-{}", std::process::id()))
    }

    fn tiny(name: &str) -> Spec {
        match name {
            "city-serve" => Spec::CityServe { scale: 0.01, threads: 2 },
            "replicated-days" => {
                Spec::ReplicatedDays { brokers: 20, requests: 400, days: 3, imbalance: 0.2 }
            }
            _ => Spec::OverloadRamp { scale: 0.01, batches_per_day: 8, stages: vec![1, 4] },
        }
    }

    /// Every file of `dir`, by name, with the timing lines of
    /// checkpoints (elapsed seconds) left out: those differ between any
    /// two runs.
    fn contents(dir: &Path) -> BTreeMap<String, Vec<String>> {
        let mut out = BTreeMap::new();
        for e in std::fs::read_dir(dir).unwrap() {
            let path = e.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let lines: Vec<String> = if name.starts_with("ckpt-") {
                durability::parse_v2(&text)
                    .expect("a valid checkpoint")
                    .into_iter()
                    .flat_map(|(section, body)| {
                        let body: Vec<String> = body
                            .lines()
                            .filter(|l| {
                                !l.starts_with("elapsed") && !l.starts_with("daily-elapsed")
                            })
                            .map(str::to_string)
                            .collect();
                        std::iter::once(section).chain(body)
                    })
                    .collect()
            } else {
                text.lines().map(str::to_string).collect()
            };
            out.insert(name, lines);
        }
        out
    }

    #[test]
    fn probe_vfs_matches_std_vfs_byte_for_byte() {
        let ops = |vfs: &dyn Vfs, dir: &Path| {
            vfs.create_dir_all(dir).unwrap();
            vfs.write(&dir.join("a.tmp"), b"alpha\n").unwrap();
            vfs.append(&dir.join("a.tmp"), b"beta\n").unwrap();
            vfs.fsync(&dir.join("a.tmp")).unwrap();
            vfs.rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
            vfs.write(&dir.join("b"), b"gone").unwrap();
            vfs.remove(&dir.join("b")).unwrap();
            vfs.append(&dir.join("c"), b"0123456789").unwrap();
            vfs.truncate(&dir.join("c"), 4).unwrap();
            let mut names: Vec<_> = vfs.list(dir).unwrap();
            names.sort();
            (names.len(), vfs.read(&dir.join("a")).unwrap(), vfs.read(&dir.join("c")).unwrap())
        };
        let (d1, d2) = (scratch("std-ops"), scratch("probe-ops"));
        let probe = ProbeVfs::new("serving.wal", true, Instant::now());
        let a = ops(&StdVfs, &d1);
        let b = ops(&probe, &d2);
        assert_eq!(a, b);
        assert_eq!(contents(&d1), contents(&d2));
        let log = probe.take();
        assert_eq!(log.ops.iter().map(|s| s.n).sum::<u64>(), 12);
        assert_eq!(log.spans.len(), 12, "traced probes record a span per call");
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn probe_vfs_leaves_the_same_state_directory_as_std_vfs() {
        let spec = tiny("overload-ramp");
        let mut dirs = Vec::new();
        for (i, traced) in [None, Some(false), Some(true)].into_iter().enumerate() {
            let dir = scratch(&format!("durable-{i}"));
            let inputs = spec.build(3, &dir);
            let vfs: Arc<dyn Vfs> = match traced {
                None => Arc::new(StdVfs),
                Some(t) => Arc::new(ProbeVfs::new(WAL_FILE, t, Instant::now())),
            };
            let out = run_overload_durable(
                &inputs.dataset,
                LacbConfig { n_threads: 1, ..LacbConfig::opt() },
                ResilienceConfig::default(),
                inputs.overload.as_ref().unwrap(),
                FaultPlan::new(FaultConfig::default()),
                &DurableConfig::at(&dir).with_vfs(vfs),
            )
            .unwrap();
            assert!(out.metrics.total_utility > 0.0);
            dirs.push(dir);
        }
        let reference = contents(&dirs[0]);
        assert!(reference.contains_key(WAL_FILE) && reference.len() > 1);
        for d in &dirs {
            assert_eq!(contents(d), reference, "{}", d.display());
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_a_small_scale() {
        for name in NAMES {
            let spec = tiny(name);
            for traced in [false, true] {
                let dir = scratch(&format!("checks-{name}"));
                let h = run_horizon(&spec, spec.build(5, &dir), traced, 0);
                assert!(h.failures.is_empty(), "{name}: {:?}", h.failures);
                assert!(!dir.exists(), "{name}: the state directory is removed");
                assert!(h.total_utility.unwrap() > 0.0);
                assert!(!h.gaps.batch_ms.is_empty() && !h.gaps.boundary_ms.is_empty());
                assert!((h.gaps.horizon_s() - h.secs).abs() < 1e-6, "segments tile the horizon");
                assert_eq!(h.trace.is_some(), traced);
                assert!(h.layer["bandit.trials"] > 0.0, "{name}");
                if traced {
                    let key = if name == "city-serve" { "km.ops" } else { "vfs.append.n" };
                    assert!(h.layer[key] > 0.0, "{name}: {key}");
                }
            }
        }
    }

    #[test]
    fn the_seed_fixes_the_requests_and_nothing_else() {
        let spec = tiny("replicated-days");
        let dir = scratch("seed");
        let run = |seed| {
            let inputs = spec.build(seed, &dir);
            let requests: Vec<Vec<f64>> = inputs
                .dataset
                .days
                .iter()
                .flatten()
                .flat_map(|b| &b.requests)
                .map(|r| r.attrs.clone())
                .collect();
            let brokers = format!("{:?}", inputs.dataset.brokers);
            let h = run_horizon(&spec, inputs, false, 0);
            (h.total_utility.unwrap().to_bits(), requests, brokers)
        };
        let (u1, r1, b1) = run(1);
        let (u1_again, r1_again, _) = run(1);
        let (u2, r2, b2) = run(2);
        assert_eq!(u1, u1_again, "same seed, same utility bits");
        assert_eq!(r1, r1_again);
        assert_ne!(r1, r2, "another seed draws other requests");
        assert_ne!(u1, u2);
        assert_eq!(b1, b2, "the broker population is the workload's own");
    }
}
