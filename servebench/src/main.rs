//! Whole-day serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <city-serve|replicated-days|overload-ramp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each repetition builds the workload's inputs from the seed (set-up),
//! serves the whole horizon through the program's public entry point,
//! checks the result and removes its state directory. Repetitions run
//! until `--seconds` have passed and enough batch gaps were seen for a
//! p99. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions and prints the per-layer
//! metrics of the traced ones, the tracing overhead, and writes the
//! spans to `.servebench/trace-<workload>-seed<n>.jsonl`. The last line
//! of standard output is the JSON result. See README.md.

mod env;
mod probe;
mod stats;
mod trace;
mod workloads;

use env::{quote, Env};
use stats::{median, percentile, Gaps};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{run_horizon, Horizon, Spec, NAMES};

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("day_boundary_p50_ms", "ms"),
    ("total_utility", "utility"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("lacb.begin_day_s", "s"),
        ("lacb.assign_batch_s", "s"),
        ("lacb.end_day_s", "s"),
        ("lacb.assign_self_s", "s"),
        ("runner.outside_s", "s"),
        ("cbs.build_s", "s"),
        ("cbs.rows", "count"),
        ("cbs.edges", "count"),
        ("cbs.edges_per_row", "count"),
        ("cbs.select_s", "s"),
        ("km.solve_s", "s"),
        ("km.ops", "count"),
        ("bandit.score_s", "s"),
        ("bandit.trials", "count"),
        ("pool.sync_s", "s"),
        ("pool.parallel_rounds", "count"),
        ("pool.inline_rounds", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in probe::OPS {
        let l = op.label();
        m.push((format!("vfs.{l}.n"), "count"));
        m.push((format!("vfs.{l}.bytes"), "bytes"));
        m.push((format!("vfs.{l}_s"), "s"));
    }
    for (n, u) in [
        ("wal.bytes_per_batch", "bytes"),
        ("ckpt.bytes_per_day", "bytes"),
        ("wal.fsyncs_per_record", "ratio"),
        ("replica.frames_shipped", "count"),
        ("replica.frames_applied", "count"),
        ("replica.pruned_records", "count"),
        ("replica.max_lag", "count"),
        ("replica.wal_pruned", "count"),
        ("admission.offered", "count"),
        ("admission.admitted", "count"),
        ("admission.served", "count"),
        ("admission.shed_queue_full", "count"),
        ("admission.shed_deadline", "count"),
        ("admission.shed_watermark", "count"),
        ("admission.leftover_queued", "count"),
        ("admission.breaker_trips", "count"),
        ("admission.brownout_escalations", "count"),
        ("admission.reduced_cbs_batches", "count"),
        ("admission.greedy_batches", "count"),
        ("unattributed_s", "s"),
        ("trace.overhead_pct", "%"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Set-ups before each repetition's horizon; `setup_s` is their median.
const SETUPS_PER_REP: usize = 5;
/// Untraced repetitions per run at the least: one per profile half.
const MIN_REPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1 (got {value:?})")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One repetition: what its horizon produced.
struct Rep {
    traced: bool,
    h: Horizon,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let spec = Spec::of(&args.workload).expect("workload names were validated");
    let root = PathBuf::from(".servebench");
    std::fs::create_dir_all(&root).expect("create the benchmark's output directory");
    let env = Env::collect(&root);
    let state_dir = root.join(format!("state-{}-{}", args.workload, std::process::id()));

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        // Traced runs alternate: even repetitions untraced, odd traced.
        let traced = args.trace && reps.len() % 2 == 1;
        let mut inputs = None;
        for _ in 0..SETUPS_PER_REP {
            drop(inputs.take());
            let t0 = Instant::now();
            inputs = Some(spec.build(args.seed, &state_dir));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let run_id = u32::try_from(reps.len()).expect("fewer than 2^32 repetitions");
        let h = run_horizon(&spec, inputs.expect("at least one set-up"), traced, run_id);
        println!("rep {run_id}: horizon {:.4} s{}", h.secs, if traced { " (traced)" } else { "" });
        reps.push(Rep { traced, h });
        let untraced = reps.iter().filter(|r| !r.traced).count();
        if untraced >= MIN_REPS
            && (!args.trace || untraced < reps.len())
            && start.elapsed() >= budget
        {
            break;
        }
    }

    // Correctness: per-repetition checks, plus bit-identical utility.
    let utility0 = reps[0].h.total_utility;
    let rep_failures: Vec<Vec<String>> = reps
        .iter()
        .map(|r| {
            let mut f = r.h.failures.clone();
            if r.h.total_utility.map(f64::to_bits) != utility0.map(f64::to_bits) {
                f.push(format!(
                    "total_utility {:?} differs from the first repetition's {utility0:?}",
                    r.h.total_utility
                ));
            }
            f
        })
        .collect();

    let flush = reps
        .iter()
        .find_map(|r| r.h.flush.clone())
        .unwrap_or_else(|| "no durability I/O (in-memory workload)".into());
    println!("env {}", env.to_json(&flush));
    println!(
        "servebench {} seed {}: {} repetitions ({} traced) in {:.1} s",
        args.workload,
        args.seed,
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
        start.elapsed().as_secs_f64()
    );
    let mut run_failures: Vec<String> = Vec::new();
    let metrics = if args.trace {
        traced_metrics(&args, &reps, &root)
    } else {
        end_to_end_metrics(&reps, &setups, &mut run_failures)
    };

    // A request fails when it is left without a broker and without an
    // admission decision, or belongs to a repetition (or run) that
    // failed a check.
    let attempted: u64 = reps.iter().map(|r| r.h.offered).sum();
    let failed: u64 = reps
        .iter()
        .zip(&rep_failures)
        .map(|(r, f)| {
            if f.is_empty() && run_failures.is_empty() {
                r.h.offered.saturating_sub(r.h.served + r.h.shed)
            } else {
                r.h.offered
            }
        })
        .sum();
    let served: u64 = reps.iter().map(|r| r.h.served).sum();
    let shed: u64 = reps.iter().map(|r| r.h.shed).sum();
    println!(
        "requests: offered {attempted}, served {served}, shed by admission {shed}, failed {failed}"
    );
    for (i, f) in rep_failures.iter().enumerate() {
        f.iter().for_each(|f| eprintln!("CHECK FAILED: repetition {i}: {f}"));
    }
    run_failures.iter().for_each(|f| eprintln!("CHECK FAILED: {f}"));
    let correct = rep_failures.iter().all(Vec::is_empty) && run_failures.is_empty();

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}{}:{{\"value\":{value},\"unit\":{}}}", quote(name), quote(unit));
    }
    out.push_str("}}");
    println!("{out}");
}

/// `(name, value, unit)` rows of the end-to-end report, and any check
/// the statistics themselves failed.
///
/// The repetitions are split into two interleaved halves (even and odd)
/// and each half is reduced to its segment-wise minimum
/// ([`Gaps::min_over`]); the latency metrics pool the two profiles and
/// `requests_per_s` divides the requests served in one horizon by the
/// mean of the two profiles' horizons.
fn end_to_end_metrics(
    reps: &[Rep],
    setups: &[f64],
    failures: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let half = |parity: usize| -> Vec<&Gaps> {
        untraced.iter().skip(parity).step_by(2).map(|r| &r.h.gaps).collect()
    };
    let mut pooled = Gaps::default();
    let mut horizons = Vec::new();
    for parity in 0..2 {
        match Gaps::min_over(&half(parity)) {
            Ok(p) => {
                horizons.push(p.horizon_s());
                pooled.batch_ms.extend(p.batch_ms);
                pooled.boundary_ms.extend(p.boundary_ms);
            }
            Err(e) => failures.push(e),
        }
    }
    let mut stat = |name: &str, r: Result<f64, String>| {
        r.unwrap_or_else(|e| {
            failures.push(format!("{name}: {e}"));
            f64::NAN
        })
    };
    let served = untraced[0].h.served as f64;
    let mean_horizon = horizons.iter().sum::<f64>() / horizons.len() as f64;
    let values = [
        median(setups),
        served / mean_horizon,
        stat("batch_p50_ms", percentile(&pooled.batch_ms, 50.0)),
        stat("batch_p99_ms", percentile(&pooled.batch_ms, 99.0)),
        stat("day_boundary_p50_ms", percentile(&pooled.boundary_ms, 50.0)),
        untraced[0].h.total_utility.unwrap_or(f64::NAN),
        peak_rss_mb(),
    ];

    // The same figures over every repetition's raw gaps, for comparison.
    let raw_batch: Vec<f64> = untraced.iter().flat_map(|r| r.h.gaps.batch_ms.clone()).collect();
    let raw_boundary: Vec<f64> =
        untraced.iter().flat_map(|r| r.h.gaps.boundary_ms.clone()).collect();
    let raw_rps: Vec<f64> = untraced.iter().map(|r| r.h.served as f64 / r.h.secs).collect();
    println!(
        "samples: {} untraced repetitions, {} profiled batch gaps, {} profiled day-boundary gaps, {} set-ups",
        untraced.len(),
        pooled.batch_ms.len(),
        pooled.boundary_ms.len(),
        setups.len()
    );
    println!(
        "raw (all repetitions pooled): requests_per_s median {:.1}, batch p50 {:.4} ms, p99 {} ms, day-boundary p50 {:.4} ms",
        median(&raw_rps),
        median(&raw_batch),
        percentile(&raw_batch, 99.0).map_or_else(|e| e, |v| format!("{v:.4}")),
        median(&raw_boundary)
    );
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        println!("  {name:<22} {v:>16.4} {unit}");
    }
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
}

/// Per-layer rows from the traced repetitions (medians), the tracing
/// overhead, a self-time table, and the span dump.
fn traced_metrics(args: &Args, reps: &[Rep], root: &Path) -> Vec<(String, f64, &'static str)> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<f64> = reps.iter().filter(|r| !r.traced).map(|r| r.h.secs).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|r| r.h.secs).collect();
    let overhead = (median(&traced_secs) / median(&untraced) - 1.0) * 100.0;
    println!(
        "tracing overhead: horizon {:.3} s traced vs {:.3} s untraced ({overhead:+.2}%)",
        median(&traced_secs),
        median(&untraced)
    );

    // Self time per span name, summed over the traced repetitions.
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut jsonl = String::new();
    for r in &traced {
        let t = r.h.trace.as_ref().expect("traced repetitions keep their trace");
        for (name, (n, total, own)) in t.reduce() {
            let e = table.entry(name).or_default();
            e.0 += n;
            e.1 += total;
            e.2 += own;
        }
        jsonl.push_str(&t.to_jsonl());
    }
    let k = traced.len() as f64;
    println!("per-layer self time (per horizon, mean of {} traced):", traced.len());
    println!("  {:<22} {:>10} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, (n, total, own)) in &table {
        println!("  {name:<22} {:>10} {:>12.4} {:>12.4}", *n as f64 / k, total / k, own / k);
    }
    let path = root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::write(&path, jsonl) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    let mut rows = Vec::new();
    for (name, unit) in per_layer() {
        let value = if name == "trace.overhead_pct" {
            overhead
        } else {
            let vals: Vec<f64> =
                traced.iter().map(|r| r.h.layer.get(&name).copied().unwrap_or(0.0)).collect();
            median(&vals)
        };
        println!("  {name:<32} {value:>16.4} {unit}");
        rows.push((name, value, unit));
    }
    rows
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn argument_parsing() {
        let a = args("--workload city-serve --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("city-serve", 3, 5, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload city-serve").is_err(), "seed is required");
        assert!(args("--workload city-serve --seed 1 --trace 2").is_err());
        assert!(args("--workload city-serve --seed").is_err());
    }

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let body = text.split(&format!("\"{section}\"")).nth(1).expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names("per_layer"), layer);
        assert_eq!(names("workloads"), NAMES.to_vec());
    }
}
