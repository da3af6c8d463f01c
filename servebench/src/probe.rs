//! The two boundaries the benchmark observes the program through: an
//! [`Assigner`] handed to `lacb::run`, and a [`Vfs`] handed to the
//! durable and replicated loops. Untraced, each wrapper reads the clock
//! once per batch commit and only counts everything else; traced, it
//! also records a span per call.

use crate::stats::Commit;
use crate::trace::Observed;
use durability::{StdVfs, StorageError, Vfs, VfsOp, WalRecord};
use lacb::{Assigner, Lacb};
use platform_sim::{DayFeedback, Platform, Request, StageBreakdown};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
}

// ---------------------------------------------------------------------------
// Vfs probe.

/// The Vfs operations reported per operation, in report order.
pub const OPS: [VfsOp; 8] = [
    VfsOp::Append,
    VfsOp::Write,
    VfsOp::Fsync,
    VfsOp::Rename,
    VfsOp::Remove,
    VfsOp::Read,
    VfsOp::List,
    VfsOp::Truncate,
];

/// Which file an operation touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileClass {
    /// The WAL or its prune rewrite.
    Wal,
    /// A checkpoint generation (or its staging file).
    Checkpoint,
    /// Anything else: the state directory itself, stray files.
    Other,
}

/// Count, bytes and (traced only) seconds of one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStat {
    pub n: u64,
    pub bytes: u64,
    pub secs: f64,
}

/// Everything the Vfs probe saw during one horizon.
#[derive(Clone, Debug, Default)]
pub struct VfsLog {
    /// Batch-record appends to the WAL, in order.
    pub commits: Vec<Commit>,
    /// Per [`OPS`] entry, plus `create-dir` last.
    pub ops: [OpStat; 9],
    /// WAL records appended, by kind.
    pub batch_records: u64,
    pub admission_records: u64,
    pub day_end_records: u64,
    pub other_records: u64,
    /// Appends whose bytes did not parse as one checksummed record.
    pub unparsed_appends: u64,
    /// Requests given a broker, over all batch records.
    pub served: u64,
    /// Σ trials over day-end records.
    pub trials: u64,
    /// Bytes appended to the WAL and written to checkpoint files.
    pub wal_append_bytes: u64,
    pub ckpt_write_bytes: u64,
    /// Fsyncs by file class: the WAL (a prune rewrite), checkpoints.
    pub wal_fsyncs: u64,
    pub ckpt_fsyncs: u64,
    pub spans: Vec<Observed>,
}

/// A [`Vfs`] that forwards to [`StdVfs`] and watches the traffic.
#[derive(Debug)]
pub struct ProbeVfs {
    wal_file: String,
    traced: bool,
    origin: Instant,
    log: Mutex<VfsLog>,
}

impl ProbeVfs {
    /// Watch a state directory whose WAL is named `wal_file`; clock
    /// readings count from `origin`.
    pub fn new(wal_file: &str, traced: bool, origin: Instant) -> ProbeVfs {
        ProbeVfs { wal_file: wal_file.into(), traced, origin, log: Mutex::new(VfsLog::default()) }
    }

    /// Take what was seen so far.
    pub fn take(&self) -> VfsLog {
        std::mem::take(&mut *self.log.lock().expect("probe log lock poisoned"))
    }

    fn class_of(&self, path: &Path) -> FileClass {
        let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        if name.starts_with(&self.wal_file) {
            FileClass::Wal
        } else if name.starts_with("ckpt-") {
            FileClass::Checkpoint
        } else {
            FileClass::Other
        }
    }

    /// Run one forwarded operation and account for it. `bytes_of` gives
    /// the bytes the operation moved once its result is known.
    fn observe<R>(
        &self,
        op: VfsOp,
        path: &Path,
        written: Option<&[u8]>,
        call: impl FnOnce() -> Result<R, StorageError>,
        bytes_of: impl FnOnce(&R) -> usize,
    ) -> Result<R, StorageError> {
        let start = self.traced.then(|| ns_since(self.origin));
        let r = call();
        let class = self.class_of(path);
        let wal_append = match (op, written) {
            (VfsOp::Append, Some(bytes)) if class == FileClass::Wal && r.is_ok() => Some(bytes),
            _ => None,
        };
        // The one clock read an untraced run makes: a batch record's
        // append is a commit. The record is parsed after the clock read.
        let is_commit = wal_append.is_some_and(|b| b.starts_with(b"batch "));
        let end = (self.traced || is_commit).then(|| ns_since(self.origin));
        let record = wal_append.map(parse_line);

        let mut log = self.log.lock().expect("probe log lock poisoned");
        let slot = OPS.iter().position(|o| *o == op).unwrap_or(OPS.len());
        let moved = match (&r, written) {
            (Ok(_), Some(b)) => b.len(),
            (Ok(v), None) => bytes_of(v),
            (Err(_), _) => 0,
        } as u64;
        let st = &mut log.ops[slot];
        st.n += 1;
        st.bytes += moved;
        if let (Some(s), Some(e)) = (start, end) {
            st.secs += (e - s) as f64 * 1e-9;
            log.spans.push(Observed {
                name: format!("vfs.{}", op.label()),
                start_ns: s,
                end_ns: e,
                stages: Vec::new(),
            });
        }
        match (op, class) {
            (VfsOp::Append, FileClass::Wal) => log.wal_append_bytes += moved,
            (VfsOp::Write, FileClass::Checkpoint) => log.ckpt_write_bytes += moved,
            (VfsOp::Fsync, FileClass::Wal) => log.wal_fsyncs += 1,
            (VfsOp::Fsync, FileClass::Checkpoint) => log.ckpt_fsyncs += 1,
            _ => {}
        }
        match record {
            None => {}
            Some(None) => log.unparsed_appends += 1,
            Some(Some(WalRecord::Batch { day, assignment, .. })) => {
                log.batch_records += 1;
                log.served += assignment.iter().flatten().count() as u64;
                let t_ns = end.expect("commits read the clock");
                log.commits.push(Commit { day, t_ns });
            }
            Some(Some(WalRecord::Admission { .. })) => log.admission_records += 1,
            Some(Some(WalRecord::DayEnd { trials, .. })) => {
                log.day_end_records += 1;
                log.trials += trials as u64;
            }
            Some(Some(_)) => log.other_records += 1,
        }
        r
    }
}

/// Classify one appended WAL line: `<payload> #<crc32>\n`.
pub fn parse_line(bytes: &[u8]) -> Option<WalRecord> {
    let line = std::str::from_utf8(bytes).ok()?.strip_suffix('\n')?;
    let (payload, crc) = line.rsplit_once(" #")?;
    (u32::from_str_radix(crc, 16).ok()? == durability::crc32(payload.as_bytes()))
        .then(|| WalRecord::parse(payload))?
}

impl Vfs for ProbeVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.observe(VfsOp::Read, path, None, || StdVfs.read(path), Vec::len)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.observe(VfsOp::Write, path, Some(bytes), || StdVfs.write(path, bytes), |_| 0)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.observe(VfsOp::Append, path, Some(bytes), || StdVfs.append(path, bytes), |_| 0)
    }
    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        self.observe(VfsOp::Fsync, path, None, || StdVfs.fsync(path), |_| 0)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.observe(VfsOp::Rename, to, None, || StdVfs.rename(from, to), |_| 0)
    }
    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        self.observe(VfsOp::Remove, path, None, || StdVfs.remove(path), |_| 0)
    }
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        self.observe(VfsOp::List, dir, None, || StdVfs.list(dir), |_| 0)
    }
    fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        self.observe(VfsOp::Truncate, path, None, || StdVfs.truncate(path, len), |_| 0)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        self.observe(VfsOp::CreateDir, dir, None, || StdVfs.create_dir_all(dir), |_| 0)
    }
}

// ---------------------------------------------------------------------------
// Assigner probe.

/// Everything the Assigner probe saw during one horizon.
#[derive(Clone, Debug, Default)]
pub struct AssignLog {
    /// `assign_batch` returns, in order.
    pub commits: Vec<Commit>,
    /// Every returned batch assignment, checked after the horizon.
    pub assignments: Vec<Vec<Option<usize>>>,
    /// Requests handed to `assign_batch`.
    pub offered: u64,
    /// Batches whose assignment length differed from the request count.
    pub misshapen: u64,
    /// Σ trials over `end_day` feedback.
    pub trials: u64,
    /// Traced only: per-call seconds, stage totals and KM ops.
    pub begin_day_secs: f64,
    pub assign_secs: f64,
    pub end_day_secs: f64,
    pub stages: StageBreakdown,
    pub km_ops: u64,
    pub spans: Vec<Observed>,
}

/// An [`Assigner`] that forwards to [`Lacb`] and watches the calls.
pub struct ProbeAssigner {
    inner: Lacb,
    traced: bool,
    origin: Instant,
    day: usize,
    pub log: AssignLog,
}

impl ProbeAssigner {
    pub fn new(inner: Lacb, traced: bool, origin: Instant) -> ProbeAssigner {
        ProbeAssigner { inner, traced, origin, day: 0, log: AssignLog::default() }
    }

    /// Close a traced call: record its span, with the program's own
    /// sub-stage totals for the call as children.
    fn close(&mut self, name: &str, start: u64, end: u64) -> f64 {
        let b = self.inner.take_stage_breakdown().unwrap_or_default();
        let stages = match name {
            "lacb.begin_day" => vec![("bandit.score", b.bandit_score_secs)],
            "lacb.assign_batch" => vec![
                ("cbs.build", b.sparse_build_secs),
                ("cbs.select", b.cbs_select_secs),
                ("km.solve", b.km_solve_secs),
            ],
            _ => Vec::new(),
        };
        let stages = stages.into_iter().filter(|&(_, secs)| secs > 0.0).collect();
        self.log.stages.absorb(&b);
        self.log.spans.push(Observed { name: name.into(), start_ns: start, end_ns: end, stages });
        (end - start) as f64 * 1e-9
    }
}

impl Assigner for ProbeAssigner {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_day(&mut self, platform: &Platform, day: usize) {
        self.day = day;
        if !self.traced {
            return self.inner.begin_day(platform, day);
        }
        let s = ns_since(self.origin);
        self.inner.begin_day(platform, day);
        let e = ns_since(self.origin);
        self.log.begin_day_secs += self.close("lacb.begin_day", s, e);
    }

    fn assign_batch(&mut self, platform: &Platform, requests: &[Request]) -> Vec<Option<usize>> {
        let s = self.traced.then(|| ns_since(self.origin));
        let out = self.inner.assign_batch(platform, requests);
        let e = ns_since(self.origin);
        self.log.commits.push(Commit { day: self.day, t_ns: e });
        if let Some(s) = s {
            self.log.assign_secs += self.close("lacb.assign_batch", s, e);
            self.log.km_ops += self.inner.last_solve_ops();
        }
        self.log.offered += requests.len() as u64;
        self.log.misshapen += u64::from(out.len() != requests.len());
        self.log.assignments.push(out.clone());
        out
    }

    fn end_day(&mut self, platform: &Platform, feedback: &DayFeedback) {
        self.log.trials += feedback.trials.len() as u64;
        if !self.traced {
            return self.inner.end_day(platform, feedback);
        }
        let s = ns_since(self.origin);
        self.inner.end_day(platform, feedback);
        let e = ns_since(self.origin);
        self.log.end_day_secs += self.close("lacb.end_day", s, e);
    }

    fn repair_quarantined_brokers(&mut self) {
        self.inner.repair_quarantined_brokers();
    }

    fn take_audit_report(&mut self) -> Option<platform_sim::AuditReport> {
        self.inner.take_audit_report()
    }

    fn take_stage_breakdown(&mut self) -> Option<StageBreakdown> {
        self.inner.take_stage_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(rec: &WalRecord) -> Vec<u8> {
        let p = rec.payload();
        format!("{p} #{:08x}\n", durability::crc32(p.as_bytes())).into_bytes()
    }

    #[test]
    fn wal_lines_classify_by_kind_and_checksum() {
        let batch =
            WalRecord::Batch { day: 2, batch: 5, draws: 9, assignment: vec![Some(3), None] };
        assert_eq!(parse_line(&line(&batch)), Some(batch.clone()));
        let mut bad = line(&batch);
        bad[0] = b'B';
        assert_eq!(parse_line(&bad), None, "checksum mismatch");
        assert_eq!(parse_line(b"batch 0 0 0 0"), None, "no checksum, no newline");
    }

    #[test]
    fn synthetic_append_trace_yields_commits_and_counts() {
        let dir = std::env::temp_dir().join(format!("servebench-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("serving.wal");
        let probe = ProbeVfs::new("serving.wal", false, Instant::now());
        let recs = [
            WalRecord::DayStart { day: 0 },
            WalRecord::Admission { day: 0, batch: 0, admitted: vec![1, 2] },
            WalRecord::Batch { day: 0, batch: 0, draws: 0, assignment: vec![Some(1), Some(0)] },
            WalRecord::Batch { day: 0, batch: 1, draws: 0, assignment: vec![None] },
            WalRecord::DayEnd { day: 0, realized_bits: 0, trials: 4, draws: 1 },
            WalRecord::Checkpoint { next_day: 1 },
            WalRecord::DayStart { day: 1 },
            WalRecord::Batch { day: 1, batch: 0, draws: 1, assignment: vec![Some(2)] },
        ];
        for r in &recs {
            probe.append(&wal, &line(r)).unwrap();
        }
        probe.write(&dir.join("ckpt-000001.caam.tmp"), b"abc").unwrap();
        probe.fsync(&dir.join("ckpt-000001.caam.tmp")).unwrap();
        let log = probe.take();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(log.commits.iter().map(|c| c.day).collect::<Vec<_>>(), vec![0, 0, 1]);
        assert!(log.commits.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let gaps = crate::stats::split_gaps(&log.commits, 0, u64::MAX);
        assert_eq!((gaps.batch_ms.len(), gaps.boundary_ms.len()), (1, 1));
        assert_eq!((log.batch_records, log.admission_records, log.day_end_records), (3, 1, 1));
        assert_eq!((log.other_records, log.unparsed_appends), (3, 0));
        assert_eq!((log.served, log.trials), (3, 4));
        assert_eq!((log.ckpt_write_bytes, log.ckpt_fsyncs, log.wal_fsyncs), (3, 1, 0));
        assert_eq!(log.ops[0].n, recs.len() as u64);
        assert!(log.spans.is_empty(), "untraced probes record no spans");
    }
}
