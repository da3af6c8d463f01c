//! In-memory spans, their self-time reduction, and the JSON-lines dump.
//!
//! Spans come only from the benchmark's own wrappers (the `Assigner`
//! and `Vfs` probes) plus the commit gaps derived from them; nothing
//! inside the program is instrumented. Every span of one repetition
//! carries that repetition's run id.

use crate::stats::Commit;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One timed interval, in nanoseconds since the repetition's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub run: u32,
    pub id: u32,
    /// The span that contains this one; `None` only for the horizon.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Laid out from a duration the program reports (a stage total),
    /// not from two clock reads of its own.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span observed by a wrapper, before it is placed in the tree.
/// `stages` are `(name, seconds)` sub-stage totals the program reported
/// for this call; they become synthetic children laid end to end from
/// the call's start.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub stages: Vec<(&'static str, f64)>,
}

/// The span tree of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    fn push(
        &mut self,
        run: u32,
        parent: Option<u32>,
        name: String,
        s: u64,
        e: u64,
        syn: bool,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { run, id, parent, name, start_ns: s, end_ns: e, synthetic: syn });
        id
    }

    /// Build the tree: a `horizon` root, commit-gap spans tiling it
    /// (`gap.open` up to the first commit, `gap.batch` between commits
    /// of one day, `gap.boundary` across a day boundary, `gap.close`
    /// after the last commit), and each observed span under the gap
    /// containing its start.
    pub fn build(
        run: u32,
        horizon: (u64, u64),
        commits: &[Commit],
        observed: &[Observed],
    ) -> Trace {
        let mut t = Trace::default();
        let root = t.push(run, None, "horizon".into(), horizon.0, horizon.1, false);
        let mut gaps: Vec<(u64, u32)> = Vec::with_capacity(commits.len() + 1);
        let mut prev: Option<Commit> = None;
        for c in commits {
            let (name, start) = match prev {
                None => ("gap.open", horizon.0),
                Some(p) if p.day == c.day => ("gap.batch", p.t_ns),
                Some(p) => ("gap.boundary", p.t_ns),
            };
            gaps.push((start, t.push(run, Some(root), name.into(), start, c.t_ns, false)));
            prev = Some(*c);
        }
        let last = prev.map_or(horizon.0, |p| p.t_ns);
        gaps.push((last, t.push(run, Some(root), "gap.close".into(), last, horizon.1, false)));

        for o in observed {
            // Gap starts are non-decreasing; the containing gap is the
            // last one starting at or before the span, so a span that
            // starts exactly at a commit belongs to the gap it opens.
            let i = gaps.partition_point(|&(s, _)| s <= o.start_ns).saturating_sub(1);
            let id = t.push(run, Some(gaps[i].1), o.name.clone(), o.start_ns, o.end_ns, false);
            let mut at = o.start_ns;
            for &(stage, secs) in &o.stages {
                let end = (at + (secs * 1e9) as u64).min(o.end_ns);
                t.push(run, Some(id), stage.into(), at, end, true);
                at = end;
            }
        }
        t
    }

    /// Per span name: `(count, total seconds, self seconds)`, where
    /// self time is a span's duration minus the part of it covered by
    /// its children.
    pub fn reduce(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, k) in self.spans.iter().zip(kids.iter_mut()) {
            let covered = covered_ns(k, s.start_ns, s.end_ns);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-9;
            e.2 += (s.dur_ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"synthetic\":{}}}",
                s.run, s.id, parent, s.name, s.start_ns, s.end_ns, s.synthetic
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(name: &str, s: u64, e: u64) -> Observed {
        Observed { name: name.into(), start_ns: s, end_ns: e, stages: Vec::new() }
    }

    #[test]
    fn union_of_overlapping_children() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 2, 25), 1 + 7 + 5);
    }

    #[test]
    fn observed_spans_nest_by_time_containment() {
        let commits = [
            Commit { day: 0, t_ns: 100 },
            Commit { day: 0, t_ns: 200 },
            Commit { day: 1, t_ns: 500 },
        ];
        let observed = [
            obs("vfs.append", 90, 100), // the first commit's own append
            obs("vfs.read", 200, 210),  // starts exactly at a commit
            obs("vfs.write", 300, 340), // checkpoint inside the boundary
            obs("vfs.fsync", 340, 360),
            Observed { stages: vec![("km.solve", 20e-9)], ..obs("lacb.assign_batch", 150, 200) },
        ];
        let t = Trace::build(7, (0, 600), &commits, &observed);
        let name_of = |id: Option<u32>| id.map(|i| t.spans[i as usize].name.as_str());
        let find = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(name_of(find("vfs.append").parent), Some("gap.open"));
        assert_eq!(name_of(find("vfs.read").parent), Some("gap.boundary"));
        assert_eq!(name_of(find("vfs.write").parent), Some("gap.boundary"));
        assert_eq!(name_of(find("lacb.assign_batch").parent), Some("gap.batch"));
        assert_eq!(name_of(find("km.solve").parent), Some("lacb.assign_batch"));
        assert_eq!(find("gap.close").start_ns, 500);
        assert!(t.spans.iter().all(|s| s.run == 7));

        let r = t.reduce();
        assert_eq!(r["gap.boundary"].0, 1);
        assert!((r["gap.boundary"].2 - 230e-9).abs() < 1e-15, "300ns minus 70ns of vfs");
        assert!((r["lacb.assign_batch"].2 - 30e-9).abs() < 1e-15);
        // Gaps tile the horizon, so the self times of the whole tree
        // add up to the horizon.
        let self_sum: f64 = r.values().map(|v| v.2).sum();
        assert!((self_sum - 600e-9).abs() < 1e-15);
        assert_eq!(t.to_jsonl().lines().count(), t.spans.len());
    }
}
