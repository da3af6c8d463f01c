//! Sample statistics and commit-gap classification.
//!
//! A *commit* is one batch decision leaving the serving loop: the
//! return of `Assigner::assign_batch`, or the WAL append of a batch
//! record. Consecutive commits of one day bound a batch gap; the last
//! commit of day `d` and the first of day `d + 1` bound a day-boundary
//! gap, which covers `end_day` learning, the checkpoint and
//! `begin_day` scoring.

/// One batch commit: its serving day and when it happened, in
/// nanoseconds since the repetition's clock origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    pub day: usize,
    pub t_ns: u64,
}

/// The segments of one horizon, in milliseconds: the commits cut it
/// into an opening segment, batch gaps, day-boundary gaps and a
/// closing segment, which together add up to the horizon.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Gaps {
    /// Horizon start to the first commit.
    pub open_ms: f64,
    /// Gaps between consecutive commits of one day.
    pub batch_ms: Vec<f64>,
    /// Gaps from the last commit of a day to the first of the next.
    pub boundary_ms: Vec<f64>,
    /// Gaps between commits more than one day apart (a day without
    /// any commit): neither kind, kept only so the segments add up.
    pub skipped_ms: Vec<f64>,
    /// Last commit to the horizon end.
    pub close_ms: f64,
}

impl Gaps {
    /// Sum of all segments: the horizon, in seconds.
    pub fn horizon_s(&self) -> f64 {
        let inner: f64 = [&self.batch_ms, &self.boundary_ms, &self.skipped_ms]
            .iter()
            .flat_map(|v| v.iter())
            .sum();
        (self.open_ms + inner + self.close_ms) * 1e-3
    }

    /// Segment-wise minimum over repetitions of one deterministic
    /// horizon. Interference from other work on the machine only ever
    /// adds time, so the fastest observation of each segment is the
    /// best estimate of its cost. `Err` when the repetitions did not
    /// cut the horizon into the same segments.
    pub fn min_over(reps: &[&Gaps]) -> Result<Gaps, String> {
        let first = *reps.first().ok_or("no repetitions to profile")?;
        let mut p = first.clone();
        for g in &reps[1..] {
            let shape = |x: &Gaps| (x.batch_ms.len(), x.boundary_ms.len(), x.skipped_ms.len());
            if shape(g) != shape(first) {
                return Err(format!(
                    "repetitions cut the horizon differently: {:?} vs {:?} segments",
                    shape(g),
                    shape(first)
                ));
            }
            p.open_ms = p.open_ms.min(g.open_ms);
            p.close_ms = p.close_ms.min(g.close_ms);
            for (a, b) in [
                (&mut p.batch_ms, &g.batch_ms),
                (&mut p.boundary_ms, &g.boundary_ms),
                (&mut p.skipped_ms, &g.skipped_ms),
            ] {
                a.iter_mut().zip(b).for_each(|(x, y)| *x = x.min(*y));
            }
        }
        Ok(p)
    }
}

/// Cut a horizon `[h0, h1]` (ns) at its commits (in commit order).
pub fn split_gaps(commits: &[Commit], h0: u64, h1: u64) -> Gaps {
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 * 1e-6;
    let mut gaps = Gaps {
        open_ms: ms(h0, commits.first().map_or(h1, |c| c.t_ns)),
        close_ms: commits.last().map_or(0.0, |c| ms(c.t_ns, h1)),
        ..Gaps::default()
    };
    for w in commits.windows(2) {
        let gap = ms(w[0].t_ns, w[1].t_ns);
        match w[1].day.checked_sub(w[0].day) {
            Some(0) => gaps.batch_ms.push(gap),
            Some(1) => gaps.boundary_ms.push(gap),
            _ => gaps.skipped_ms.push(gap),
        }
    }
    gaps
}

/// Fewest samples a reported percentile must leave beyond itself.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// Refuses (returns `Err`) when fewer than [`MIN_TAIL`] samples lie
/// strictly beyond the chosen rank, so a p99 needs at least 1,000
/// samples. The median of a handful of samples is fine: half of them
/// lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    if p > 50.0 && beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it (need at least {MIN_TAIL})"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (the lower middle for even counts, as
/// nearest-rank gives it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of a non-empty sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(day: usize, ms: u64) -> Commit {
        Commit { day, t_ns: ms * 1_000_000 }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(500.0));
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert_eq!(percentile(&xs, 100.0 - 1e-9).ok(), None, "p~100 has no tail");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).is_ok(), "1000 samples leave exactly 10 beyond");
        let err = percentile(&xs[..999], 99.0).unwrap_err();
        assert!(err.contains("need at least 10"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&xs, 99.0).unwrap();
        xs.sort_by(f64::total_cmp);
        assert_eq!(percentile(&xs, 99.0).unwrap(), a);
    }

    #[test]
    fn gaps_split_into_batch_and_boundary() {
        // Day 0: three commits; day 1: two; day 3 (day 2 had none): one.
        let log = [c(0, 10), c(0, 12), c(0, 15), c(1, 40), c(1, 41), c(3, 90)];
        let g = split_gaps(&log, 4_000_000, 100_000_000);
        assert_eq!(g.open_ms, 6.0);
        assert_eq!(g.batch_ms, vec![2.0, 3.0, 1.0]);
        assert_eq!(g.boundary_ms, vec![25.0]);
        assert_eq!(g.skipped_ms, vec![49.0]);
        assert_eq!(g.close_ms, 10.0);
        assert!((g.horizon_s() - 0.096).abs() < 1e-12, "segments add up to the horizon");
        let lone = split_gaps(&log[..1], 0, 10_000_000);
        assert_eq!((lone.open_ms, lone.close_ms, lone.batch_ms.len()), (10.0, 0.0, 0));
    }

    #[test]
    fn min_profile_takes_the_fastest_of_each_segment() {
        let a = split_gaps(&[c(0, 1), c(0, 5), c(1, 9)], 0, 10_000_000);
        let b = split_gaps(&[c(0, 3), c(0, 4), c(1, 10)], 0, 12_000_000);
        let p = Gaps::min_over(&[&a, &b]).unwrap();
        assert_eq!(
            (p.open_ms, p.batch_ms.clone(), p.boundary_ms.clone()),
            (1.0, vec![1.0], vec![4.0])
        );
        assert_eq!(p.close_ms, 1.0);
        let other = split_gaps(&[c(0, 1), c(0, 5), c(0, 9)], 0, 10_000_000);
        assert!(Gaps::min_over(&[&a, &other]).is_err(), "different cuts are refused");
        assert!(Gaps::min_over(&[]).is_err());
    }
}
