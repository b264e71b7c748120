//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.
//! A tail percentile is only meaningful when enough samples lie beyond
//! it, so the benchmark reports the highest percentile of a fixed ladder
//! that leaves at least [`MIN_BEYOND`] samples above its rank.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. p99/p95/p90 are the tails
/// proper; p75 and p50 keep the rule defined for short series such as
/// the append stream of `mixed_rw`.
pub const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    assert!(
        n > 0 && (1..=100).contains(&p),
        "rank of p{p} over {n} samples"
    );
    // Integer ceil(p * n / 100), exact for every n.
    ((p as usize) * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
pub fn beyond(p: u32, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// The highest ladder percentile leaving at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median does not.
pub fn tail_rule(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// One latency sample: request kind, when it falls in the window, and
/// its latency in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub kind: usize,
    pub at: Duration,
    pub ms: f64,
}

/// Steal share at or below which a time slice counts as quiet.
pub const QUIET_STEAL: f64 = 0.02;

/// The time slices to take figures over, from each slice's share of
/// host CPU time stolen by other guests: those at or below
/// [`QUIET_STEAL`], or at or below the median steal when fewer than
/// half are that quiet, so at least the quieter half.
///
/// On a 2-vCPU virtual machine sharing its host, a vCPU that halts
/// between requests waits for the host to run it again, and the wait
/// shows as steal. Per-request hand-offs make `mine_light` halve its
/// request rate at 20% steal; steal comes and goes in phases of 5 to 15
/// seconds.
pub fn quiet_slices(steal: &[f64]) -> Vec<bool> {
    let cut = median(steal).map_or(QUIET_STEAL, |m| m.max(QUIET_STEAL));
    steal.iter().map(|&s| s <= cut).collect()
}

/// A timing series summarised over chosen equal time slices of its
/// window.
///
/// The speed of memory-bound work on a shared host also changes by up
/// to half in phases of a few seconds, without steal. Figures pooled
/// over all chosen slices average over those phases; a median over
/// per-slice figures instead jumps between the fast and the slow level
/// as a run's share of slow phases crosses one half.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    /// Mean over request kinds of each kind's median latency, over the
    /// chosen slices.
    pub p50: f64,
    /// The workload's fixed tail percentile, and the latency at it over
    /// every sample.
    pub tail_pct: u32,
    pub tail: f64,
    /// Samples beyond the tail percentile's rank.
    pub tail_beyond: usize,
    /// The percentile the tail rule picks at this sample count.
    pub rule_pct: Option<u32>,
    /// Slices the median and the rate are taken over.
    pub slices: usize,
    /// Samples completed within the chosen slices, per second of them.
    pub rate: f64,
}

impl Summary {
    /// Summarise `samples` taken over `keep.len()` slices of `slice`,
    /// taking the median and the rate over the slices `keep` marks. A
    /// sample after the window (a closed-loop request in flight at the
    /// end) counts in the last slice's latencies, not in its rate. The
    /// tail pools every sample, at a percentile fixed per workload, not
    /// chosen per run, so one metric keeps one meaning across runs and
    /// commits.
    pub fn of(samples: &[Timed], slice: Duration, keep: &[bool], tail_pct: u32) -> Option<Summary> {
        let span = slice * keep.len() as u32;
        let kept = |s: &&Timed| {
            let i = (s.at.as_secs_f64() / slice.as_secs_f64()) as usize;
            keep[i.min(keep.len() - 1)]
        };
        let p50 = mean_of_medians(samples.iter().filter(kept).map(|s| (s.kind, s.ms)))?;
        let in_span = samples.iter().filter(kept).filter(|s| s.at < span).count();
        let slices = keep.iter().filter(|&&k| k).count();
        let mut sorted: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: samples.len(),
            p50,
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            tail_beyond: beyond(tail_pct, samples.len()),
            slices,
            rule_pct: tail_rule(samples.len()),
            rate: in_span as f64 / (slice.as_secs_f64() * slices as f64),
        })
    }

    /// `true` when the fixed tail percentile has fewer than
    /// [`MIN_BEYOND`] samples beyond it (run shorter than planned).
    pub fn under_sampled(&self) -> bool {
        self.tail_beyond < MIN_BEYOND
    }
}

/// Median of unsorted values (nearest rank, like every percentile here).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50))
}

/// Mean over groups of each group's median, from `(group, value)`
/// pairs. A workload mixes request kinds of very different cost; a
/// pooled median of such a mixture sits on the edge between two kinds
/// and jumps between them from run to run, while each kind's own median
/// is steady.
pub fn mean_of_medians(pairs: impl IntoIterator<Item = (usize, f64)>) -> Option<f64> {
    per_group(pairs, |v| median(v).expect("groups are non-empty"))
}

/// Mean over groups of each group's mean. Unlike medians, means add up:
/// per-request self times that sum to each request's latency give
/// per-layer figures that sum to the mean latency.
pub fn mean_of_means(pairs: impl IntoIterator<Item = (usize, f64)>) -> Option<f64> {
    per_group(pairs, |v| v.iter().sum::<f64>() / v.len() as f64)
}

fn per_group(
    pairs: impl IntoIterator<Item = (usize, f64)>,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<f64> {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (g, v) in pairs {
        groups.entry(g).or_default().push(v);
    }
    if groups.is_empty() {
        return None;
    }
    let sum: f64 = groups.values().map(|v| stat(v)).sum();
    Some(sum / groups.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_medians_weighs_each_kind_once() {
        let pairs = [
            (0, 1.0),
            (0, 2.0),
            (0, 3.0),
            (1, 10.0),
            (2, 100.0),
            (2, 200.0),
        ];
        // Medians 2, 10 and 100 (nearest rank: the lower middle of two).
        assert_eq!(mean_of_medians(pairs), Some(112.0 / 3.0));
        assert_eq!(mean_of_medians([]), None);
        // Means 2, 10 and 150.
        assert_eq!(mean_of_means(pairs), Some(54.0));
    }

    #[test]
    fn nearest_rank_matches_definition() {
        // ceil(p/100 * n), 1-based.
        assert_eq!(nearest_rank(50, 1), 1);
        assert_eq!(nearest_rank(50, 2), 1);
        assert_eq!(nearest_rank(50, 3), 2);
        assert_eq!(nearest_rank(99, 100), 99);
        assert_eq!(nearest_rank(99, 101), 100);
        assert_eq!(nearest_rank(90, 10), 9);
        assert_eq!(nearest_rank(100, 7), 7);
        assert_eq!(nearest_rank(1, 7), 1);
    }

    #[test]
    fn percentile_picks_a_sample_not_an_interpolation() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 5.0);
        assert_eq!(percentile(&sorted, 90), 9.0);
        assert_eq!(percentile(&sorted, 95), 10.0);
        assert_eq!(percentile(&sorted, 99), 10.0);
        let sorted = [1.0, 2.0, 4.0];
        assert_eq!(percentile(&sorted, 50), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(tail_rule(0), None);
        assert_eq!(tail_rule(19), None);
        assert_eq!(tail_rule(20), Some(50));
        assert_eq!(tail_rule(39), Some(50));
        assert_eq!(tail_rule(40), Some(75));
        assert_eq!(tail_rule(99), Some(75));
        assert_eq!(tail_rule(100), Some(90));
        assert_eq!(tail_rule(199), Some(90));
        assert_eq!(tail_rule(200), Some(95));
        assert_eq!(tail_rule(999), Some(95));
        assert_eq!(tail_rule(1000), Some(99));
        for n in 1..3000 {
            if let Some(p) = tail_rule(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "p{p} at n={n}");
                let higher = TAIL_LADDER.iter().take_while(|&&q| q != p);
                for &q in higher {
                    assert!(beyond(q, n) < MIN_BEYOND, "p{q} qualifies at n={n}");
                }
            }
        }
    }

    fn timed(kind: usize, at_ms: u64, ms: f64) -> Timed {
        Timed {
            kind,
            at: Duration::from_millis(at_ms),
            ms,
        }
    }

    #[test]
    fn summary_keeps_the_fixed_percentile_and_flags_short_runs() {
        let span = Duration::from_secs(1);
        let samples: Vec<Timed> = (0..150)
            .rev()
            .map(|v| timed(0, 5 * v, f64::from(v as u32)))
            .collect();
        let s = Summary::of(&samples, span, &[true], 95).expect("non-empty");
        assert_eq!(s.n, 150);
        assert_eq!(s.p50, 74.0);
        assert_eq!(s.tail, 142.0);
        assert_eq!(s.tail_beyond, 7);
        assert!(s.under_sampled());
        assert_eq!(s.rule_pct, Some(90));
        assert_eq!(s.rate, 150.0);
        let s = Summary::of(&samples, span, &[true], 90).expect("non-empty");
        assert_eq!(s.tail, 134.0);
        assert!(!s.under_sampled());
        assert!(Summary::of(&[], span, &[true], 90).is_none());
    }

    #[test]
    fn summary_weighs_kinds_and_rates_the_window() {
        // Kind 0 at 1 ms, kind 1 at 10 ms with a tenth as many samples:
        // each kind's median counts once.
        let mut samples: Vec<Timed> = (0..100).map(|i| timed(0, i * 10, 1.0)).collect();
        samples.extend((0..10).map(|i| timed(1, i * 100, 10.0)));
        // A request in flight at the end: a latency, not a completion.
        samples.push(timed(0, 1200, 1.0));
        let second = Duration::from_secs(1);
        let s = Summary::of(&samples, second, &[true], 90).expect("sampled");
        assert_eq!(s.n, 111);
        assert_eq!(s.p50, 5.5);
        assert_eq!(s.rate, 110.0);
        // The tail pools every sample: the slow kind lies beyond p90.
        assert_eq!((s.tail, s.tail_beyond), (1.0, 11));
        assert_eq!(
            Summary::of(&samples, second, &[true], 99).map(|s| s.tail),
            Some(10.0)
        );
        assert_eq!(
            Summary::of(&samples, second, &[true, true], 90).map(|s| s.rate),
            Some(55.5)
        );
    }

    #[test]
    fn quiet_slices_keep_at_least_the_quieter_half() {
        assert_eq!(
            quiet_slices(&[0.0, 0.01, 0.3, 0.02]),
            [true, true, false, true]
        );
        assert_eq!(
            quiet_slices(&[0.1, 0.3, 0.2, 0.05, 0.4]),
            [true, false, true, true, false]
        );
        assert!(quiet_slices(&[]).is_empty());
    }

    #[test]
    fn summary_skips_slices_left_out() {
        // Three 1 s slices of 1 ms requests; the middle one, stolen,
        // runs at 5 ms and completes a fifth as many.
        let mut samples = Vec::new();
        for slice in 0..3u64 {
            let (n, ms) = if slice == 1 { (20, 5.0) } else { (100, 1.0) };
            samples.extend((0..n).map(|i| timed(0, slice * 1000 + i * 1000 / n, ms)));
        }
        let second = Duration::from_secs(1);
        let s = Summary::of(&samples, second, &[true, false, true], 95).expect("sampled");
        assert_eq!((s.p50, s.rate, s.slices), (1.0, 100.0, 2));
        // The tail pools every slice: the stolen slice lies beyond p95.
        assert_eq!((s.n, s.tail), (220, 5.0));
        let all = Summary::of(&samples, second, &[true; 3], 90).expect("sampled");
        assert_eq!((all.p50, all.rate, all.slices), (1.0, 220.0 / 3.0, 3));
        assert!(Summary::of(&samples[..100], second, &[false, true, true], 90).is_none());
    }
}
