//! Order statistics, the clean-round rule and the windows inside a round.
//!
//! The gated numbers are the quietest window's: what disturbs a run on this
//! host (steal, and slow phases the steal counter does not show) only ever
//! slows it down and comes and goes within seconds, so the median over a
//! run flips between two regimes from run to run while the best tenth of a
//! second repeats (see README, "Noise protocol"). Within a window the
//! statistic is the median: tails measure the neighbours.

/// Rounds whose stolen time is at most this share of one core are clean.
pub const CLEAN_STEAL_SHARE: f64 = 0.05;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Which rounds count, given each round's steal share.
///
/// Rounds at or under [`CLEAN_STEAL_SHARE`] are kept. When fewer than half
/// of them (rounded up) qualify, the half with the least steal is kept
/// instead and the host is reported noisy. Returns the kept indices in
/// round order and the noisy flag.
pub fn select_clean(steal_shares: &[f64]) -> (Vec<usize>, bool) {
    let min_keep = steal_shares.len().div_ceil(2);
    let mut keep: Vec<usize> =
        (0..steal_shares.len()).filter(|&i| steal_shares[i] <= CLEAN_STEAL_SHARE).collect();
    let noisy = keep.len() < min_keep;
    if noisy {
        let mut by_steal: Vec<usize> = (0..steal_shares.len()).collect();
        by_steal.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]).then(a.cmp(&b)));
        by_steal.truncate(min_keep);
        by_steal.sort_unstable();
        keep = by_steal;
    }
    (keep, noisy)
}

/// Length of one window of a round, seconds.
pub const WINDOW_S: f64 = 0.1;
/// A window with fewer ops than this has no median worth comparing.
pub const MIN_WINDOW_OPS: usize = 8;

/// Tiles the ops of a round, given when each completed (seconds, rising),
/// into consecutive windows of [`WINDOW_S`]: the index ranges of the windows
/// that hold at least [`MIN_WINDOW_OPS`] ops. The last, partial window is
/// dropped.
pub fn windows(done_s: &[f64]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < done_s.len() {
        let end_s = done_s[start] + WINDOW_S;
        let len = done_s[start..].partition_point(|&t| t < end_s);
        if start + len == done_s.len() {
            break;
        }
        if len >= MIN_WINDOW_OPS {
            out.push(start..start + len);
        }
        start += len;
    }
    out
}

/// The lowest of `values`; 0 when there is none.
pub fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values.min_by(f64::total_cmp).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn windows_tile_a_round_and_drop_the_thin_and_the_partial() {
        // 10 ops 5 ms apart fill half a window: nothing is complete.
        let sparse: Vec<f64> = (0..10).map(|i| i as f64 * 0.005).collect();
        assert!(windows(&sparse).is_empty());
        assert!(windows(&[]).is_empty());
        // Just over 1 ms apart: 100 ops a window; 250 ops are two windows
        // and a rest.
        let dense: Vec<f64> = (0..250).map(|i| i as f64 * 0.00101).collect();
        assert_eq!(windows(&dense), vec![0..100, 100..200]);
        // A stall leaves a thin window, which is skipped, not merged.
        let mut stalled = dense.clone();
        for t in &mut stalled[103..] {
            *t += 0.5;
        }
        assert_eq!(windows(&stalled), vec![0..100, 103..203]);
    }

    #[test]
    fn lowest_of_nothing_is_zero() {
        assert_eq!(lowest([3.0, 1.5, 2.0].into_iter()), 1.5);
        assert_eq!(lowest(std::iter::empty()), 0.0);
    }

    #[test]
    fn clean_rounds_are_kept_in_order() {
        let (keep, noisy) = select_clean(&[0.0, 0.30, 0.05, 0.01, 0.06, 0.02]);
        assert_eq!(keep, vec![0, 2, 3, 5]);
        assert!(!noisy);
    }

    #[test]
    fn too_few_clean_rounds_fall_back_to_the_least_stolen_half() {
        let (keep, noisy) = select_clean(&[0.40, 0.01, 0.20, 0.10, 0.30, 0.50]);
        assert_eq!(keep, vec![1, 2, 3]);
        assert!(noisy);
        // Odd counts round the half up.
        let (keep, noisy) = select_clean(&[0.2, 0.3, 0.1]);
        assert_eq!(keep, vec![0, 2]);
        assert!(noisy);
    }
}
