//! Total, deterministic top-k selection over `(id, score)` pairs.
//!
//! Similarity search must never panic on an adversarial score (`NaN` from a
//! poisoned embedding) and must return the same answer regardless of how
//! the scoring work was partitioned — across scan workers, runs of blocks,
//! or incremental inserts. Both properties come from ranking with a
//! *total* order: [`f32::total_cmp`] descending on the score, then the id
//! ascending as the tie-break. Under `total_cmp`, `+NaN` sorts above `+inf`
//! and `-NaN` below `-inf`, so poisoned entries surface deterministically
//! at the top instead of crashing the query (callers that embed through
//! [`crate::embed::embed`] never produce them; the order is a containment
//! guarantee, not an endorsement).
//!
//! There is one ranking implementation, [`TopK`]: a streaming accumulator
//! that holds at most `2k` entries however many are offered. Scans feed it
//! scores as they are computed, so no caller materializes an n-long
//! `(id, score)` vector; [`top_k`] is the same accumulator fed from a
//! vector. Selection is O(n + k log k): entries that cannot beat the
//! current k-th are dropped on arrival, [`slice::select_nth_unstable_by`]
//! compacts the survivors in linear time whenever `2k` are held, and only
//! the final `k` are sorted.

use std::cmp::Ordering;

/// The total order used by every similarity ranking in this crate: score
/// descending via [`f32::total_cmp`], ties broken by ascending id.
pub fn rank_order<I: Ord>(a: &(I, f32), b: &(I, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// A streaming, bounded top-k accumulator under [`rank_order`].
///
/// Offer any number of `(id, score)` entries with [`Self::push`]; at most
/// `2k` are ever held. Everything is accepted until the first compaction
/// leaves `k` survivors; from then on an entry is kept only when it beats
/// the current k-th, and every time `2k` are held again a linear-time
/// [`slice::select_nth_unstable_by`] drops the worse half and raises the
/// bar. The final answer is exactly what sorting *all* offered entries by
/// [`rank_order`] and truncating to `k` would give — independent of the
/// order of arrival, so partial accumulators combine with [`Self::merge`].
///
/// # Examples
///
/// ```
/// use tsdx_sdl::TopK;
///
/// let mut best = TopK::new(2);
/// for (id, score) in [(0u64, 0.2), (1, 0.9), (2, 0.5), (3, 0.9)] {
///     best.push(id, score);
/// }
/// assert_eq!(best.into_sorted(), vec![(1, 0.9), (3, 0.9)]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<I> {
    k: usize,
    held: Vec<(I, f32)>,
    /// The k-th best entry as of the last compaction: the bar to beat.
    kth: Option<(I, f32)>,
}

impl<I: Ord + Copy> TopK<I> {
    /// An empty accumulator for the best `k` entries. Allocates nothing
    /// until the first entry arrives.
    pub fn new(k: usize) -> Self {
        TopK { k, held: Vec::new(), kth: None }
    }

    /// Offers one entry.
    pub fn push(&mut self, id: I, score: f32) {
        let entry = (id, score);
        if self.k == 0 || self.kth.as_ref().is_some_and(|kth| rank_order(&entry, kth).is_ge()) {
            return;
        }
        self.held.push(entry);
        if self.held.len() >= self.k.saturating_mul(2) {
            self.compact();
        }
    }

    /// Offers everything `other` still holds: afterwards `self` answers
    /// for every entry offered to either.
    pub fn merge(&mut self, other: TopK<I>) {
        for (id, score) in other.held {
            self.push(id, score);
        }
    }

    /// Keeps the best `k` of more than `k` held entries (unordered) and
    /// makes the worst of them the bar.
    fn compact(&mut self) {
        self.held.select_nth_unstable_by(self.k - 1, rank_order::<I>);
        self.held.truncate(self.k);
        self.kth = Some(self.held[self.k - 1]);
    }

    /// True when no entry scored in `scores` could be kept — the
    /// block-at-a-time fast reject for scan loops (one vector compare for a
    /// fixed-width block).
    ///
    /// Precondition: every id the caller goes on to offer for `scores` is
    /// greater than every id offered to this accumulator so far (a scan
    /// offering ascending ids to its own accumulator).
    ///
    /// A score is ruled out when it is numerically below the current k-th
    /// score, which implies it is below it under [`f32::total_cmp`] too, or
    /// when it is bit-equal to it: under the precondition such an entry
    /// loses the tie on the id, so [`Self::push`] would drop it. With no
    /// bar yet, or a NaN one, nothing is ruled out: a caller that recomputes
    /// a NaN score may offer it with other bits than the ones seen here.
    pub fn rejects_all(&self, scores: &[f32]) -> bool {
        let Some((_, floor)) = self.kth.filter(|kth| !kth.1.is_nan()) else { return false };
        let tie = floor.to_bits();
        scores.iter().fold(true, |all, &s| all & ((s < floor) | (s.to_bits() == tie)))
    }

    /// The best `k` entries offered so far, best first.
    pub fn into_sorted(mut self) -> Vec<(I, f32)> {
        if self.held.len() > self.k {
            self.compact();
        }
        self.held.sort_unstable_by(rank_order::<I>);
        self.held
    }
}

/// The `k` best-scored entries of `scored`, best first: [`TopK`] fed from
/// a vector.
///
/// Total and deterministic for *any* input: non-finite scores are ordered
/// by [`f32::total_cmp`] (never a panic), and equal scores tie-break on the
/// ascending id, so the result is independent of the input permutation.
/// Returns all entries (sorted) when `k >= scored.len()`.
///
/// # Examples
///
/// ```
/// use tsdx_sdl::top_k;
///
/// let hits = top_k(vec![(0usize, 0.2), (1, 0.9), (2, 0.9), (3, f32::NAN)], 3);
/// // NaN sorts first (total order), then the tied 0.9s by ascending id.
/// assert_eq!(hits.len(), 3);
/// assert!(hits[0].1.is_nan());
/// assert_eq!((hits[1].0, hits[2].0), (1, 2));
/// ```
pub fn top_k<I: Ord + Copy>(scored: Vec<(I, f32)>, k: usize) -> Vec<(I, f32)> {
    let mut best = TopK::new(k);
    for (id, score) in scored {
        best.push(id, score);
    }
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort(mut scored: Vec<(u64, f32)>, k: usize) -> Vec<(u64, u32)> {
        scored.sort_by(rank_order::<u64>);
        scored.truncate(k);
        scored.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
    }

    /// A long adversarial stream: many compactions, every special value.
    fn stream(n: u64) -> Vec<(u64, f32)> {
        let special = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let score = if h % 11 == 0 {
                    special[(h / 11) as usize % special.len()]
                } else {
                    (h % 17) as f32 / 8.0 - 1.0 // few distinct values: ties everywhere
                };
                (i, score)
            })
            .collect()
    }

    #[test]
    fn streaming_equals_full_sort_and_holds_at_most_2k() {
        let scored = stream(5000);
        for k in [1usize, 2, 3, 10, 64, 4999, 5000, 7000] {
            let mut best = TopK::new(k);
            for &(id, s) in &scored {
                best.push(id, s);
                assert!(best.held.len() < (2 * k).max(2), "k={k} held {}", best.held.len());
            }
            let got: Vec<(u64, u32)> =
                best.into_sorted().into_iter().map(|(i, s)| (i, s.to_bits())).collect();
            assert_eq!(got, full_sort(scored.clone(), k), "k={k}");
        }
    }

    #[test]
    fn partial_accumulators_merge_to_the_global_answer() {
        let scored = stream(3000);
        let k = 25;
        let mut merged = TopK::new(k);
        for part in scored.chunks(700) {
            let mut local = TopK::new(k);
            part.iter().for_each(|&(id, s)| local.push(id, s));
            merged.merge(local);
        }
        let got: Vec<(u64, u32)> =
            merged.into_sorted().into_iter().map(|(i, s)| (i, s.to_bits())).collect();
        assert_eq!(got, full_sort(scored, k));
    }

    #[test]
    fn rejects_all_never_rules_out_an_entry_push_would_keep() {
        let state = |best: &TopK<u64>| {
            let held: Vec<(u64, u32)> = best.held.iter().map(|&(i, s)| (i, s.to_bits())).collect();
            (held, best.kth.map(|(i, s)| (i, s.to_bits())))
        };
        let scored = stream(5000); // ids ascend, as the precondition asks
        let (mut ties, mut nan_bars) = (0, 0);
        for k in [1usize, 7, 64] {
            let mut best = TopK::new(k);
            assert!(!best.rejects_all(&[-1.0e30]), "no bar yet: nothing is ruled out");
            for block in scored.chunks(8) {
                let scores: Vec<f32> = block.iter().map(|e| e.1).collect();
                let before = state(&best);
                let rejected = best.rejects_all(&scores);
                let bar = best.kth.map(|kth| kth.1.to_bits());
                ties += usize::from(rejected && scores.iter().any(|s| Some(s.to_bits()) == bar));
                block.iter().for_each(|&(id, s)| best.push(id, s));
                if rejected {
                    assert_eq!(state(&best), before, "k={k}: a rejected block changed the answer");
                }
                if let Some((_, kth)) = best.kth.filter(|kth| kth.1.is_nan()) {
                    nan_bars += 1;
                    assert!(!best.rejects_all(&[kth; 8]), "k={k}: a NaN k-th rules out a tie");
                    assert!(!best.rejects_all(&[-3.0]), "k={k}: a NaN k-th rules out a score");
                }
            }
        }
        assert!(ties > 0, "no rejected block held a tie with the k-th");
        assert!(nan_bars > 0, "the stream must drive the bar to NaN");
        let mut finite = TopK::new(1);
        finite.push(0u64, 0.5);
        finite.push(1, 0.25);
        assert!(finite.rejects_all(&[0.4, -1.0, f32::NEG_INFINITY]));
        assert!(!finite.rejects_all(&[0.4, f32::NAN]));
        assert!(!finite.rejects_all(&[0.4, 0.6]));
        assert!(finite.rejects_all(&[0.4, 0.5]), "a later id loses the tie with the k-th");
    }

    #[test]
    fn selects_and_orders_the_best_k() {
        let scored = vec![(0u64, 0.1), (1, 0.7), (2, 0.4), (3, 0.9), (4, 0.2)];
        assert_eq!(top_k(scored, 3), vec![(3, 0.9), (1, 0.7), (2, 0.4)]);
    }

    #[test]
    fn k_zero_and_k_past_len_are_total() {
        assert_eq!(top_k(vec![(1u32, 0.5)], 0), vec![]);
        assert_eq!(top_k(Vec::<(u32, f32)>::new(), 5), vec![]);
        assert_eq!(top_k(vec![(2u32, 0.1), (1, 0.3)], 5), vec![(1, 0.3), (2, 0.1)]);
    }

    #[test]
    fn ties_break_on_ascending_id_regardless_of_input_order() {
        let a = top_k(vec![(5usize, 1.0), (2, 1.0), (9, 1.0)], 2);
        let b = top_k(vec![(9usize, 1.0), (5, 1.0), (2, 1.0)], 2);
        assert_eq!(a, vec![(2, 1.0), (5, 1.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn non_finite_scores_never_panic_and_order_totally() {
        let scored = vec![
            (0u64, f32::NAN),
            (1, f32::INFINITY),
            (2, 0.5),
            (3, f32::NEG_INFINITY),
            (4, -f32::NAN),
        ];
        let hits = top_k(scored, 5);
        assert!(hits[0].1.is_nan()); // +NaN above +inf under total_cmp
        assert_eq!(hits[1], (1, f32::INFINITY));
        assert_eq!(hits[2], (2, 0.5));
        assert_eq!(hits[3], (3, f32::NEG_INFINITY));
        assert!(hits[4].1.is_nan()); // -NaN below -inf
    }

    #[test]
    fn negative_zero_and_positive_zero_order_deterministically() {
        // total_cmp: -0.0 < +0.0, so +0.0 ranks first in descending order.
        let hits = top_k(vec![(0u32, -0.0), (1, 0.0)], 2);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].0, 0);
    }
}
