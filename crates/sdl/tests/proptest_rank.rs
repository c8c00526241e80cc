//! Property-based tests of [`tsdx_sdl::top_k`]; the index's search paths
//! have theirs in `tsdx-index`.
//!
//! The bar: ranking never panics for any score pattern (including NaN and
//! zero vectors), the O(n + k log k) selection path returns exactly what a
//! full sort returns, and on finite inputs it is byte-for-byte the answer
//! the old stable full-sort implementation produced.

use proptest::prelude::*;
use tsdx_sdl::{rank_order, top_k};

/// Any f32 bit pattern: finite, infinite, NaN, both zeros.
fn arb_score() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0f32..=1.0,
        Just(f32::NAN),
        Just(-f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// Reference answer: sort *everything* with the total order, take `k`.
fn full_sort_reference(mut scored: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    scored.sort_by(rank_order::<usize>);
    scored.truncate(k);
    scored
}

/// The pre-fix ranking: stable full sort, descending `partial_cmp` on the
/// score. Only callable on finite scores — exactly the domain the old
/// `.expect("finite similarity")` path handled without panicking.
fn old_stable_sort(mut scored: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarity"));
    scored.truncate(k);
    scored
}

fn bits(hits: &[(usize, f32)]) -> Vec<(usize, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #[test]
    fn top_k_never_panics_and_matches_full_sort(
        scores in prop::collection::vec(arb_score(), 0..64),
        k in 0usize..70,
    ) {
        let scored: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
        let got = top_k(scored.clone(), k);
        let want = full_sort_reference(scored, k);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn top_k_matches_old_path_on_finite_inputs(
        scores in prop::collection::vec(-1.0f32..=1.0, 1..64),
        k in 1usize..16,
    ) {
        // The old stable sort kept ascending insertion order on ties; the
        // new explicit ascending-id tie-break reproduces it bit-for-bit.
        let scored: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
        let got = top_k(scored.clone(), k);
        let want = old_stable_sort(scored, k);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn top_k_is_permutation_invariant(
        scores in prop::collection::vec(arb_score(), 1..48),
        k in 1usize..8,
        rot in 0usize..48,
    ) {
        let scored: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
        let mut rotated = scored.clone();
        let n = rotated.len();
        rotated.rotate_left(rot % n);
        prop_assert_eq!(bits(&top_k(scored, k)), bits(&top_k(rotated, k)));
    }
}
