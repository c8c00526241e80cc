//! `binary_broadcast`'s suffix-block path against the stride odometer.
//!
//! A contiguous full-shaped `a` with a contiguous `b` whose shape is a
//! suffix of the output's (a bias, a position table) is zipped block by
//! block; every other operand pair walks the odometer. Both apply the same
//! `f` to the same element pairs, so the two must agree bit for bit — here
//! against an index-by-index reference, and against the library's own
//! odometer, which a non-contiguous operand of equal values still reaches.

use proptest::prelude::*;
use tsdx_tensor::{ops, shape, Tensor};

fn values(seed: u64, shape: &[usize]) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 21) as f32 - 4.0
    })
}

/// The same logical tensor as `t` in another layout: 0 dense, 1 an offset
/// (still contiguous) slice of a longer buffer, 2 a non-contiguous view.
fn relaid(t: &Tensor, layout: usize) -> Tensor {
    let rank = t.rank();
    match layout {
        1 if rank > 0 => {
            let pad = values(99, t.shape());
            ops::narrow(&ops::concat(&[&pad, t], 0), 0, t.shape()[0], t.shape()[0])
        }
        2 if rank > 0 => {
            let pad = values(98, t.shape());
            let last = rank - 1;
            ops::narrow(&ops::concat(&[&pad, t], last), last, t.shape()[last], t.shape()[last])
        }
        _ => t.clone(),
    }
}

/// `f` over the broadcast of `a` and `b`, one index at a time.
fn reference(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let out = shape::broadcast(a.shape(), b.shape()).expect("broadcastable");
    let pick = |t: &Tensor, idx: &[usize]| {
        let skip = out.len() - t.rank();
        let own: Vec<usize> =
            idx[skip..].iter().zip(t.shape()).map(|(&i, &d)| if d == 1 { 0 } else { i }).collect();
        t.at(&own)
    };
    let mut idx = vec![0usize; out.len()];
    (0..shape::numel(&out))
        .map(|mut flat| {
            for (slot, &d) in idx.iter_mut().zip(&out).rev() {
                *slot = flat % d;
                flat /= d;
            }
            f(pick(a, &idx), pick(b, &idx))
        })
        .collect()
}

/// A broadcasting op and the scalar function it applies.
type OpPair = (fn(&Tensor, &Tensor) -> Tensor, fn(f32, f32) -> f32);

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn suffix_blocks_equal_the_odometer(
        dims in prop::collection::vec(1usize..=5, 1..=4),
        (suffix, ones) in (0usize..=4, 0usize..=2),
        (la, lb, seed) in (0usize..3, 0usize..3, any::<u64>()),
    ) {
        let suffix = suffix.min(dims.len());
        let mut b_shape = vec![1; ones.min(dims.len() - suffix)];
        b_shape.extend_from_slice(&dims[dims.len() - suffix..]);
        let (a0, b0) = (values(seed, &dims), values(seed ^ 0xFFFF, &b_shape));
        let (a, b) = (relaid(&a0, la), relaid(&b0, lb));
        prop_assert_eq!(a.to_vec(), a0.to_vec());
        prop_assert_eq!(b.to_vec(), b0.to_vec());
        let ops: [OpPair; 4] = [
            (ops::add, |x, y| x + y),
            // Non-commutative: the flipped check below catches swapped
            // operands only for these two.
            (|a, b| ops::binary_broadcast(a, b, |x, y| x - y), |x, y| x - y),
            (ops::mul, |x, y| x * y),
            (|a, b| ops::binary_broadcast(a, b, |x, y| x / y), |x, y| x / y),
        ];
        for (op, f) in ops {
            let want = reference(&a0, &b0, f);
            let got = op(&a, &b);
            prop_assert_eq!(got.shape(), &dims[..]);
            prop_assert!(
                bits(&got.to_vec()) == bits(&want),
                "{dims:?} ∘ {b_shape:?}, layouts {la}/{lb}"
            );
            // Flipped: the full-shaped operand on the right is the
            // odometer's whatever its layout.
            prop_assert!(bits(&op(&b, &a).to_vec()) == bits(&reference(&b0, &a0, f)));
        }
    }
}

#[test]
fn position_tables_at_the_models_shapes() {
    // `[B, nt, ns, D] + [1, ns, D]` and `[B, nt, D] + [nt, D]`: the two adds
    // of the embedding, dense (block path) and through a non-contiguous
    // view of the same tokens (odometer).
    for (a_shape, b_shape) in [(vec![8, 4, 16, 64], vec![1, 16, 64]), (vec![8, 4, 64], vec![4, 64])]
    {
        let (a, b) = (values(3, &a_shape), values(4, &b_shape));
        let want = reference(&a, &b, |x, y| x + y);
        assert_eq!(bits(&ops::add(&a, &b).to_vec()), bits(&want));
        assert_eq!(bits(&ops::add(&relaid(&a, 2), &b).to_vec()), bits(&want));
        assert_eq!(bits(&ops::add(&a, &relaid(&b, 2)).to_vec()), bits(&want));
    }
}
