//! The one attention op against the composition it replaced.
//!
//! `ops::attention` runs sixteen (batch element, head) pairs — or fewer pairs
//! and several query rows each — in the lanes of one vector; the contract is
//! that every output bit — and, through `Graph::attention`, every gradient
//! bit — equals what `permute → matmul → scale → softmax_last → matmul →
//! merge` of the public ops computes, for every shape, operand layout, pair
//! count and kernel (AVX-512 or portable). That is what lets a model mix
//! batch sizes and hosts without its extractions moving.

use proptest::prelude::*;
use tsdx_tensor::dial::{Kernel, KERNEL};
use tsdx_tensor::{grad_check, ops, Graph, Tensor};

/// `[B, T, H·w]` as the `[B, H, T, w]` head view.
fn split(t: &Tensor, heads: usize) -> Tensor {
    let (b, rows, width) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    ops::permute(&t.reshape(&[b, rows, heads, width / heads]), &[0, 2, 1, 3])
}

/// The composition on public ops: `(merged context, probabilities)`.
fn composed(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> (Tensor, Tensor) {
    let (qh, kh, vh) = (split(q, heads), split(k, heads), split(v, heads));
    let scores = ops::scale(&ops::matmul(&qh, &ops::transpose_last2(&kh)), scale);
    let probs = ops::softmax_last(&scores);
    let ctx = ops::matmul(&probs, &vh);
    let (b, tq, dv) = (q.shape()[0], q.shape()[1], v.shape()[2]);
    (ops::permute(&ctx, &[0, 2, 1, 3]).reshape(&[b, tq, dv]), probs)
}

/// Bit patterns with every NaN folded onto one: which NaN an operation
/// propagates is the instruction's choice, that it is one is the contract.
fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().into_iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
}

/// Deterministic values in (−2, 2) from a seed.
fn values(seed: u64, shape: &[usize]) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0
    })
}

/// How an operand reaches the op: dense, or a narrowed/offset view of a
/// larger buffer (rows stay unit-stride, so the op reads them in place), or
/// a permuted view (which it must gather).
#[derive(Debug, Clone, Copy)]
enum Layout {
    Dense,
    Narrowed,
    Permuted,
}

fn operand(seed: u64, [b, t, w]: [usize; 3], layout: Layout) -> Tensor {
    match layout {
        Layout::Dense => values(seed, &[b, t, w]),
        Layout::Narrowed => {
            let base = values(seed, &[b + 1, t + 3, w + 5]);
            ops::narrow(&ops::narrow(&ops::narrow(&base, 0, 1, b), 1, 2, t), 2, 4, w)
        }
        Layout::Permuted => ops::permute(&values(seed, &[t, b, w]), &[1, 0, 2]),
    }
}

/// Overwrites a few elements of `t` with `special` (scores then hold ±∞,
/// NaN or ±0 — a zeroed query row scores 0 against every key).
fn poison(t: &Tensor, special: f32, seed: u64) -> Tensor {
    let shape = t.shape().to_vec();
    let mut data = t.to_vec();
    let n = data.len();
    for i in 0..3 {
        data[(seed as usize).wrapping_mul(31).wrapping_add(i * 7919) % n] = special;
    }
    if special == 0.0 {
        let w = shape[2];
        data[..w].fill(special);
    }
    Tensor::from_vec(data, &shape)
}

#[derive(Debug, Clone)]
struct Case {
    b: usize,
    tq: usize,
    tk: usize,
    heads: usize,
    dh: usize,
    dv: usize,
    seed: u64,
    layouts: [Layout; 3],
    special: Option<f32>,
}

fn case() -> impl Strategy<Value = Case> {
    let layout =
        || prop_oneof![Just(Layout::Dense), Just(Layout::Narrowed), Just(Layout::Permuted)];
    let special = prop_oneof![
        Just(None),
        Just(None),
        Just(Some(f32::INFINITY)),
        Just(Some(f32::NEG_INFINITY)),
        Just(Some(f32::NAN)),
        Just(Some(0.0f32)),
        Just(Some(-0.0f32)),
    ];
    (
        (
            1usize..=3,
            prop_oneof![1usize..=20, Just(65usize)],
            prop_oneof![1usize..=40, 1usize..=40, Just(65usize), Just(200usize)],
            1usize..=4,
        ),
        (1usize..=33, 1usize..=33, any::<u64>()),
        (layout(), layout(), layout()),
        special,
    )
        .prop_map(|((b, tq, tk, heads), (dh, dv, seed), (lq, lk, lv), special)| Case {
            b,
            tq,
            tk,
            heads,
            dh,
            dv,
            seed,
            layouts: [lq, lk, lv],
            special,
        })
}

fn operands(c: &Case) -> (Tensor, Tensor, Tensor) {
    let mut q = operand(c.seed, [c.b, c.tq, c.heads * c.dh], c.layouts[0]);
    let mut k = operand(c.seed ^ 0xA5A5, [c.b, c.tk, c.heads * c.dh], c.layouts[1]);
    let v = operand(c.seed ^ 0x5A5A, [c.b, c.tk, c.heads * c.dv], c.layouts[2]);
    if let Some(special) = c.special {
        q = poison(&q, special, c.seed);
        k = poison(&k, special, c.seed >> 8);
    }
    (q, k, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn op_equals_the_composition_on_both_kernels(c in case()) {
        let (q, k, v) = operands(&c);
        let scale = 1.0 / (c.dh as f32).sqrt();
        let mut across_kernels = Vec::new();
        for &kernel in Kernel::available() {
            let (want, want_probs) =
                KERNEL.with(kernel, || composed(&q, &k, &v, c.heads, scale));
            let (got, (kept, probs)) = KERNEL.with(kernel, || {
                (
                    ops::attention(&q, &k, &v, c.heads, scale),
                    ops::attention_with_probs(&q, &k, &v, c.heads, scale),
                )
            });
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(probs.shape(), want_probs.shape());
            prop_assert!(bits(&got) == bits(&want), "{c:?} {kernel}");
            prop_assert!(bits(&kept) == bits(&want), "{c:?} (probs kept) {kernel}");
            prop_assert!(bits(&probs) == bits(&want_probs), "{c:?} probs {kernel}");
            across_kernels.push(bits(&want));
        }
        prop_assert!(across_kernels.iter().all(|k| *k == across_kernels[0]), "{c:?}: kernels disagree");
    }
}

/// `ops::attention` and `ops::attention_with_probs` against the composition
/// under every kernel, and the kernels against each other: output and kept
/// probabilities, bit for bit.
fn assert_matches_composition(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, what: &str) {
    let scale = 1.0 / ((q.shape()[2] / heads) as f32).sqrt();
    let mut across_kernels = Vec::new();
    for &kernel in Kernel::available() {
        KERNEL.with(kernel, || {
            let (want, want_probs) = composed(q, k, v, heads, scale);
            let got = ops::attention(q, k, v, heads, scale);
            let (kept, probs) = ops::attention_with_probs(q, k, v, heads, scale);
            assert_eq!(bits(&got), bits(&want), "{what} under {kernel}");
            assert_eq!(bits(&kept), bits(&want), "{what} (probs kept) under {kernel}");
            assert_eq!(bits(&probs), bits(&want_probs), "{what}: probs under {kernel}");
            across_kernels.push(bits(&got));
        });
    }
    assert!(across_kernels.iter().all(|b| *b == across_kernels[0]), "{what}: kernels disagree");
}

/// The query rows of `[b, t, w]` values: all `tq` of them, or — `tq` 1 —
/// the first row of seventeen narrowed out, as a block read out through its
/// CLS row passes it.
fn queries(seed: u64, b: usize, tq: usize, w: usize) -> Tensor {
    if tq == 1 {
        ops::narrow(&values(seed, &[b, 17, w]), 1, 0, 1)
    } else {
        values(seed, &[b, tq, w])
    }
}

#[test]
fn every_pair_count_fills_its_lanes_with_the_composition_bits() {
    // 1–40 (batch element, head) pairs: partial lane groups, fewer pairs
    // than lanes (spare lanes take further query rows), one group and a
    // partial one; query rows that split evenly across lanes and that do
    // not, and narrowed CLS rows.
    for pairs in 1..=40usize {
        let heads = [4, 2, 1].into_iter().find(|h| pairs % h == 0).expect("1 divides");
        let b = pairs / heads;
        for tq in [1, 5, 17] {
            let seed = (pairs * 100 + tq) as u64;
            let q = queries(seed, b, tq, heads * 16);
            let (k, v) =
                (values(seed ^ 1, &[b, 17, heads * 16]), values(seed ^ 2, &[b, 17, heads * 16]));
            assert_matches_composition(&q, &k, &v, heads, &format!("{pairs} pairs, Tq {tq}"));
        }
    }
}

#[test]
fn every_head_width_and_key_count_keeps_the_composition_bits() {
    // Head widths below, at and past one sixteen-lane transpose; key counts
    // around `lane_sum`'s chunks of eight and its remainder, the score
    // blocks and 65 (fig 4's joint variant).
    for dh in [1, 3, 16, 20, 32] {
        for tk in [1, 5, 8, 9, 16, 17, 33, 65] {
            for (b, heads) in [(3, 1), (2, 4), (4, 4), (5, 4)] {
                for tq in [1, 4] {
                    let seed = (dh * 10_000 + tk * 100 + b * 10 + tq) as u64;
                    let q = queries(seed, b, tq, heads * dh);
                    let k = values(seed ^ 1, &[b, tk, heads * dh]);
                    let v = values(seed ^ 2, &[b, tk, heads * dh]);
                    let what = format!("dh {dh}, Tk {tk}, {} pairs, Tq {tq}", b * heads);
                    assert_matches_composition(&q, &k, &v, heads, &what);
                }
            }
        }
    }
}

/// Gradients of `mean((ctx ⊙ ctx))` w.r.t. q, k, v through the one node
/// (`one_node`) or through the composed graph.
fn gradients(
    [q, k, v]: [&Tensor; 3],
    heads: usize,
    scale: f32,
    one_node: bool,
) -> (Tensor, Vec<Tensor>) {
    let mut g = Graph::new();
    let vars = [g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(v.clone())];
    let ctx = if one_node {
        g.attention(vars[0], vars[1], vars[2], heads, scale)
    } else {
        let (b, tq, tk) = (q.shape()[0], q.shape()[1], k.shape()[1]);
        let split = |g: &mut Graph, x, t: usize, w: usize| {
            let r = g.reshape(x, &[b, t, heads, w / heads]);
            g.permute(r, &[0, 2, 1, 3])
        };
        let qh = split(&mut g, vars[0], tq, q.shape()[2]);
        let kh = split(&mut g, vars[1], tk, k.shape()[2]);
        let vh = split(&mut g, vars[2], tk, v.shape()[2]);
        let kt = g.transpose_last2(kh);
        let scores = g.matmul(qh, kt);
        let scaled = g.scale(scores, scale);
        let probs = g.softmax_last(scaled);
        let ctx = g.matmul(probs, vh);
        let merged = g.permute(ctx, &[0, 2, 1, 3]);
        g.reshape(merged, &[b, tq, v.shape()[2]])
    };
    let sq = g.mul(ctx, ctx); // non-uniform upstream gradient
    let loss = g.mean_all(sq);
    let grads = g.backward(loss);
    let per_input = vars.iter().map(|&x| grads.get(x).expect("leaf").clone()).collect();
    (g.value(ctx).clone(), per_input)
}

#[test]
fn node_gradients_equal_the_composed_graphs_bitwise() {
    for (b, tq, tk, heads, dh, dv) in
        [(2, 5, 7, 2, 3, 4), (3, 17, 17, 4, 16, 16), (1, 1, 40, 1, 33, 2)]
    {
        let q = values(11, &[b, tq, heads * dh]);
        let k = values(12, &[b, tk, heads * dh]);
        let v = values(13, &[b, tk, heads * dv]);
        let scale = 1.0 / (dh as f32).sqrt();
        for &kernel in Kernel::available() {
            let run =
                |one_node| KERNEL.with(kernel, || gradients([&q, &k, &v], heads, scale, one_node));
            let ((ctx, got), (want_ctx, want)) = (run(true), run(false));
            assert_eq!(bits(&ctx), bits(&want_ctx), "forward, {kernel}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.shape(), w.shape());
                assert_eq!(bits(g), bits(w), "input {i} [{b},{tq},{tk}] {kernel}");
            }
        }
    }
}

#[test]
fn gradcheck_through_fused_attention_op() {
    let q = Tensor::from_fn(&[2, 3, 4], |i| (i as f32 * 0.23).sin() * 0.5);
    let k = Tensor::from_fn(&[2, 5, 4], |i| (i as f32 * 0.19).cos() * 0.5);
    let v = Tensor::from_fn(&[2, 5, 3], |i| (i as f32 * 0.31).sin() * 0.5);
    grad_check::assert_gradients(&[q, k, v], 1e-2, 2e-2, |g, vars| {
        let ctx = g.attention(vars[0], vars[1], vars[2], 1, 0.7);
        let sq = g.mul(ctx, ctx); // non-uniform upstream gradient
        g.mean_all(sq)
    });
}

#[test]
fn gradcheck_through_the_multi_head_node() {
    let q = Tensor::from_fn(&[2, 3, 4], |i| (i as f32 * 0.23).sin() * 0.5);
    let k = Tensor::from_fn(&[2, 5, 4], |i| (i as f32 * 0.19).cos() * 0.5);
    let v = Tensor::from_fn(&[2, 5, 6], |i| (i as f32 * 0.31).sin() * 0.5);
    grad_check::assert_gradients(&[q, k, v], 1e-2, 2e-2, |g, vars| {
        let ctx = g.attention(vars[0], vars[1], vars[2], 2, 0.7);
        let sq = g.mul(ctx, ctx);
        g.mean_all(sq)
    });
}

#[test]
fn frozen_inputs_keep_no_probabilities_unless_asked() {
    // A constant-input node (the eval forward) must not pay for the
    // `[B, H, Tq, Tk]` tensor; asking for it yields the composition's.
    let q = values(1, &[2, 4, 6]);
    let kv = values(2, &[2, 5, 6]);
    let mut g = Graph::new();
    let (qv, kvv) = (g.constant(q.clone()), g.constant(kv.clone()));
    let before = g.len();
    let plain = g.attention(qv, kvv, kvv, 3, 0.5);
    assert_eq!(g.len() - before, 1, "one node");
    let (ctx, probs) = g.attention_with_probs(qv, kvv, kvv, 3, 0.5);
    let (want, want_probs) = composed(&q, &kv, &kv, 3, 0.5);
    assert_eq!(bits(g.value(plain)), bits(&want));
    assert_eq!(bits(g.value(ctx)), bits(&want));
    assert_eq!(g.shape(probs), &[2, 3, 4, 5]);
    assert_eq!(bits(g.value(probs)), bits(&want_probs));
}
