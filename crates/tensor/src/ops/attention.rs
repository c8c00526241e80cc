//! Multi-head scaled-dot-product attention: one lane kernel for every
//! shape, training and eval.
//!
//! [`attention`] takes the *unsplit* projections — `q [.., Tq, H·dh]`,
//! `k [.., Tk, H·dh]`, `v [.., Tk, H·dv]` — and returns the *merged*
//! `[.., Tq, H·dv]`. Its `(batch element, head)` pairs are independent
//! problems of a few short rows each (17 tokens or 5 at the model's shapes,
//! `dh` 16), far too small for a GEMM tile, so the kernel ([`Ctx::lanes`])
//! puts sixteen pairs side by side in the lanes of one vector and lets each
//! lane replay its pair's scalar chain. Per lane group the pairs' K head
//! slices are transposed lane-major once, and per query row its Q slices
//! ([`Lanes::gather`]); a row's scores are `Tk` independent fused
//! multiply-add chains over `d`, then `·scale` and the running maximum as
//! each is stored, `− max`, [`crate::fastmath::exp`] summed on the way in
//! `lane_sum`'s order ([`lanes_fold`]), and a true division, all lane-wise;
//! the context is computed in row layout straight into its merged position
//! ([`Lanes::weighted_rows`]: each lane's V rows weighted by its lane of the
//! probabilities, one chain per element over the keys; output row stride
//! `H·dv`, columns `h·dv..`), so V is never transposed and the output never
//! transposed back. Two query rows per lane go at once while two are left,
//! each K and V element loaded feeding both; a call with fewer pairs than
//! lanes — a stream round's 8, one clip's temporal window's 4 — gives the
//! spare lanes further query rows of the same pairs. No head split, no `kᵀ`
//! view, no scale pass, no merge copy, and the `[.., H, Tq, Tk]`
//! probabilities are stored only when the caller keeps them
//! ([`attention_with_probs`], for backward and introspection); scratch is
//! `16·(Tk·dh + 2·dh + 2·Tk)` floats.
//!
//! Where the `KERNEL` dial selects the AVX-512 kernel, the same body runs as
//! compiled for AVX-512F with `zmm` lanes and 16×16 in-register
//! transposes (`matmul::avx512::attention`); elsewhere, as compiled for the
//! build baseline with `[f32; 16]` lanes and element-by-element moves
//! ([`Portable`]), the parity reference.
//!
//! # Same bits as the composition
//!
//! Every output element is what `permute → matmul(q, kᵀ) → scale →
//! softmax_last → matmul(p, v) → merge` computes, bit for bit: a score is one
//! accumulator fused-multiply-added from zero in ascending `d` (the chain
//! every GEMM path builds, see [`super::matmul`](mod@super::matmul)), then
//! `·scale` and `− max` each rounded once, the shared exponential and lane
//! sum, a true division, and a context element is again one ascending
//! fused-multiply-add chain over the keys. Lanes, blocking and the order of
//! the chains only decide where an element is computed, never its chain, so
//! results do not depend on shape, batch size or kernel.
//! `tests/attention_parity.rs` pins all of it against the composition of
//! public ops.
//!
//! [`attention_backward`] is the composed rule on the kept probabilities,
//! through the same [`super::matmul()`] and softmax-backward kernels the
//! composed graph's backward runs.

use super::matmul::use_avx512;
use super::reduce::{lanes_fold, softmax_last_backward, Lane, Lanes, Portable, LANES};
use super::{matmul, permute, scale, transpose_last2};
use crate::shape::Dims;
use crate::workspace::{self, Scratch};
use crate::Tensor;

/// Validated geometry shared by forward and backward.
#[derive(Clone, Copy)]
struct Geom {
    nb: usize,
    tq: usize,
    tk: usize,
    heads: usize,
    /// Query/key width per head.
    dh: usize,
    /// Value (and output) width per head.
    dv: usize,
}

fn geometry(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Geom {
    let (qs, ks, vs) = (q.shape(), k.shape(), v.shape());
    assert!(qs.len() >= 2, "attention expects rank >= 2, got q {qs:?}");
    assert_eq!(qs.len(), ks.len(), "q/k rank mismatch: {qs:?} vs {ks:?}");
    assert_eq!(qs.len(), vs.len(), "q/v rank mismatch: {qs:?} vs {vs:?}");
    let r = qs.len();
    assert_eq!(qs[..r - 2], ks[..r - 2], "q/k batch dims differ");
    assert_eq!(qs[..r - 2], vs[..r - 2], "q/v batch dims differ");
    let (d, dv) = (qs[r - 1], vs[r - 1]);
    assert_eq!(ks[r - 1], d, "q/k feature dims differ");
    let tk = ks[r - 2];
    assert_eq!(vs[r - 2], tk, "k/v sequence lengths differ");
    assert!(
        heads > 0 && d.is_multiple_of(heads) && dv.is_multiple_of(heads),
        "heads ({heads}) must divide the q/k width ({d}) and the v width ({dv})"
    );
    assert!(tk > 0 && d > 0, "attention needs at least one key and one feature");
    Geom {
        nb: qs[..r - 2].iter().product(),
        tq: qs[r - 2],
        tk,
        heads,
        dh: d / heads,
        dv: dv / heads,
    }
}

/// `shape` with its last two extents replaced by `tail`.
fn with_tail(shape: &[usize], tail: &[usize]) -> Dims {
    shape[..shape.len() - 2].iter().chain(tail).copied().collect()
}

/// One operand as `nb` matrices of unit-stride rows: row `t` of matrix `b`
/// starts at `data[base + b * bs + t * rs]`.
struct Slab<'a> {
    data: &'a [f32],
    base: usize,
    bs: usize,
    rs: usize,
}

impl<'a> Slab<'a> {
    /// Reads a `[B, T, W]` view with unit-stride rows (a projection's
    /// output, or a narrow of one) in place; anything else is gathered into
    /// a dense copy held in `dense` first.
    fn new(t: &'a Tensor, dense: &'a mut Option<Tensor>) -> Slab<'a> {
        if t.rank() == 3 && t.strides()[2] == 1 {
            let s = t.strides();
            return Slab { data: t.raw_data(), base: t.offset(), bs: s[0], rs: s[1] };
        }
        let (rows, width) = (t.shape()[t.rank() - 2], t.shape()[t.rank() - 1]);
        let dense = dense.insert(t.contiguous());
        Slab { data: dense.raw_data(), base: dense.offset(), bs: rows * width, rs: width }
    }
}

/// The operands and geometry of one attention call.
pub(super) struct Ctx<'a> {
    q: Slab<'a>,
    k: Slab<'a>,
    v: Slab<'a>,
    geom: Geom,
    scale: f32,
}

/// Keys per block of score chains in the build baseline's compile: four
/// lane vectors of accumulators per query row are eight of its sixteen
/// `ymm` registers. (The AVX-512F compile's blocks are `matmul::avx512`'s.)
const YMM_KEYS: usize = 4;

impl Ctx<'_> {
    /// [`Ctx::lanes`] as compiled for AVX-512F where the `KERNEL` dial
    /// selects the AVX-512 kernel, for the build baseline otherwise.
    fn run(&self, out: &mut [f32], probs: Option<&mut [f32]>) {
        #[cfg(target_arch = "x86_64")]
        if use_avx512() {
            return super::matmul::avx512::attention(self, out, probs);
        }
        self.lanes::<Portable, YMM_KEYS>(&Portable, out, probs)
    }

    /// Every pair's rows into `out` (whole `[Tq, H·dv]` slabs) and, when
    /// kept, their probabilities into `probs` (whole `[H, Tq, Tk]` slabs),
    /// sixteen pairs — or fewer pairs and several query rows each — per
    /// lane group, computed and moved by `v`. Every element of both is
    /// stored. `KB` keys per block of score chains. The body both compiles
    /// of the kernel inline.
    #[inline(always)]
    pub(super) fn lanes<L: Lanes, const KB: usize>(
        &self,
        v: &L,
        out: &mut [f32],
        mut probs: Option<&mut [f32]>,
    ) {
        let Geom { nb, tq, tk, dh, .. } = self.geom;
        let pairs = nb * self.geom.heads;
        // Every slot is written before it is read: `kt` and `qt` by their
        // gathers, `s` by the score chains.
        let mut scratch = Scratch::uninit((tk * dh + 2 * (dh + tk)) * LANES);
        let lanes = scratch.as_chunks_mut::<LANES>().0;
        let (kt, rest) = lanes.split_at_mut(tk * dh);
        let (qt, s) = rest.split_at_mut(2 * dh);
        for p0 in (0..pairs).step_by(LANES) {
            let group = Group::new(self, p0);
            v.gather(self.k.data, &group.head(&self.k, dh), self.k.rs, tk, dh, kt);
            // Two rounds of query rows at once while two are left: each K
            // and V element loaded feeds both.
            let mut i0 = 0;
            while i0 < tq {
                if tq - i0 > group.splits {
                    self.rounds::<L, KB, 2>(v, &group, i0, kt, qt, s, out, probs.as_deref_mut());
                    i0 += 2 * group.splits;
                } else {
                    let (qt, s) = (&mut qt[..dh], &mut s[..tk]);
                    self.rounds::<L, KB, 1>(v, &group, i0, kt, qt, s, out, probs.as_deref_mut());
                    i0 += group.splits;
                }
            }
        }
    }

    /// `R` rounds of one lane group's query rows from row `i0` on: round
    /// `r`'s lane `l` takes row `i0 + r·splits + split(l)`. `qt` holds
    /// `R·dh` lane vectors, `s` `R·Tk`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn rounds<L: Lanes, const KB: usize, const R: usize>(
        &self,
        v: &L,
        group: &Group,
        i0: usize,
        kt: &[Lane],
        qt: &mut [Lane],
        s: &mut [Lane],
        out: &mut [f32],
        probs: Option<&mut [f32]>,
    ) {
        let Geom { tq, tk, heads, dh, dv, .. } = self.geom;
        let Group { b, h, split, g, splits } = *group;
        let n = heads * dv;
        let mut row = [[0; LANES]; R];
        let mut live = [0; R];
        for (r, (row, live)) in row.iter_mut().zip(&mut live).enumerate() {
            let first = i0 + r * splits;
            // Lane `l`'s query row; idle lanes read a real row and store
            // nothing.
            *row = std::array::from_fn(|l| (first + split[l]).min(tq - 1));
            *live = g * splits.min(tq.saturating_sub(first));
        }
        let (q, vs) = (&self.q, &self.v);
        let q0 = group.head(q, dh);
        for (qt, row) in qt.chunks_exact_mut(dh).zip(&row) {
            v.gather(q.data, &std::array::from_fn(|l| q0[l] + row[l] * q.rs), 0, 1, dh, qt);
        }
        let mut max = [v.splat(f32::NEG_INFINITY); R];
        scores::<L, KB, R>(v, qt, kt, s, v.splat(self.scale), &mut max);
        for (s, &max) in s.chunks_exact_mut(tk).zip(&max) {
            softmax(v, s, max);
        }
        if let Some(kept) = probs {
            for ((s, row), &live) in s.chunks_exact(tk).zip(&row).zip(&live) {
                let at = |l: usize| ((b[l] * heads + h[l]) * tq + row[l]) * tk;
                v.scatter(s, tk, kept, &std::array::from_fn(at), live);
            }
        }
        let at = row.map(|row| std::array::from_fn(|l| (b[l] * tq + row[l]) * n + h[l] * dv));
        v.weighted_rows::<R>(s, vs.data, &group.head(vs, dv), vs.rs, dv, out, &at, live);
    }
}

/// One lane group: `g` pairs from pair `p0` on, each in `splits` lanes that
/// take every `splits`-th query row; lanes past `g·splits` idle. Per lane:
/// its pair's batch element `b` and head `h`, and its `split`.
struct Group {
    b: [usize; LANES],
    h: [usize; LANES],
    split: [usize; LANES],
    g: usize,
    splits: usize,
}

impl Group {
    fn new(ctx: &Ctx, p0: usize) -> Group {
        let heads = ctx.geom.heads;
        let g = LANES.min(ctx.geom.nb * heads - p0);
        let pair: [usize; LANES] = std::array::from_fn(|l| p0 + l % g);
        Group {
            b: pair.map(|p| p / heads),
            h: pair.map(|p| p % heads),
            split: std::array::from_fn(|l| l / g),
            g,
            splits: LANES / g,
        }
    }

    /// Where each lane's head slice of `x`'s first row starts, `w` the
    /// head width.
    fn head(&self, x: &Slab, w: usize) -> [usize; LANES] {
        std::array::from_fn(|l| x.base + self.b[l] * x.bs + self.h[l] * w)
    }
}

/// `s[r·Tk + j] = Σ_d qt[r·dh + d]·kt[j·dh + d] · scale` per lane for `R`
/// query rows, and each row's running maximum into `max[r]`: one chain per
/// key and row, fused-multiply-added from zero in ascending `d`, then
/// `·scale` rounded and [`Lanes::keep_max`] in ascending `j` — the softmax's
/// first pass as each score is stored. The chains of up to `KB` keys of
/// every row are interleaved in registers ([`score_block`]), each key
/// element loaded once for all rows.
#[inline(always)]
fn scores<L: Lanes, const KB: usize, const R: usize>(
    v: &L,
    qt: &[Lane],
    kt: &[Lane],
    s: &mut [Lane],
    scale: L::V,
    max: &mut [L::V; R],
) {
    let (dh, tk) = (qt.len() / R, s.len() / R);
    let full = tk / KB * KB;
    for j0 in (0..full).step_by(KB) {
        score_block::<L, KB, R>(v, qt, &kt[j0 * dh..][..KB * dh], s, j0, scale, max);
    }
    let keys = &kt[full * dh..];
    macro_rules! rest {
        ($($n:literal)*) => {
            match tk - full {
                0 => {}
                $($n => score_block::<L, $n, R>(v, qt, keys, s, full, scale, max),)*
                _ => unreachable!("fewer than KB <= 9 keys remain"),
            }
        };
    }
    rest!(1 2 3 4 5 6 7 8);
}

/// The scaled scores of `N` keys from key `j0` on, `keys` their `N·dh` lane
/// vectors, for each of the `R` query rows in `qt` (see [`scores`]).
#[inline(always)]
fn score_block<L: Lanes, const N: usize, const R: usize>(
    v: &L,
    qt: &[Lane],
    keys: &[Lane],
    s: &mut [Lane],
    j0: usize,
    scale: L::V,
    max: &mut [L::V; R],
) {
    let (dh, tk) = (qt.len() / R, s.len() / R);
    let keys: [&[Lane]; N] = std::array::from_fn(|j| &keys[j * dh..][..dh]);
    let rows: [&[Lane]; R] = std::array::from_fn(|r| &qt[r * dh..][..dh]);
    let mut acc = [[v.splat(0.0); N]; R];
    for d in 0..dh {
        let mut q = [v.splat(0.0); R];
        for (q, row) in q.iter_mut().zip(rows) {
            *q = v.load(&row[d]);
        }
        for (j, key) in keys.iter().enumerate() {
            let k = v.load(&key[d]);
            for (acc, &q) in acc.iter_mut().zip(&q) {
                acc[j] = v.fma(q, k, acc[j]);
            }
        }
    }
    for ((acc, s), max) in acc.iter().zip(s.chunks_exact_mut(tk)).zip(max) {
        for (&a, o) in acc.iter().zip(&mut s[j0..j0 + N]) {
            let scaled = v.mul(a, scale);
            *max = v.keep_max(scaled, *max);
            v.store(scaled, o);
        }
    }
}

/// The rest of the row softmax of [`super::softmax_last`] on lane-major
/// scaled scores whose row maxima are `max` (NaN ignored, −∞ for a row of
/// nothing else), in place, lane by lane: `x − max` rounded, the
/// exponential — summed on the way in `lane_sum`'s order — then divided
/// by the sum.
#[inline(always)]
fn softmax<L: Lanes>(v: &L, s: &mut [Lane], max: L::V) {
    let (chunks, rest) = s.as_chunks_mut::<8>();
    let mut acc = [v.splat(0.0); 8];
    for c in chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a = v.add(*a, exp_in_place(v, x, max));
        }
    }
    let mut tail = v.splat(0.0);
    for x in rest {
        tail = v.add(tail, exp_in_place(v, x, max));
    }
    let denom = lanes_fold(v, acc, tail);
    for x in s.iter_mut() {
        v.store(v.div(v.load(x), denom), x);
    }
}

/// `x ← exp(x − max)`, returning the new `x`. (A function, not a closure:
/// a closure over [`Lanes`] operations is compiled without the AVX-512F
/// twin's target feature.)
#[inline(always)]
fn exp_in_place<L: Lanes>(v: &L, x: &mut Lane, max: L::V) -> L::V {
    let e = v.exp(v.sub(v.load(x), max));
    v.store(e, x);
    e
}

/// Forward over every batch element; `keep` also returns the probabilities.
fn forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
    keep: bool,
) -> (Tensor, Option<Tensor>) {
    let _span = crate::metrics::span("op/attention");
    let geom = geometry(q, k, v, heads);
    let Geom { nb, tq, tk, dv, .. } = geom;
    let out_shape = with_tail(q.shape(), &[tq, heads * dv]);
    let probs_shape = || with_tail(q.shape(), &[heads, tq, tk]);
    let (per_out, per_probs) = (tq * heads * dv, heads * tq * tk);
    if nb * per_out == 0 {
        return (Tensor::zeros(&out_shape), keep.then(|| Tensor::zeros(&probs_shape())));
    }
    // Dense copies of the operands `Slab` cannot read in place.
    let [mut dense_q, mut dense_k, mut dense_v] = [None, None, None];
    let ctx = Ctx {
        q: Slab::new(q, &mut dense_q),
        k: Slab::new(k, &mut dense_k),
        v: Slab::new(v, &mut dense_v),
        geom,
        scale,
    };
    let mut out = workspace::take_uninit(nb * per_out);
    let mut probs = keep.then(|| workspace::take_uninit(nb * per_probs));
    ctx.run(&mut out, probs.as_deref_mut());
    (Tensor::from_vec(out, &out_shape), probs.map(|p| Tensor::from_vec(p, &probs_shape())))
}

/// Multi-head scaled-dot-product attention on unsplit projections:
/// `softmax(scale · qₕ kₕᵀ) vₕ` for each of `heads` column groups, merged.
///
/// `q` is `[..., Tq, D]`, `k` is `[..., Tk, D]`, `v` is `[..., Tk, Dv]` with
/// identical leading (batch) dimensions and `heads` dividing `D` and `Dv`;
/// the result is `[..., Tq, Dv]`, head `h` occupying columns
/// `h·Dv/heads ..`. Bit-identical to the composition of [`permute`],
/// [`matmul()`], [`scale()`] and [`super::softmax_last`] for every shape
/// (see the module docs); the probabilities are not materialized.
///
/// # Panics
///
/// Panics on rank or dimension mismatches between `q`, `k`, and `v`, a
/// `heads` that does not divide both widths, or an empty key set.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
    forward(q, k, v, heads, scale, false).0
}

/// [`attention`] that also returns the probabilities `[..., heads, Tq, Tk]`
/// — what the backward pass and attention-map introspection read.
pub fn attention_with_probs(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
) -> (Tensor, Tensor) {
    let (out, probs) = forward(q, k, v, heads, scale, true);
    (out, probs.expect("kept on request"))
}

/// Backward of [`attention`]: gradients w.r.t. `q`, `k`, and `v` given the
/// forward's `probs` and the upstream gradient `grad` of shape
/// `[..., Tq, Dv]`.
///
/// The composed rule, op for op what the tape replays for `matmul → scale →
/// softmax_last → matmul` between a head split and a merge — `dp = g vᵀ`,
/// `dv = pᵀ g`, `ds = scale · softmax′(p, dp)`, `dq = ds k`, `dk = (qᵀ ds)ᵀ`
/// on head-split views — so the gradients carry the composition's bits.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub(crate) fn attention_backward(
    probs: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale_by: f32,
    grad: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let _span = crate::metrics::span("op/attention_bwd");
    let Geom { nb, tq, tk, dh, dv, .. } = geometry(q, k, v, heads);
    assert_eq!(grad.shape(), &with_tail(q.shape(), &[tq, heads * dv])[..], "attention grad shape");
    assert_eq!(probs.shape(), &with_tail(q.shape(), &[heads, tq, tk])[..], "attention probs shape");
    // `[.., T, H·w]` as the `[nb, H, T, w]` view, and back (one copy).
    let split = |t: &Tensor, rows: usize, w: usize| {
        permute(&t.reshape(&[nb, rows, heads, w]), &[0, 2, 1, 3])
    };
    let merge = |t: &Tensor, like: &Tensor| permute(t, &[0, 2, 1, 3]).reshape(like.shape());
    let (qh, kh, vh, gh) =
        (split(q, tq, dh), split(k, tk, dh), split(v, tk, dv), split(grad, tq, dv));
    let p = probs.reshape(&[nb, heads, tq, tk]);

    let dp = matmul(&gh, &transpose_last2(&vh));
    let dvh = matmul(&transpose_last2(&p), &gh);
    let ds = scale(&softmax_last_backward(&p, &dp), scale_by);
    let dqh = matmul(&ds, &kh);
    let dkh = transpose_last2(&matmul(&transpose_last2(&qh), &ds));
    (merge(&dqh, q), merge(&dkh, k), merge(&dvh, v))
}

#[cfg(test)]
mod tests {
    // Parity with the composition (values, gradients, kernels)
    // lives in `tests/attention_parity.rs`; here, what needs crate internals.
    use super::*;
    use crate::ops;

    #[test]
    fn rows_are_convex_combinations() {
        // With v = ones, each output row must be a convex combination:
        // weights positive, summing to 1.
        let q = Tensor::from_fn(&[1, 4, 6], |i| (i as f32 * 0.41).sin());
        let k = Tensor::from_fn(&[1, 5, 6], |i| (i as f32 * 0.17).cos());
        let v = Tensor::ones(&[1, 5, 4]);
        let out = attention(&q, &k, &v, 2, 0.7);
        for &x in out.data() {
            assert!((x - 1.0).abs() < 1e-5, "convex combination of ones must be 1, got {x}");
        }
    }

    #[test]
    fn reads_row_strided_views_in_place() {
        // A narrow along the sequence and along the width: rows stay
        // unit-stride, so nothing is materialized.
        let base = Tensor::from_fn(&[2, 9, 12], |i| (i as f32 * 0.11).sin());
        let q = ops::narrow(&ops::narrow(&base, 1, 2, 5), 2, 4, 8);
        let kv = ops::narrow(&base, 2, 1, 8);
        let _scope = crate::metrics::scope();
        let in_place = attention(&q, &kv, &kv, 2, 0.5);
        assert_eq!(crate::copy_metrics::copies(), 0, "the kernel must consume the views directly");
        let dense = attention(&q.contiguous(), &kv.contiguous(), &kv.contiguous(), 2, 0.5);
        assert_eq!(in_place.to_vec(), dense.to_vec());
    }
}
