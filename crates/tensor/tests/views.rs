//! Property-based tests of the strided-view execution layer.
//!
//! Three families of invariants:
//!
//! 1. **View/materialize equivalence** — any op applied to a strided view
//!    must produce the same logical result as applying it to the
//!    materialized (contiguous) copy of that view.
//! 2. **Thread parity** — the blocked matmul must be bit-identical across
//!    thread counts (each output element is computed by exactly one thread,
//!    in the same accumulation order).
//! 3. **Zero-copy discipline** — composing view ops on contiguous inputs
//!    must not materialize any buffer, and gradients must flow through view
//!    nodes on the tape.

use proptest::prelude::*;
use tsdx_tensor::{copy_metrics, grad_check, metrics, ops, shape, Graph, Tensor};

/// Strategy: a rank-3 shape with extents 1-4.
fn shape3() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=4, 3..=3)
}

/// Strategy: a tensor of the given shape with bounded finite values.
fn tensor_of(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n = shape::numel(&shape);
    prop::collection::vec(-8.0f32..8.0, n..=n).prop_map(move |data| Tensor::from_vec(data, &shape))
}

fn arb_tensor3() -> impl Strategy<Value = Tensor> {
    shape3().prop_flat_map(tensor_of)
}

/// Strategy: a rank-3 tensor plus a permutation of its axes.
fn tensor_and_perm() -> impl Strategy<Value = (Tensor, Vec<usize>)> {
    let perms: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    (arb_tensor3(), 0usize..6).prop_map(move |(t, i)| (t, perms[i].clone()))
}

/// Builds a non-contiguous view by permuting and narrowing `t`, alongside
/// the step-by-step materialized reference.
fn view_and_reference(
    t: &Tensor,
    perm: &[usize],
    axis: usize,
    drop_front: bool,
) -> (Tensor, Tensor) {
    let view = ops::permute(t, perm);
    let reference = ops::permute(&t.contiguous(), perm).contiguous();
    let len = view.shape()[axis];
    let take = len.div_ceil(2);
    let start = if drop_front { len - take } else { 0 };
    (ops::narrow(&view, axis, start, take), ops::narrow(&reference, axis, start, take).contiguous())
}

proptest! {
    #[test]
    fn view_pipeline_matches_materialized(
        (t, perm) in tensor_and_perm(),
        axis in 0usize..3,
        drop_front in any::<bool>(),
    ) {
        let (view, reference) = view_and_reference(&t, &perm, axis, drop_front);
        prop_assert_eq!(view.shape(), reference.shape());
        prop_assert_eq!(view.to_vec(), reference.to_vec());
    }

    #[test]
    fn elementwise_on_views_matches_eager(
        (t, perm) in tensor_and_perm(),
    ) {
        let u = t.map(|x| x * 0.5 - 1.0);
        // add(permute(a), permute(b)) == permute(add(a, b)).
        let via_views = ops::add(&ops::permute(&t, &perm), &ops::permute(&u, &perm));
        let eager = ops::permute(&ops::add(&t, &u), &perm);
        prop_assert!(via_views.allclose(&eager, 0.0));
    }

    #[test]
    fn reductions_on_views_match_eager(
        (t, perm) in tensor_and_perm(),
        axis in 0usize..3,
    ) {
        let view = ops::permute(&t, &perm);
        let materialized = view.contiguous();
        let a = ops::sum_axis(&view, axis, false);
        let b = ops::sum_axis(&materialized, axis, false);
        prop_assert!(a.allclose(&b, 1e-5));
    }

    #[test]
    fn matmul_accepts_views_and_matches_contiguous(
        m in 1usize..5, k in 1usize..5, n in 1usize..5,
    ) {
        // a is produced as a transpose view of a [k, m] buffer.
        let a_t = Tensor::from_fn(&[k, m], |i| (i as f32 * 0.73).sin());
        let b_t = Tensor::from_fn(&[n, k], |i| (i as f32 * 0.41).cos());
        let a_view = ops::transpose_last2(&a_t); // [m, k], col-major
        let b_view = ops::transpose_last2(&b_t); // [k, n], col-major
        let via_views = ops::matmul(&a_view, &b_view);
        let eager = ops::matmul(&a_view.contiguous(), &b_view.contiguous());
        prop_assert!(via_views.allclose(&eager, 1e-5));
    }

    #[test]
    fn view_chain_copies_nothing(
        (t, perm) in tensor_and_perm(),
        axis in 0usize..3,
    ) {
        let scope = metrics::scope();
        let v1 = ops::permute(&t, &perm);
        let v2 = ops::transpose_last2(&v1);
        let len = v2.shape()[axis];
        let v3 = ops::narrow(&v2, axis, 0, len.div_ceil(2));
        prop_assert_eq!(scope.snapshot().counter(copy_metrics::KEY), 0,
            "view ops must not materialize");
        drop(scope);
        // The views still read correct data afterwards.
        prop_assert_eq!(v3.to_vec().len(), v3.numel());
    }

    #[test]
    fn gradients_flow_through_view_nodes(
        (t, perm) in tensor_and_perm(),
    ) {
        // loss = sum(permute(x)^2)  =>  dx = 2x regardless of the permute.
        let mut g = Graph::new();
        let x = g.leaf(t.clone());
        let p = g.permute(x, &perm);
        let sq = g.mul(p, p);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        let dx = grads.get(x).expect("leaf gradient");
        prop_assert!(dx.allclose(&ops::scale(&t, 2.0), 1e-5));
    }

    #[test]
    fn narrow_gradient_masks_outside_window(
        (t, perm) in tensor_and_perm(),
    ) {
        // loss = sum(narrow(permute(x))) => dx is 1 inside the window, 0 out.
        let mut g = Graph::new();
        let x = g.leaf(t.clone());
        let p = g.permute(x, &perm);
        let len = g.shape(p)[1];
        let take = len.div_ceil(2);
        let nr = g.narrow(p, 1, 0, take);
        let loss = g.sum_all(nr);
        let grads = g.backward(loss);
        let dx = grads.get(x).expect("leaf gradient");
        // Sum of the gradient equals the number of selected elements.
        let selected = g.shape(nr).iter().product::<usize>() as f32;
        prop_assert!((dx.sum() - selected).abs() < 1e-4);
        // And every entry is 0 or 1.
        prop_assert!(dx.to_vec().iter().all(|&v| v == 0.0 || v == 1.0));
    }
}

#[test]
fn view_grads_match_numerical_gradients() {
    let x = Tensor::from_fn(&[2, 3, 4], |i| ((i * 13 % 29) as f32 - 14.0) * 0.1);
    grad_check::assert_gradients(&[x], 1e-2, 1e-2, |g, v| {
        let p = g.permute(v[0], &[2, 0, 1]); // [4, 2, 3]
        let n = g.narrow(p, 0, 1, 2); // [2, 2, 3]
        let t = g.transpose_last2(n); // [2, 3, 2]
        let sq = g.mul(t, t);
        g.sum_all(sq)
    });
}

#[test]
fn backward_through_views_copies_only_at_the_boundary() {
    // A permute on the tape: the backward view is free; the only copy is
    // the final materialization of the leaf gradient at the API boundary.
    let t = Tensor::from_fn(&[3, 4, 5], |i| i as f32 * 0.01);
    let mut g = Graph::new();
    let x = g.leaf(t);
    let p = g.permute(x, &[2, 0, 1]);
    let loss = g.sum_all(p);
    let scope = metrics::scope();
    let grads = g.backward(loss);
    let copies = scope.snapshot().counter(copy_metrics::KEY);
    drop(scope);
    assert!(
        copies <= 1,
        "backward through a permute should materialize at most the leaf \
         gradient, saw {copies} copies",
    );
    assert!(grads.get(x).unwrap().is_contiguous());
}
