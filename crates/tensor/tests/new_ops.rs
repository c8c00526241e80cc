//! Tests for the extended op set: max pooling, padding, stack/split, and
//! layer norm without its saved statistics.

use tsdx_tensor::grad_check::assert_gradients;
use tsdx_tensor::{ops, Tensor};

#[test]
fn max_pool_picks_maxima_and_routes_gradients() {
    let img = Tensor::from_vec(
        vec![
            1.0, 2.0, 5.0, 4.0, //
            3.0, 0.0, 1.0, 2.0, //
            9.0, 1.0, 0.0, 0.0, //
            1.0, 1.0, 0.0, 7.0,
        ],
        &[1, 1, 4, 4],
    );
    let (pooled, argmax) = ops::max_pool2d(&img, 2);
    assert_eq!(pooled.data(), &[3.0, 5.0, 9.0, 7.0]);
    // Backward: each gradient lands exactly on its argmax.
    let grad = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[1, 1, 2, 2]);
    let back = ops::max_pool2d_backward(&grad, &argmax, 16);
    assert_eq!(back.shape(), &[1, 1, 4, 4]);
    assert_eq!(back.at(&[0, 0, 1, 0]), 10.0); // 3.0 at (1,0)
    assert_eq!(back.at(&[0, 0, 0, 2]), 20.0); // 5.0 at (0,2)
    assert_eq!(back.at(&[0, 0, 2, 0]), 30.0); // 9.0 at (2,0)
    assert_eq!(back.at(&[0, 0, 3, 3]), 40.0); // 7.0 at (3,3)
    assert_eq!(back.sum(), 100.0);
}

#[test]
fn max_pool_gradcheck_through_graph() {
    // Distinct values avoid argmax ties that break numerical gradients.
    let x = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 37 + 11) % 101) as f32 * 0.07);
    assert_gradients(&[x], 1e-3, 1e-2, |g, v| {
        let p = g.max_pool2d(v[0], 2);
        let sq = g.mul(p, p);
        g.sum_all(sq)
    });
}

#[test]
fn pad2d_zero_extends_borders() {
    let img = Tensor::ones(&[1, 1, 2, 2]);
    let p = ops::pad2d(&img, 1);
    assert_eq!(p.shape(), &[1, 1, 4, 4]);
    assert_eq!(p.sum(), 4.0);
    assert_eq!(p.at(&[0, 0, 0, 0]), 0.0);
    assert_eq!(p.at(&[0, 0, 1, 1]), 1.0);
    assert_eq!(p.at(&[0, 0, 2, 2]), 1.0);
    assert_eq!(p.at(&[0, 0, 3, 3]), 0.0);
}

#[test]
fn stack_creates_leading_axis() {
    let a = Tensor::arange(4).reshape(&[2, 2]);
    let b = a.map(|x| x + 10.0);
    let s = ops::stack(&[&a, &b]);
    assert_eq!(s.shape(), &[2, 2, 2]);
    assert_eq!(s.at(&[0, 1, 1]), 3.0);
    assert_eq!(s.at(&[1, 0, 0]), 10.0);
}

#[test]
fn split_inverts_equal_concat() {
    let a = Tensor::arange(6).reshape(&[2, 3]);
    let b = a.map(|x| x + 100.0);
    let joined = ops::concat(&[&a, &b], 0);
    let parts = ops::split(&joined, 0, 2);
    assert_eq!(parts.len(), 2);
    assert_eq!(parts[0], a);
    assert_eq!(parts[1], b);
    // Along the second axis too.
    let cols = ops::split(&a, 1, 3);
    assert_eq!(cols.len(), 3);
    assert_eq!(cols[1].to_vec(), vec![1.0, 4.0]);
}

#[test]
fn layer_norm_without_stats_matches_the_differentiable_forward() {
    let input =
        |shape: &[usize], freq: f32| Tensor::from_fn(shape, |i| (i as f32 * freq).sin() * 2.0);
    let x = input(&[9, 12], 0.41);
    let gamma = input(&[12], 0.05);
    let beta = input(&[12], 0.03);
    let with_stats = ops::layer_norm_forward(&x, &gamma, &beta, 1e-5).0;
    assert_eq!(ops::layer_norm(&x, &gamma, &beta, 1e-5).to_vec(), with_stats.to_vec());
}

#[test]
#[should_panic]
fn split_rejects_uneven_parts() {
    ops::split(&Tensor::zeros(&[2, 3]), 1, 2);
}

#[test]
#[should_panic]
fn stack_rejects_mismatched_shapes() {
    ops::stack(&[&Tensor::zeros(&[2]), &Tensor::zeros(&[3])]);
}
