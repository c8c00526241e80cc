//! Shapes are held inline, up to `shape::MAX_RANK` dimensions: what the
//! limit refuses, that views at both ends of the range read the right
//! elements, and that shapes print as slices.

use tsdx_tensor::shape::{self, MAX_RANK};
use tsdx_tensor::{ops, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|x| x.to_bits()).collect()
}

#[test]
#[should_panic(expected = "exceeds the tensor rank limit of 6")]
fn from_vec_refuses_rank_seven() {
    Tensor::from_vec(vec![1.0; 2], &[1, 1, 1, 2, 1, 1, 1]);
}

#[test]
#[should_panic(expected = "exceeds the tensor rank limit of 6")]
fn reshape_refuses_rank_seven() {
    Tensor::arange(4).reshape(&[1, 2, 1, 1, 2, 1, usize::MAX]);
}

#[test]
fn a_scalar_round_trips_through_every_view_op() {
    let t = Tensor::scalar(-2.5);
    let back = ops::narrow(&ops::permute(&t, &[]).reshape(&[1]), 0, 0, 1).reshape(&[]);
    assert_eq!(back.shape(), &[] as &[usize]);
    assert_eq!(bits(&back.contiguous()), bits(&t));
}

#[test]
fn rank_six_views_read_the_elements_of_a_dense_copy() {
    assert_eq!(MAX_RANK, 6);
    let dims = [2, 3, 1, 2, 2, 3];
    let t = Tensor::from_fn(&dims, |i| (i as f32 * 0.37).sin());
    let perm = [5, 3, 0, 4, 2, 1];
    // Rows 1..3 of the permuted leading axis (the source's last).
    let view = ops::narrow(&ops::permute(&t, &perm), 0, 1, 2);
    assert!(!view.is_contiguous());
    assert_eq!(view.shape(), &[2, 2, 2, 2, 1, 3]);
    let dense = Tensor::from_fn(view.shape(), |flat| {
        let idx = shape::index_of(view.shape(), flat);
        let mut src = [0; 6];
        for (axis, &p) in perm.iter().enumerate() {
            src[p] = idx[axis] + if axis == 0 { 1 } else { 0 };
        }
        t.at(&src)
    });
    assert_eq!(bits(&view.contiguous()), bits(&dense));
    let flat = view.reshape(&[usize::MAX]);
    assert_eq!(bits(&flat), bits(&dense));
    // Back to the view's shape, then the inverse permutation: the narrowed
    // source in its own layout.
    let mut inverse = [0; 6];
    perm.iter().enumerate().for_each(|(axis, &p)| inverse[p] = axis);
    let restored = ops::permute(&flat.reshape(view.shape()), &inverse);
    assert_eq!(bits(&restored.contiguous()), bits(&ops::narrow(&t, 5, 1, 2).contiguous()));
}

#[test]
fn debug_prints_the_shape_as_a_slice() {
    let t = Tensor::arange(6).reshape(&[2, 3]);
    assert_eq!(format!("{t:?}"), "Tensor[2, 3] [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]");
    assert_eq!(format!("{:?}", shape::strides(t.shape())), "[3, 1]");
}

#[test]
#[should_panic(expected = "a view with shape [3, 2] and strides [1, 3]")]
fn data_names_the_view_layout() {
    let _ = ops::transpose_last2(&Tensor::arange(6).reshape(&[2, 3])).data();
}

#[test]
#[should_panic(expected = "reshape from [2, 3] to [4, 2] changes element count")]
fn reshape_names_both_shapes() {
    Tensor::arange(6).reshape(&[2, 3]).reshape(&[4, 2]);
}
