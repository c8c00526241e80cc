//! 2-D convolution (im2col-based) and average pooling.

use crate::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride, and zero padding.
///
/// Inputs are `[B, C, H, W]`, weights `[O, C, KH, KW]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A square `k`×`k` kernel with the given stride and padding.
    pub fn new(k: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec { kh: k, kw: k, stride, padding }
    }

    /// Output spatial size for an `h`×`w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let hp = h + 2 * self.padding;
        let wp = w + 2 * self.padding;
        assert!(hp >= self.kh && wp >= self.kw, "kernel larger than padded input");
        ((hp - self.kh) / self.stride + 1, (wp - self.kw) / self.stride + 1)
    }
}

/// Gathers the patches of a single `[C, H, W]` image into `out`
/// (`C*KH*KW * OH*OW` elements). Every element is stored — padding
/// positions write an explicit `0.0` — so callers may hand over
/// uninitialized (recycled) buffers.
fn im2col_image(image: &[f32], out: &mut [f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) {
    let (oh, ow) = spec.out_size(h, w);
    let cols = oh * ow;
    let pad = spec.padding as isize;
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let orow = &mut out[row * cols..(row + 1) * cols];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    let in_y = iy >= 0 && iy < h as isize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        orow[p] = if in_y && ix >= 0 && ix < w as isize {
                            image[ci * h * w + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        p += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Unfolds image patches into columns.
///
/// Input `[B, C, H, W]` becomes `[B, C*KH*KW, OH*OW]`, where column `p`
/// holds the receptive field of output pixel `p`.
fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let sh = input.shape();
    assert_eq!(sh.len(), 4, "im2col expects [B, C, H, W]");
    let (b, c, h, w) = (sh[0], sh[1], sh[2], sh[3]);
    let (oh, ow) = spec.out_size(h, w);
    let cols = oh * ow;
    let rows = c * spec.kh * spec.kw;
    let input = input.contiguous(); // patch gather indexes the flat buffer

    // `im2col_image` stores every element, padding included.
    let mut out = crate::workspace::take_uninit(b * rows * cols);
    let data = input.data();
    for bi in 0..b {
        let image = &data[bi * c * h * w..(bi + 1) * c * h * w];
        im2col_image(image, &mut out[bi * rows * cols..(bi + 1) * rows * cols], c, h, w, spec);
    }
    Tensor::from_vec(out, &[b, rows, cols])
}

/// Adjoint of [`im2col`]: folds columns back into an image, accumulating
/// overlapping receptive fields.
pub(crate) fn col2im(cols_t: &Tensor, spec: &Conv2dSpec, c: usize, h: usize, w: usize) -> Tensor {
    let sh = cols_t.shape();
    assert_eq!(sh.len(), 3, "col2im expects [B, C*KH*KW, OH*OW]");
    let b = sh[0];
    let (oh, ow) = spec.out_size(h, w);
    let cols = oh * ow;
    let rows = c * spec.kh * spec.kw;
    assert_eq!(sh[1], rows, "col2im row mismatch");
    assert_eq!(sh[2], cols, "col2im column mismatch");
    let mut out = crate::workspace::take_zeroed(b * c * h * w);
    let cols_t = cols_t.contiguous();
    let data = cols_t.data();
    let pad = spec.padding as isize;
    for bi in 0..b {
        let out_base = bi * c * h * w;
        let in_base = bi * rows * cols;
        let mut row = 0usize;
        for ci in 0..c {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let irow = &data[in_base + row * cols..in_base + (row + 1) * cols];
                    let mut p = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride) as isize + ky as isize - pad;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride) as isize + kx as isize - pad;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[out_base + ci * h * w + iy as usize * w + ix as usize] +=
                                    irow[p];
                            }
                            p += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

/// 2-D convolution forward pass.
///
/// `input` is `[B, C, H, W]`, `weight` is `[O, C, KH, KW]`; the result is
/// `[B, O, OH, OW]`, returned with the unfolded input `[B, C*KH*KW, OH*OW]`
/// that the backward pass reads. Bias, if any, is added by the caller.
///
/// # Panics
///
/// Panics on shape mismatches between input, weight, and `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> (Tensor, Tensor) {
    let _span = crate::metrics::span("op/conv2d");
    let ish = input.shape();
    let wsh = weight.shape();
    assert_eq!(ish.len(), 4, "conv2d input must be [B, C, H, W]");
    assert_eq!(wsh.len(), 4, "conv2d weight must be [O, C, KH, KW]");
    assert_eq!(ish[1], wsh[1], "channel mismatch");
    assert_eq!((wsh[2], wsh[3]), (spec.kh, spec.kw), "kernel/spec mismatch");
    let (b, o) = (ish[0], wsh[0]);
    let (oh, ow) = spec.out_size(ish[2], ish[3]);
    let cols = im2col(input, spec); // [B, CKK, OHOW]
    let wmat = weight.reshape(&[o, wsh[1] * spec.kh * spec.kw]); // [O, CKK]
    let out = super::matmul(&wmat, &cols); // [B, O, OHOW]: the weight broadcasts over B
    (out.reshape(&[b, o, oh, ow]), cols)
}

/// Average pooling with a square `k`×`k` window and stride `k`.
///
/// # Panics
///
/// Panics if the spatial extents are not divisible by `k`.
pub fn avg_pool2d(input: &Tensor, k: usize) -> Tensor {
    let sh = input.shape();
    assert_eq!(sh.len(), 4, "avg_pool2d expects [B, C, H, W]");
    let (b, c, h, w) = (sh[0], sh[1], sh[2], sh[3]);
    assert!(h % k == 0 && w % k == 0, "pool size {k} must divide {h}x{w}");
    let (oh, ow) = (h / k, w / k);
    let input = input.contiguous();
    let data = input.data();
    // Every output pixel is stored below, so recycled contents are fine.
    let mut out = crate::workspace::take_uninit(b * c * oh * ow);
    let inv = 1.0 / (k * k) as f32;
    for bc in 0..b * c {
        let ibase = bc * h * w;
        let obase = bc * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    let row = ibase + (oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        acc += data[row + dx];
                    }
                }
                out[obase + oy * ow + ox] = acc * inv;
            }
        }
    }
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// Backward of [`avg_pool2d`]: spreads each output gradient uniformly over
/// its `k`×`k` window.
pub(crate) fn avg_pool2d_backward(grad: &Tensor, k: usize, h: usize, w: usize) -> Tensor {
    let sh = grad.shape();
    let (b, c, oh, ow) = (sh[0], sh[1], sh[2], sh[3]);
    assert_eq!((oh * k, ow * k), (h, w), "pool backward geometry mismatch");
    let grad = grad.contiguous();
    let gd = grad.data();
    let mut out = crate::workspace::take_zeroed(b * c * h * w);
    let inv = 1.0 / (k * k) as f32;
    for bc in 0..b * c {
        let obase = bc * oh * ow;
        let ibase = bc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gd[obase + oy * ow + ox] * inv;
                for dy in 0..k {
                    let row = ibase + (oy * k + dy) * w + ox * k;
                    for dx in 0..k {
                        out[row + dx] += g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_out_size() {
        let s = Conv2dSpec::new(3, 1, 1);
        assert_eq!(s.out_size(8, 8), (8, 8));
        let s2 = Conv2dSpec::new(2, 2, 0);
        assert_eq!(s2.out_size(8, 6), (4, 3));
    }

    #[test]
    fn identity_kernel_preserves_image() {
        // 1x1 kernel of weight 1 is the identity.
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let (out, _) = conv2d(&img, &w, &Conv2dSpec::new(1, 1, 0));
        assert_eq!(out.reshape(&[16]).data(), img.reshape(&[16]).data());
    }

    #[test]
    fn box_filter_matches_hand_computation() {
        // 2x2 ones kernel, stride 2: sums each quadrant.
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let (out, _) = conv2d(&img, &w, &Conv2dSpec::new(2, 2, 0));
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[10.0, 18.0, 42.0, 50.0]);
    }

    #[test]
    fn padding_zero_extends() {
        let img = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let (out, _) = conv2d(&img, &w, &Conv2dSpec::new(3, 1, 1));
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // Each output sees the full 2x2 ones block (corners clipped by pad).
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn multi_channel_multi_batch() {
        let img = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 7) as f32);
        let w = Tensor::from_fn(&[5, 3, 3, 3], |i| ((i % 5) as f32 - 2.0) * 0.1);
        let spec = Conv2dSpec::new(3, 1, 1);
        let (out, _) = conv2d(&img, &w, &spec);
        assert_eq!(out.shape(), &[2, 5, 4, 4]);
        // Reference: direct convolution at one position.
        let (bi, oi, oy, ox) = (1, 2, 2, 1);
        let mut acc = 0.0;
        for c in 0..3 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let iy = oy + ky;
                    let ix = ox + kx;
                    // padding=1 shifts input coords by -1
                    let (iy, ix) = (iy as isize - 1, ix as isize - 1);
                    if (0..4).contains(&iy) && (0..4).contains(&ix) {
                        acc += img.at(&[bi, c, iy as usize, ix as usize]) * w.at(&[oi, c, ky, kx]);
                    }
                }
            }
        }
        assert!((out.at(&[bi, oi, oy, ox]) - acc).abs() < 1e-4);
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for the same geometry.
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.37).sin());
        let cols = im2col(&x, &spec);
        let y = Tensor::from_fn(cols.shape(), |i| (i as f32 * 0.11).cos());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 4, 4);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn avg_pool_and_backward() {
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let p = avg_pool2d(&img, 2);
        assert_eq!(p.data(), &[2.5, 4.5, 10.5, 12.5]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let back = avg_pool2d_backward(&g, 2, 4, 4);
        assert!(back.data().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }
}
