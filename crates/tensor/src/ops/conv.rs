//! 2-D convolution via im2col + matrix multiplication, with the full
//! backward pass needed for training (ResNet-18 substrate).
//!
//! All image tensors are NCHW (batch, channels, height, width); weights are
//! `(out_channels, in_channels, kh, kw)`.
//!
//! The forward and backward loops are allocation-free on the steady state:
//! im2col matrices and matmul temporaries live in [`crate::scratch`]
//! buffers that are recycled across images and across calls, and the
//! blocked GEMM ([`super::gemm`]) writes straight into the output (or
//! accumulates straight into the gradient) instead of materialising
//! per-image product tensors.

use crate::ops::gemm::gemm_strided;
use crate::scratch;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding (applied on both sides).
    pub padding: (usize, usize),
}

impl Conv2dSpec {
    /// Creates a spec with a square kernel, unit stride and no padding.
    pub fn new(kernel: usize) -> Self {
        Conv2dSpec {
            kernel: (kernel, kernel),
            stride: (1, 1),
            padding: (0, 0),
        }
    }

    /// Sets a uniform stride, returning the modified spec.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = (stride, stride);
        self
    }

    /// Sets a uniform padding, returning the modified spec.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = (padding, padding);
        self
    }

    /// Output spatial size for an input of size `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        assert!(
            h + 2 * ph >= kh && w + 2 * pw >= kw,
            "kernel {kh}x{kw} does not fit input {h}x{w} with padding {ph}x{pw}"
        );
        ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1)
    }
}

/// Unfolds one CHW image into the im2col matrix of shape
/// `(c * kh * kw, oh * ow)`: column `q` holds the receptive field of output
/// position `q`, so convolution becomes `W_mat · cols`.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Panics
///
/// Panics if `image` is not rank 3 or the kernel does not fit.
pub fn im2col(image: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(image.rank(), 3, "im2col expects a CHW image");
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = vec![0.0f32; c * kh * kw * oh * ow];
    im2col_into(image.data(), c, h, w, spec, &mut out);
    Tensor::from_vec(out, [c * kh * kw, oh * ow])
}

/// Allocation-free core of [`im2col`]: unfolds one CHW image (given as a
/// raw slice) into `dst`, which must hold `c·kh·kw · oh·ow` elements.
/// `dst` is fully overwritten (padding positions are zeroed).
///
/// With unit horizontal stride the in-bounds part of each output row is
/// one contiguous run of a source row, so it is copied as a slice; other
/// strides take the per-element loop of [`im2col_strided_into`].
fn im2col_into(src: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, dst: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    if sw != 1 {
        im2col_strided_into(src, c, h, w, spec, dst);
        return;
    }
    let (oh, ow) = spec.output_hw(h, w);
    let cols_n = oh * ow;
    debug_assert_eq!(src.len(), c * h * w);
    debug_assert_eq!(dst.len(), c * kh * kw * cols_n);

    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                // Output columns `lo..hi` read source columns
                // `lo + kj - pw ..`; the rest fall in the zero padding.
                let lo = pw.saturating_sub(kj).min(ow);
                let hi = (w + pw).saturating_sub(kj).clamp(lo, ow);
                let row = (ch * kh + ki) * kw + kj;
                let dst_row = &mut dst[row * cols_n..(row + 1) * cols_n];
                for (oi, out) in dst_row.chunks_exact_mut(ow).enumerate() {
                    let si = (oi * sh + ki) as isize - ph as isize;
                    if si < 0 || si >= h as isize {
                        out.fill(0.0);
                        continue;
                    }
                    out[..lo].fill(0.0);
                    if lo < hi {
                        // `lo < hi` means `lo` was not cut to `ow`, so
                        // `lo + kj >= pw`: the source column is in bounds.
                        let start = (ch * h + si as usize) * w + lo + kj - pw;
                        out[lo..hi].copy_from_slice(&src[start..start + (hi - lo)]);
                    }
                    out[hi..].fill(0.0);
                }
            }
        }
    }
}

/// The per-element im2col loop, for any stride: zero `dst`, then copy each
/// in-bounds receptive-field element.
fn im2col_strided_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    dst: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let cols_n = oh * ow;
    debug_assert_eq!(src.len(), c * h * w);
    debug_assert_eq!(dst.len(), c * kh * kw * cols_n);
    dst.fill(0.0);

    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst_row = &mut dst[row * cols_n..(row + 1) * cols_n];
                for oi in 0..oh {
                    let si = (oi * sh + ki) as isize - ph as isize;
                    if si < 0 || si >= h as isize {
                        continue;
                    }
                    let src_base = (ch * h + si as usize) * w;
                    for oj in 0..ow {
                        let sj = (oj * sw + kj) as isize - pw as isize;
                        if sj < 0 || sj >= w as isize {
                            continue;
                        }
                        dst_row[oi * ow + oj] = src[src_base + sj as usize];
                    }
                }
            }
        }
    }
}

/// Folds an im2col matrix back into a CHW image, *accumulating* overlapping
/// contributions — the adjoint of [`im2col`], used for input gradients.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `(c, h, w)` and
/// `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Tensor {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        cols.dims(),
        &[c * kh * kw, oh * ow],
        "col2im: cols shape does not match geometry"
    );
    let mut out = vec![0.0f32; c * h * w];
    col2im_into(cols.data(), c, h, w, spec, &mut out);
    Tensor::from_vec(out, [c, h, w])
}

/// Allocation-free core of [`col2im`]: folds an im2col matrix (raw slice)
/// back into a `c·h·w` destination slice, **accumulating** overlapping
/// contributions. `dst` is not zeroed — callers either pass fresh zeroed
/// storage or rely on the accumulation.
fn col2im_into(src: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, dst: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let cols_n = oh * ow;
    debug_assert_eq!(src.len(), c * kh * kw * cols_n);
    debug_assert_eq!(dst.len(), c * h * w);

    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src_row = &src[row * cols_n..(row + 1) * cols_n];
                for oi in 0..oh {
                    let si = (oi * sh + ki) as isize - ph as isize;
                    if si < 0 || si >= h as isize {
                        continue;
                    }
                    let dst_base = (ch * h + si as usize) * w;
                    for oj in 0..ow {
                        let sj = (oj * sw + kj) as isize - pw as isize;
                        if sj < 0 || sj >= w as isize {
                            continue;
                        }
                        dst[dst_base + sj as usize] += src_row[oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// Batched 2-D convolution forward pass.
///
/// `input` is `(n, c, h, w)`, `weight` is `(oc, c, kh, kw)`, optional `bias`
/// is `(oc,)`; the result is `(n, oc, oh, ow)`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d expects NCHW input");
    assert_eq!(weight.rank(), 4, "conv2d expects OIHW weights");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oc, ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(c, ic, "conv2d: input channels {c} != weight channels {ic}");
    assert_eq!(
        (kh, kw),
        spec.kernel,
        "conv2d: weight kernel does not match spec"
    );
    if let Some(b) = bias {
        assert_eq!(
            b.dims(),
            &[oc],
            "conv2d: bias must have one entry per output channel"
        );
    }
    let (oh, ow) = spec.output_hw(h, w);
    let plane = oh * ow;
    let kdim = c * kh * kw;
    let chw = c * h * w;
    let wm = weight.data(); // (oc, kdim) viewed row-major
    let mut out = vec![0.0f32; n * oc * plane];
    let mut cols = scratch::take(kdim * plane);

    for img in 0..n {
        im2col_into(
            &input.data()[img * chw..(img + 1) * chw],
            c,
            h,
            w,
            spec,
            &mut cols,
        );
        let dst = &mut out[img * oc * plane..(img + 1) * oc * plane];
        // (oc, plane) = (oc, kdim) · (kdim, plane), written in place.
        gemm_strided(oc, plane, kdim, wm, (kdim, 1), &cols, (plane, 1), dst);
        if let Some(b) = bias {
            for och in 0..oc {
                let bv = b.data()[och];
                for x in &mut dst[och * plane..(och + 1) * plane] {
                    *x += bv;
                }
            }
        }
    }
    Tensor::from_vec(out, [n, oc, oh, ow])
}

/// Gradients of a batched 2-D convolution.
///
/// Given the forward inputs and `grad_out = ∂L/∂output` of shape
/// `(n, oc, oh, ow)`, returns `(∂L/∂input, ∂L/∂weight, ∂L/∂bias)`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(input.rank(), 4, "conv2d_backward expects NCHW input");
    assert_eq!(grad_out.rank(), 4, "conv2d_backward expects NCHW grad_out");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oc, _, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        grad_out.dims(),
        &[n, oc, oh, ow],
        "conv2d_backward: grad_out shape mismatch"
    );

    let plane = oh * ow;
    let kdim = c * kh * kw;
    let chw = c * h * w;
    let wm = weight.data(); // (oc, kdim) viewed row-major
    let mut grad_input = vec![0.0f32; n * chw];
    let mut grad_weight = vec![0.0f32; oc * kdim];
    let mut grad_bias = vec![0.0f32; oc];
    let mut cols = scratch::take(kdim * plane);
    let mut dcols = scratch::take(kdim * plane);

    for img in 0..n {
        im2col_into(
            &input.data()[img * chw..(img + 1) * chw],
            c,
            h,
            w,
            spec,
            &mut cols,
        );
        let go = &grad_out.data()[img * oc * plane..(img + 1) * oc * plane]; // (oc, plane)
                                                                             // dW += dY · colsᵀ — the GEMM's accumulate semantics sum over the
                                                                             // batch directly, no per-image product tensor.
        gemm_strided(
            oc,
            kdim,
            plane,
            go,
            (plane, 1),
            &cols,
            (1, plane),
            &mut grad_weight,
        );
        // db += row sums of dY
        for och in 0..oc {
            grad_bias[och] += go[och * plane..(och + 1) * plane].iter().sum::<f32>();
        }
        // dcols = Wᵀ · dY, then fold back into this image's input gradient.
        dcols.fill(0.0);
        gemm_strided(kdim, plane, oc, wm, (1, kdim), go, (plane, 1), &mut dcols);
        col2im_into(
            &dcols,
            c,
            h,
            w,
            spec,
            &mut grad_input[img * chw..(img + 1) * chw],
        );
    }

    (
        Tensor::from_vec(grad_input, [n, c, h, w]),
        Tensor::from_vec(grad_weight, [oc, c, kh, kw]),
        Tensor::from_vec(grad_bias, [oc]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_geometry() {
        let s = Conv2dSpec::new(3).with_padding(1);
        assert_eq!(s.output_hw(32, 32), (32, 32));
        let s = Conv2dSpec::new(3).with_stride(2).with_padding(1);
        assert_eq!(s.output_hw(32, 32), (16, 16));
        let s = Conv2dSpec::new(1);
        assert_eq!(s.output_hw(7, 5), (7, 5));
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with unit stride flattens each channel plane.
        let img = Tensor::from_fn([2, 2, 2], |i| (i[0] * 4 + i[1] * 2 + i[2]) as f32);
        let cols = im2col(&img, Conv2dSpec::new(1));
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn conv2d_known_values() {
        // Single 1x3x3 image, single 1x1x2x2 averaging-ish kernel.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 1, 3, 3],
        );
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [1, 1, 2, 2]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(2));
        // Each output = top-left + bottom-right of the 2x2 window.
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[1.0 + 5.0, 2.0 + 6.0, 4.0 + 8.0, 5.0 + 9.0]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![10.0, -10.0], [2]);
        let out = conv2d(&input, &weight, Some(&bias), Conv2dSpec::new(1));
        assert_eq!(out.dims(), &[1, 2, 2, 2]);
        assert_eq!(&out.data()[..4], &[11.0; 4]);
        assert_eq!(&out.data()[4..], &[-9.0; 4]);
    }

    #[test]
    fn padding_behaves_like_zero_border() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(3).with_padding(1));
        // Centre of each output = count of in-bounds ones in the 3x3 window.
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let spec = Conv2dSpec::new(2).with_stride(1).with_padding(1);
        let x = Tensor::from_fn([2, 3, 3], |i| {
            ((i[0] + 1) * (i[1] + 2) * (i[2] + 3)) as f32 * 0.1
        });
        let cols = im2col(&x, spec);
        let y = Tensor::from_fn(cols.dims(), |i| ((i[0] * 7 + i[1] * 3) % 5) as f32 - 2.0);
        let lhs = cols.dot(&y);
        let folded = col2im(&y, 2, 3, 3, spec);
        let rhs = x.dot(&folded);
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let spec = Conv2dSpec::new(3).with_stride(2).with_padding(1);
        let input = Tensor::from_fn([2, 2, 5, 5], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 7 + i[3] * 3) % 11) as f32 * 0.1 - 0.5
        });
        let weight = Tensor::from_fn([3, 2, 3, 3], |i| {
            ((i[0] * 13 + i[1] * 5 + i[2] * 3 + i[3]) % 7) as f32 * 0.1 - 0.3
        });
        let bias = Tensor::from_vec(vec![0.1, -0.2, 0.3], [3]);

        // Loss = sum(conv output); then dL/dout = ones.
        let out = conv2d(&input, &weight, Some(&bias), spec);
        let grad_out = Tensor::ones(out.dims());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, spec);

        let eps = 1e-2f32;
        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d(inp, wt, Some(b), spec).sum();

        // Check a scattering of coordinates in each gradient.
        for &idx in &[0usize, 7, 23, 49] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 2e-2,
                "grad_input[{idx}]: fd={fd}, analytic={}",
                gi.data()[idx]
            );
        }
        for &idx in &[0usize, 5, 17, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 2e-1,
                "grad_weight[{idx}]: fd={fd}, analytic={}",
                gw.data()[idx]
            );
        }
        for idx in 0..3 {
            let mut bp = bias.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            assert!(
                (fd - gb.data()[idx]).abs() < 2e-1,
                "grad_bias[{idx}]: fd={fd}, analytic={}",
                gb.data()[idx]
            );
        }
    }

    fn pattern(dims: [usize; 4], salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| {
            let x = (i[0] * 131 + i[1] * 31 + i[2] * 7 + i[3] * 3 + salt) % 23;
            x as f32 * 0.09 - 1.0
        })
    }

    /// The materialised composition `conv2d` fuses: the per-element
    /// im2col of each image into its own matrix, one `gemm_strided` per
    /// image, then the bias — the bit-exact oracle for the row-copy
    /// im2col and the narrow-M GEMM path.
    fn conv2d_oracle(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let oc = weight.dim(0);
        let (kh, kw) = spec.kernel;
        let (oh, ow) = spec.output_hw(h, w);
        let (plane, kdim, chw) = (oh * ow, c * kh * kw, c * h * w);
        let mut out = vec![0.0f32; n * oc * plane];
        for img in 0..n {
            let mut cols = vec![0.0f32; kdim * plane];
            let src = &input.data()[img * chw..(img + 1) * chw];
            im2col_strided_into(src, c, h, w, spec, &mut cols);
            let dst = &mut out[img * oc * plane..(img + 1) * oc * plane];
            gemm_strided(
                oc,
                plane,
                kdim,
                weight.data(),
                (kdim, 1),
                &cols,
                (plane, 1),
                dst,
            );
            for (och, row) in dst.chunks_mut(plane).enumerate() {
                for x in row {
                    *x += bias.data()[och];
                }
            }
        }
        Tensor::from_vec(out, [n, oc, oh, ow])
    }

    /// Direct convolution accumulated in f64.
    fn conv2d_f64(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Vec<f64> {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let oc = weight.dim(0);
        let (kh, kw) = spec.kernel;
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Vec::with_capacity(n * oc * oh * ow);
        for img in 0..n {
            for o in 0..oc {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = f64::from(bias.data()[o]);
                        for ch in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let si = (oi * sh + ki) as isize - ph as isize;
                                    let sj = (oj * sw + kj) as isize - pw as isize;
                                    if si < 0 || sj < 0 || si >= h as isize || sj >= w as isize {
                                        continue;
                                    }
                                    let x = input.data()
                                        [((img * c + ch) * h + si as usize) * w + sj as usize];
                                    let wv = weight.data()[((o * c + ch) * kh + ki) * kw + kj];
                                    acc += f64::from(x) * f64::from(wv);
                                }
                            }
                        }
                        out.push(acc);
                    }
                }
            }
        }
        out
    }

    /// `(spec, input dims, output channels)` over stride {1,2}, kernel
    /// {1,3}, padding {0,1,2} and `oc` in {1,3,8,16,64}, plus images
    /// narrower than kernel + padding.
    fn conv_cases() -> Vec<(Conv2dSpec, [usize; 4], usize)> {
        let mut cases = Vec::new();
        for stride in [1, 2] {
            for kernel in [1, 3] {
                for padding in [0, 1, 2] {
                    for oc in [1, 3, 8, 16, 64] {
                        let spec = Conv2dSpec::new(kernel)
                            .with_stride(stride)
                            .with_padding(padding);
                        cases.push((spec, [2, 3, 7, 6], oc));
                    }
                }
            }
        }
        for (kernel, padding, w) in [(3, 1, 2), (3, 2, 1), (5, 2, 1), (3, 1, 1)] {
            for stride in [1, 2] {
                let spec = Conv2dSpec::new(kernel)
                    .with_stride(stride)
                    .with_padding(padding);
                cases.push((spec, [2, 2, 5, w], 8));
            }
        }
        cases
    }

    #[test]
    fn conv2d_is_bit_identical_to_materialised_im2col_gemm() {
        for (spec, dims, oc) in conv_cases() {
            let input = pattern(dims, 1);
            let (kh, kw) = spec.kernel;
            let weight = pattern([oc, dims[1], kh, kw], 2);
            let bias = Tensor::from_fn([oc], |i| i[0] as f32 * 0.25 - 0.5);
            let got = conv2d(&input, &weight, Some(&bias), spec);
            let want = conv2d_oracle(&input, &weight, &bias, spec);
            assert_eq!(got.dims(), want.dims(), "{spec:?} {dims:?} oc={oc}");
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "{spec:?} {dims:?} oc={oc}: bits differ");
        }
    }

    #[test]
    fn conv2d_matches_direct_f64_convolution() {
        for (spec, dims, oc) in conv_cases() {
            let input = pattern(dims, 3);
            let (kh, kw) = spec.kernel;
            let weight = pattern([oc, dims[1], kh, kw], 4);
            let bias = Tensor::from_fn([oc], |i| 0.5 - i[0] as f32 * 0.125);
            let got = conv2d(&input, &weight, Some(&bias), spec);
            let want = conv2d_f64(&input, &weight, &bias, spec);
            let tol = 1e-5 * (dims[1] * kh * kw) as f64;
            for (i, (&g, &w)) in got.data().iter().zip(&want).enumerate() {
                assert!(
                    (f64::from(g) - w).abs() <= tol,
                    "{spec:?} {dims:?} oc={oc} element {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn kernel_too_large_panics() {
        Conv2dSpec::new(5).output_hw(3, 3);
    }
}
