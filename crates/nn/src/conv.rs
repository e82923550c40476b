//! 2-D convolution with analytic backward pass.

use rand::rngs::SmallRng;

use crate::backend::GemmBackend;
use crate::error::NnError;
use crate::init::WeightInit;
use crate::layer::{Layer, ParamTensor};
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// A 2-D convolution layer (`[C_in, H, W] → [C_out, H', W']`, batched
/// `[N, C_in, H, W] → [N, C_out, H', W']`).
///
/// Weights are stored `[C_out, C_in, K_h, K_w]`; square stride and
/// symmetric zero padding, matching the AlexNet layers of the paper.
///
/// With the [`GemmBackend::Naive`] backend the layer runs its original
/// direct loops per sample (the correctness oracle). Every other kernel
/// runs one schedule, the **per-sample pipeline**: each sample's whole
/// pass (im2col straight into the product layout, its own GEMMs on the
/// layer's kernel, bias add, col2im scatter) is one [`crate::pool`]
/// task writing its own disjoint workspace chunks. Weight gradients
/// reduce *across* samples, so each task leaves fully reduced
/// `dWᵢ`/`dbᵢ` partials that the caller merges in ascending sample
/// order — the association the serial path uses. Every element keeps
/// the serial single-image float-op sequence, so batched ≡ serial holds
/// bit for bit at any batch size and pool width (see
/// `docs/batching.md` and `docs/threading.md`). A batch of one is a
/// single task, whose products band over the pool instead
/// ([`crate::backend::bands`]).
///
/// The two algorithms (direct loops vs GEMM path) agree to float
/// rounding (see the tolerance policy in [`crate::gemm`]).
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Conv2d, Layer, Tensor};
///
/// let mut conv = Conv2d::new("CONV1", 1, 4, 3, 1, 1, 42);
/// let y = conv.forward(&Tensor::zeros(&[1, 8, 8]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// assert_eq!(conv.param_count(), 4 * 9 + 4);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: ParamTensor,
    bias: ParamTensor,
    backend: GemmBackend,
    scratch: LayerWs,
}

impl Conv2d {
    /// Creates a conv layer with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the stride is zero.
    pub fn new(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "bad conv dims"
        );
        let mut rng = crate::init::rng_from_seed(seed);
        Self::with_rng(name, in_c, out_c, k, stride, pad, &mut rng)
    }

    /// Creates a conv layer drawing weights from an existing RNG.
    pub fn with_rng(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "bad conv dims"
        );
        let fan_in = in_c * k * k;
        let weight = ParamTensor::new(WeightInit::HeUniform.init(
            &[out_c, in_c, k, k],
            fan_in,
            out_c * k * k,
            rng,
        ));
        let bias = ParamTensor::new(Tensor::zeros(&[out_c]));
        Self {
            name: name.into(),
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight,
            bias,
            backend: crate::backend::default_backend(),
            scratch: LayerWs::new(),
        }
    }

    fn out_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        (
            (in_h + 2 * self.pad - self.k) / self.stride + 1,
            (in_w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Weight tensor (for quantisation snapshots).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Bias tensor.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// (in_c, out_c, k, stride, pad) geometry tuple.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.in_c, self.out_c, self.k, self.stride, self.pad)
    }

    /// One sample's direct-loop forward (the `Naive` oracle path):
    /// `x` is `[C,H,W]` flat, `out` is `[out_c, out_h, out_w]` flat.
    fn forward_direct_sample(&self, x: &[f32], out: &mut [f32], in_h: usize, in_w: usize) {
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        let w = self.weight.value.data();
        let b = self.bias.value.data();
        for oc in 0..self.out_c {
            let w_oc = &w[oc * self.in_c * self.k * self.k..(oc + 1) * self.in_c * self.k * self.k];
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = b[oc];
                    let base_y = (oy * self.stride) as isize - self.pad as isize;
                    let base_x = (ox * self.stride) as isize - self.pad as isize;
                    for ic in 0..self.in_c {
                        let w_ic = &w_oc[ic * self.k * self.k..(ic + 1) * self.k * self.k];
                        let x_ic = &x[ic * in_h * in_w..(ic + 1) * in_h * in_w];
                        for ky in 0..self.k {
                            let iy = base_y + ky as isize;
                            if iy < 0 || iy >= in_h as isize {
                                continue;
                            }
                            let row = &x_ic[iy as usize * in_w..(iy as usize + 1) * in_w];
                            let w_row = &w_ic[ky * self.k..(ky + 1) * self.k];
                            for (kx, &wv) in w_row.iter().enumerate() {
                                let ix = base_x + kx as isize;
                                if ix < 0 || ix >= in_w as isize {
                                    continue;
                                }
                                acc += wv * row[ix as usize];
                            }
                        }
                    }
                    out[(oc * out_h + oy) * out_w + ox] = acc;
                }
            }
        }
    }
}

/// One sample's direct-loop backward (the `Naive` oracle path);
/// accumulates into `gw`/`gb`/`gi`. A free function so the caller can
/// hold the weight values and gradient accumulators simultaneously.
/// `geo` is `(in_c, out_c, k, stride, pad)`.
#[allow(clippy::too_many_arguments)]
fn conv_backward_direct_sample(
    geo: (usize, usize, usize, usize, usize),
    w: &[f32],
    x: &[f32],
    go: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
    gi: &mut [f32],
    in_h: usize,
    in_w: usize,
) {
    let (in_c, out_c, k, stride, pad) = geo;
    let out_h = (in_h + 2 * pad - k) / stride + 1;
    let out_w = (in_w + 2 * pad - k) / stride + 1;
    for oc in 0..out_c {
        let w_base = oc * in_c * k * k;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let g = go[(oc * out_h + oy) * out_w + ox];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                let base_y = (oy * stride) as isize - pad as isize;
                let base_x = (ox * stride) as isize - pad as isize;
                for ic in 0..in_c {
                    let wi_base = w_base + ic * k * k;
                    let x_base = ic * in_h * in_w;
                    for ky in 0..k {
                        let iy = base_y + ky as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for kx in 0..k {
                            let ix = base_x + kx as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let ix = ix as usize;
                            let xi = x_base + iy * in_w + ix;
                            gw[wi_base + ky * k + kx] += g * x[xi];
                            gi[xi] += g * w[wi_base + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        assert_eq!(x.shape().len(), 4, "conv expects [N,C,H,W]");
        let n = x.shape()[0];
        assert_eq!(x.shape()[1], self.in_c, "conv input channel mismatch");
        let (in_h, in_w) = (x.shape()[2], x.shape()[3]);
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        let positions = out_h * out_w;
        ws.batch = n;
        LayerWs::reuse(&mut ws.input, x.shape())
            .data_mut()
            .copy_from_slice(x.data());

        if self.backend == GemmBackend::Naive {
            let out = LayerWs::reuse(&mut ws.out, &[n, self.out_c, out_h, out_w]);
            let plane = self.out_c * positions;
            for i in 0..n {
                self.forward_direct_sample(
                    x.sample(i),
                    &mut out.data_mut()[i * plane..(i + 1) * plane],
                    in_h,
                    in_w,
                );
            }
            return;
        }

        // One task per sample: im2col straight into the transposed
        // [taps × positions] GEMM layout, then its own
        //   outᵢ[out_c × positions] = W[out_c × taps] · colsᵢᵀ
        // product on the layer's kernel, bias after the full dot — into
        // disjoint chunks of the shared buffers. Every output element is
        // the serial single-image ascending-taps dot product, so the
        // scatter is bit-identical to it at any pool width.
        let taps = self.in_c * self.k * self.k;
        let LayerWs { gemm_a, out, .. } = ws;
        let sample_cols = taps * positions;
        let cols_all = LayerWs::reuse_buf(gemm_a, n * sample_cols);
        let out = LayerWs::reuse(out, &[n, self.out_c, out_h, out_w]);
        let w = self.weight.value.data();
        let b = self.bias.value.data();
        let (in_c, out_c, k, stride, pad) = self.geometry();
        let be = self.backend;
        let mut tasks: Vec<crate::pool::Task> = Vec::with_capacity(n);
        for (i, (cols_i, out_i)) in cols_all
            .chunks_mut(sample_cols)
            .zip(out.data_mut().chunks_mut(out_c * positions))
            .enumerate()
        {
            let x_i = x.sample(i);
            tasks.push(Box::new(move || {
                crate::gemm::im2col_t_slice_into(cols_i, x_i, in_c, in_h, in_w, k, stride, pad);
                be.matmul_into(out_i, w, cols_i, out_c, taps, positions);
                for (row, &bv) in out_i.chunks_mut(positions).zip(b) {
                    for v in row {
                        // Bias after the full dot product — the serial order.
                        *v += bv;
                    }
                }
            }));
        }
        crate::pool::current().run(tasks);
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let n = ws.batch;
        let input = ws.input.as_ref().expect("forward cached the input");
        let (in_h, in_w) = (input.shape()[2], input.shape()[3]);
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        let positions = out_h * out_w;
        assert_eq!(
            grad_output.shape(),
            &[n, self.out_c, out_h, out_w],
            "conv grad shape mismatch"
        );

        if self.backend == GemmBackend::Naive {
            let grad_in = LayerWs::reuse_zeroed(&mut ws.grad_in, input.shape());
            let in_plane = self.in_c * in_h * in_w;
            let geo = (self.in_c, self.out_c, self.k, self.stride, self.pad);
            for i in 0..n {
                conv_backward_direct_sample(
                    geo,
                    self.weight.value.data(),
                    input.sample(i),
                    grad_output.sample(i),
                    self.weight.grad.data_mut(),
                    self.bias.grad.data_mut(),
                    &mut grad_in.data_mut()[i * in_plane..(i + 1) * in_plane],
                    in_h,
                    in_w,
                );
            }
            return Ok(());
        }

        // One task per sample computing the whole per-sample backward —
        // im2colᵢ, the transposed gradient block, fully reduced dWᵢ/dbᵢ
        // **partials** into its own slots of `acc`/`acc2`, the per-sample
        // dXᵢ GEMM and col2im scatter — all into disjoint chunks. The
        // cross-sample dW/db reduction then merges the partials on this
        // thread in ascending sample order: exactly the serial
        // association, so gradients are bit-identical to N serial passes
        // at any pool width (`docs/threading.md`).
        let taps = self.in_c * self.k * self.k;
        let go = grad_output.data();
        let sample_cols = positions * taps;
        let LayerWs {
            input: ws_input,
            grad_in,
            im2col,
            gemm_a,
            gemm_c,
            acc,
            acc2,
            ..
        } = ws;
        let input = ws_input.as_ref().expect("checked above");
        let cols_all = LayerWs::reuse_buf(im2col, n * sample_cols);
        let gbig = LayerWs::reuse_buf(gemm_a, n * positions * self.out_c);
        let dcols = LayerWs::reuse_buf(gemm_c, n * sample_cols);
        let dw_parts = LayerWs::reuse_buf(acc, n * self.out_c * taps);
        let db_parts = LayerWs::reuse_buf(acc2, n * self.out_c);
        let grad_in = LayerWs::reuse(grad_in, input.shape());
        let in_plane = self.in_c * in_h * in_w;
        let w = self.weight.value.data();
        let (in_c, out_c, k, stride, pad) = self.geometry();
        let be = self.backend;
        let mut tasks: Vec<crate::pool::Task> = Vec::with_capacity(n);
        let chunks = cols_all
            .chunks_mut(sample_cols)
            .zip(gbig.chunks_mut(positions * out_c))
            .zip(dcols.chunks_mut(sample_cols))
            .zip(dw_parts.chunks_mut(out_c * taps))
            .zip(db_parts.chunks_mut(out_c))
            .zip(grad_in.data_mut().chunks_mut(in_plane))
            .enumerate();
        for (i, (((((cols_i, gbig_i), dcols_i), dw_i), db_i), gi_i)) in chunks {
            let x_i = input.sample(i);
            let go_i = &go[i * out_c * positions..(i + 1) * out_c * positions];
            tasks.push(Box::new(move || {
                crate::gemm::im2col_slice_into(cols_i, x_i, in_c, in_h, in_w, k, stride, pad);
                // Sample i's grad as a [positions × out_c] block.
                for oc in 0..out_c {
                    for pos in 0..positions {
                        gbig_i[pos * out_c + oc] = go_i[oc * positions + pos];
                    }
                }
                // dWᵢ, fully reduced per sample — the serial op
                // sequence (merge happens after the join, in order).
                be.matmul_at_b_into(dw_i, gbig_i, cols_i, positions, out_c, taps);
                // dbᵢ: ascending positions, fully reduced.
                for (db, go_oc) in db_i.iter_mut().zip(go_i.chunks(positions)) {
                    let mut s = 0.0f32;
                    for &g in go_oc {
                        s += g;
                    }
                    *db = s;
                }
                // dXᵢ = Gᵢ·W, then the per-sample col2im scatter.
                be.matmul_into(dcols_i, gbig_i, w, positions, out_c, taps);
                gi_i.fill(0.0);
                crate::gemm::col2im_slice_accumulate(
                    gi_i, dcols_i, in_c, in_h, in_w, k, stride, pad,
                );
            }));
        }
        crate::pool::current().run(tasks);
        // Fixed-order merge: ascending sample index, exactly the serial
        // accumulation sequence.
        let gw = self.weight.grad.data_mut();
        for dw_i in dw_parts.chunks(out_c * taps) {
            for (a, &v) in gw.iter_mut().zip(dw_i) {
                *a += v;
            }
        }
        let gb = self.bias.grad.data_mut();
        for db_i in db_parts.chunks(out_c) {
            for (a, &v) in gb.iter_mut().zip(db_i) {
                *a += v;
            }
        }
        Ok(())
    }

    fn scratch_mut(&mut self) -> &mut LayerWs {
        &mut self.scratch
    }

    fn params(&self) -> Vec<&ParamTensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut ParamTensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (h, w) = self.out_hw(input_shape[1], input_shape[2]);
        vec![self.out_c, h, w]
    }

    fn set_gemm_backend(&mut self, backend: GemmBackend) {
        self.backend = backend;
    }

    fn gemm_backend(&self) -> Option<GemmBackend> {
        Some(self.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, 0);
        conv.weight.value.data_mut()[0] = 1.0;
        conv.bias.value.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 0);
        // Sum filter.
        for v in conv.weight.value.data_mut() {
            *v = 1.0;
        }
        conv.bias.value.data_mut()[0] = 0.5;
        let x = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 1]);
        assert_eq!(y.data()[0], 45.0 + 0.5);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut conv = Conv2d::new("c", 3, 96, 11, 4, 0, 1);
        let y = conv.forward(&Tensor::zeros(&[3, 227, 227]));
        assert_eq!(y.shape(), &[96, 55, 55]);
        let mut conv2 = Conv2d::new("c2", 8, 4, 5, 1, 2, 1);
        let y2 = conv2.forward(&Tensor::zeros(&[8, 27, 27]));
        assert_eq!(y2.shape(), &[4, 27, 27]);
    }

    #[test]
    fn bias_gradient_equals_grad_sum() {
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 3);
        let x = Tensor::filled(&[1, 4, 4], 0.3);
        let _ = conv.forward(&x);
        let g = Tensor::filled(&[2, 4, 4], 1.0);
        let _ = conv.backward(&g);
        // Each output channel saw 16 unit gradients.
        assert_eq!(conv.bias.grad.data(), &[16.0, 16.0]);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let x = Tensor::filled(&[1, 3, 3], 1.0);
        let g = Tensor::filled(&[1, 1, 1], 1.0);
        let _ = conv.forward(&x);
        let _ = conv.backward(&g);
        let first = conv.weight.grad.data()[0];
        let _ = conv.forward(&x);
        let _ = conv.backward(&g);
        assert_eq!(conv.weight.grad.data()[0], 2.0 * first);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 1]));
    }

    #[test]
    fn backward_before_forward_is_an_error_in_batch_api() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let mut ws = LayerWs::new();
        let err = conv.backward_batch(&Tensor::zeros(&[1, 1, 1, 1]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    /// Central-difference gradient check: the definitive correctness test
    /// for the analytic backward pass.
    #[test]
    fn numerical_gradient_check() {
        let mut conv = Conv2d::new("c", 2, 3, 3, 2, 1, 11);
        let x = {
            let mut rng = crate::init::rng_from_seed(5);
            WeightInit::HeUniform.init(&[2, 5, 5], 4, 4, &mut rng)
        };
        // Loss = sum(output): grad_output = ones.
        let y = conv.forward(&x);
        let ones = Tensor::filled(y.shape(), 1.0);
        let grad_in = conv.backward(&ones);

        let eps = 1e-3f32;
        // Check a scattering of weight gradients.
        for idx in [0usize, 7, 20, 33, 52] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let y_plus = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let y_minus = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            let analytic = conv.weight.grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And input gradients.
        for idx in [0usize, 12, 24, 49] {
            let mut x2 = x.clone();
            x2.data_mut()[idx] += eps;
            let y_plus = conv.forward(&x2).sum();
            x2.data_mut()[idx] -= 2.0 * eps;
            let y_minus = conv.forward(&x2).sum();
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
