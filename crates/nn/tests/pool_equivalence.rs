//! Pooled-execution equivalence suite: the persistent worker pool must
//! never change a bit.
//!
//! The batched conv passes (per-sample pool tasks + fixed-order `dW`/`db`
//! partial merges), the pooled GEMM row bands and the whole-network
//! batched drivers are compared against the serial single-image oracle
//! under injected pools of every [`mramrl_nn::difftest::POOL_SIZES`]
//! width — the `NN_POOL_THREADS` sweep the issue demands, driven through
//! `ThreadPool::install` so one process covers every size — on every
//! GEMM backend, `Simd` included (its per-element FMA chains make
//! pooled row-banding invisible, see `docs/gemm_backends.md`).
//! Generators and comparators come from the shared
//! [`mramrl_nn::difftest`] harness.

use mramrl_nn::backend::GemmBackend;
use mramrl_nn::difftest::{
    bits, sweep_backends, sweep_pools, sweep_schedules, BATCH_SIZES, POOL_SIZES,
};
use mramrl_nn::pool::ThreadPool;
use mramrl_nn::{
    Conv2d, Layer, LayerWs, Linear, NetworkSpec, QGemmBackend, QWorkspace, QuantizedNet, Tensor,
    Workspace,
};
use proptest::prelude::*;

/// Specials-free value stream (the pool contracts are about scheduling,
/// not IEEE corners — those live in `gemm_backends.rs`).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    mramrl_nn::difftest::fill(len, seed, false)
}

proptest! {
    /// Batched conv forward/backward — the pooled per-sample scatter with
    /// its ascending-sample `dW`/`db` partial merge — is bit-identical to
    /// N serial single-image passes on every backend and pool size.
    #[test]
    fn pooled_conv_dw_batched_equals_serial(
        hw in 5usize..10,
        n in 1usize..5,
        in_c in 1usize..3,
        out_c in 1usize..4,
        seed in 0u64..1 << 40,
    ) {
        let k = 3usize;
        let (stride, pad) = (1 + (seed % 2) as usize, (seed % 2) as usize);
        let xs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, seed ^ i as u64)))
            .collect();
        let mut batched_data = Vec::new();
        for x in &xs {
            batched_data.extend_from_slice(x.data());
        }
        let batched_x = Tensor::from_vec(&[n, in_c, hw, hw], batched_data);
        let out_hw = (hw + 2 * pad - k) / stride + 1;
        let gdata = fill(n * out_c * out_hw * out_hw, seed ^ 0xF00D);

        for be in GemmBackend::ALL {
            // Serial oracle: N single-image passes, fresh per backend.
            let mut serial = Conv2d::new("c", in_c, out_c, k, stride, pad, 11);
            serial.set_gemm_backend(be);
            let mut serial_out = Vec::new();
            let mut serial_gi = Vec::new();
            let plane = out_c * out_hw * out_hw;
            for (i, x) in xs.iter().enumerate() {
                let y = serial.forward(x);
                serial_out.extend_from_slice(y.data());
                let g = Tensor::from_vec(y.shape(), gdata[i * plane..(i + 1) * plane].to_vec());
                serial_gi.extend_from_slice(serial.backward(&g).data());
            }
            let serial_gw = serial.params()[0].grad.clone();
            let serial_gb = serial.params()[1].grad.clone();

            for pool_threads in POOL_SIZES {
                let pool = ThreadPool::new(pool_threads);
                let _installed = pool.install();
                let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 11);
                conv.set_gemm_backend(be);
                let mut ws = LayerWs::new();
                conv.forward_batch(&batched_x, &mut ws);
                prop_assert_eq!(
                    bits(&serial_out),
                    bits(ws.out.as_ref().unwrap().data()),
                    "fwd {} pool={} n={}", be, pool_threads, n
                );
                let grad = Tensor::from_vec(&[n, out_c, out_hw, out_hw], gdata.clone());
                conv.backward_batch(&grad, &mut ws).expect("forward ran");
                prop_assert_eq!(
                    bits(serial_gw.data()),
                    bits(conv.params()[0].grad.data()),
                    "dW {} pool={} n={}", be, pool_threads, n
                );
                prop_assert_eq!(
                    bits(serial_gb.data()),
                    bits(conv.params()[1].grad.data()),
                    "db {} pool={} n={}", be, pool_threads, n
                );
                prop_assert_eq!(
                    bits(&serial_gi),
                    bits(ws.grad_in.as_ref().unwrap().data()),
                    "dX {} pool={} n={}", be, pool_threads, n
                );
            }
        }
    }
}

/// A whole batched network pass (conv + pool + FC stack, forward and
/// accumulated gradients) is bit-identical across pool sizes on every
/// backend — the end-to-end version of the per-layer contract above.
#[test]
fn pooled_network_pass_identical_across_pool_sizes() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let x = Tensor::from_vec(&[3, 1, 16, 16], fill(3 * 256, 77));
    let grad = Tensor::from_vec(&[3, 5], fill(15, 78));
    sweep_backends(|be| {
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        sweep_pools(|pool_threads| {
            let mut net = spec.build(5);
            net.set_gemm_backend(be);
            let mut ws = Workspace::for_spec(&spec);
            let out = bits(net.forward_batch(&x, &mut ws).data());
            net.backward_batch(&grad, &mut ws).expect("forward ran");
            let grads: Vec<f32> = net
                .layers()
                .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
                .collect();
            let grads = bits(&grads);
            match &reference {
                None => reference = Some((out, grads)),
                Some((ro, rg)) => {
                    assert_eq!(ro, &out, "{be} pool={pool_threads} forward");
                    assert_eq!(rg, &grads, "{be} pool={pool_threads} grads");
                }
            }
        });
    });
}

/// Forced pooled GEMM fan-out (shapes above `PAR_MIN_MACS`) stays
/// bitwise equal to the naive oracle at every pool size — the row-band
/// scatter contract, now on the persistent pool instead of per-call
/// spawned threads. (The `Simd` backend's own row-band sweep lives in
/// `simd_equivalence.rs`, where the oracle is its serial self.)
#[test]
fn pooled_gemm_bands_bitwise_equal_at_every_pool_size() {
    for (m, k, n) in [(67usize, 70usize, 65usize), (20, 30, 600)] {
        assert!(m * k * n >= 1 << 18, "shape must force the fan-out");
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        sweep_pools(|pool_threads| {
            let got = GemmBackend::Blocked.matmul(&a, &b, m, k, n);
            assert_eq!(
                bits(&want),
                bits(&got),
                "pool={pool_threads} m={m} k={k} n={n}"
            );
        });
    }
    for (m, k, n) in [(70usize, 67usize, 65usize), (600, 30, 20)] {
        let a = fill(m * k, 3);
        let b = fill(m * n, 4);
        let want = GemmBackend::Naive.matmul_at_b(&a, &b, m, k, n);
        sweep_pools(|pool_threads| {
            let got = GemmBackend::Blocked.matmul_at_b(&a, &b, m, k, n);
            assert_eq!(
                bits(&want),
                bits(&got),
                "at_b pool={pool_threads} m={m} k={k} n={n}"
            );
        });
    }
}

/// Outputs, input gradients and accumulated parameter gradients of one
/// layer over a batch, as bit patterns.
type Pass = (Vec<u32>, Vec<u32>, Vec<u32>);

fn param_grad_bits(layer: &dyn Layer) -> Vec<u32> {
    let g: Vec<f32> = layer
        .params()
        .iter()
        .flat_map(|p| p.grad.data().to_vec())
        .collect();
    bits(&g)
}

/// `n` samples of `shape` through a fresh layer: one batched
/// forward/backward (`batched`) or `n` single-image passes (the serial
/// oracle), from zeroed gradients.
fn layer_pass(mut layer: Box<dyn Layer>, shape: &[usize], n: usize, batched: bool) -> Pass {
    let out_shape = layer.output_shape(shape);
    let in_len: usize = shape.iter().product();
    let out_len: usize = out_shape.iter().product();
    let x = fill(n * in_len, 0x5C4E);
    let g = fill(n * out_len, 0x6A4D);
    if batched {
        let mut ws = LayerWs::new();
        layer.forward_batch(&Tensor::from_vec(&[&[n], shape].concat(), x), &mut ws);
        let out = bits(ws.out.as_ref().expect("forward ran").data());
        let gt = Tensor::from_vec(&[&[n], &out_shape[..]].concat(), g);
        layer.backward_batch(&gt, &mut ws).expect("forward ran");
        let gi = bits(ws.grad_in.as_ref().expect("backward ran").data());
        return (out, gi, param_grad_bits(&*layer));
    }
    let (mut out, mut gi) = (Vec::new(), Vec::new());
    for i in 0..n {
        let y = layer.forward(&Tensor::from_vec(
            shape,
            x[i * in_len..(i + 1) * in_len].to_vec(),
        ));
        out.extend_from_slice(y.data());
        let gt = Tensor::from_vec(y.shape(), g[i * out_len..(i + 1) * out_len].to_vec());
        gi.extend_from_slice(layer.backward(&gt).data());
    }
    (bits(&out), bits(&gi), param_grad_bits(&*layer))
}

/// The schedule axis: on every kernel, conv and FC
/// `forward_batch`/`backward_batch` at batch {1, 2, 3, 8} × pool
/// {1, 2, 7} equal `N` serial single-image passes bit for bit — bitwise
/// for `blocked` (and the `naive` oracle), and for `simd` against its
/// own serial passes (its documented tier). Both layers' products
/// exceed `PAR_MIN_MACS`, so batch 1 also runs the banded products and
/// batch 8 the pooled `Xᵀ` pack.
#[test]
fn schedule_axis_batched_equals_serial_on_every_kernel() {
    type MakeLayer = fn(GemmBackend) -> Box<dyn Layer>;
    let layers: [(&str, &[usize], MakeLayer); 2] = [
        ("conv", &[4, 24, 24], |be| {
            let mut l = Conv2d::new("c", 4, 16, 3, 1, 1, 3);
            l.set_gemm_backend(be);
            Box::new(l)
        }),
        ("fc", &[4096], |be| {
            let mut l = Linear::new("f", 4096, 64, 4);
            l.set_gemm_backend(be);
            Box::new(l)
        }),
    ];
    sweep_backends(|be| {
        for (name, shape, make) in layers {
            let serial: Vec<Pass> = {
                let pool = ThreadPool::new(1);
                let _installed = pool.install();
                BATCH_SIZES
                    .iter()
                    .map(|&n| layer_pass(make(be), shape, n, false))
                    .collect()
            };
            sweep_schedules(|threads, n| {
                let want = &serial[BATCH_SIZES.iter().position(|&b| b == n).unwrap()];
                let got = layer_pass(make(be), shape, n, true);
                let tag = format!("{name} {be} n={n} pool={threads}");
                assert_eq!(want.0, got.0, "forward {tag}");
                assert_eq!(want.1, got.1, "input grad {tag}");
                assert_eq!(want.2, got.2, "param grads {tag}");
            });
        }
    });
}

/// The schedule axis on the Q8.8 engine: batched conv + FC forwards on
/// every integer backend at batch {1, 2, 3, 8} × pool {1, 2, 7} equal
/// the `Naive` oracle's serial single-image forwards, bit for bit.
#[test]
fn schedule_axis_q8_8_batched_equals_naive_serial() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let mut q = QuantizedNet::from_network(&spec, &spec.build(9)).expect("spec-built net");
    let x = mramrl_nn::difftest::fill01(8 * 256, 0x0A88);
    q.set_backend(QGemmBackend::Naive);
    let want: Vec<f32> = (0..8)
        .flat_map(|i| {
            q.forward(&Tensor::from_vec(
                &[1, 16, 16],
                x[i * 256..(i + 1) * 256].to_vec(),
            ))
            .data()
            .to_vec()
        })
        .collect();
    for be in QGemmBackend::ALL {
        q.set_backend(be);
        sweep_schedules(|threads, n| {
            let xb = Tensor::from_vec(&[n, 1, 16, 16], x[..n * 256].to_vec());
            // Outputs are dequantised Q8.8 values: equal bits ⇔ equal Q8.8.
            let got = bits(q.forward_batch(&xb, &mut QWorkspace::new()).data());
            assert_eq!(bits(&want[..n * 5]), got, "{be} n={n} pool={threads}");
        });
    }
}
