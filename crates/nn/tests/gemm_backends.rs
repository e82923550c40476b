//! Backend equivalence suite: the float summation-order family
//! (`Blocked`, banded or not) vs the `Naive` oracle, plus the tolerance
//! tiers (`Simd` and conv-vs-GEMM).
//!
//! Generators and comparators come from the shared
//! [`mramrl_nn::difftest`] harness. Two tiers of guarantees are
//! asserted (see `docs/gemm_backends.md`):
//!
//! 1. **Bitwise** across [`GemmBackend::BITWISE`] for the raw kernels
//!    (`matmul`, `matmul_at_b`) and for the whole im2col GEMM conv
//!    path: every backend in that family accumulates each output
//!    element in the same order, so results must agree to the bit —
//!    including signed zeros, and with `NaN`s in exactly the same
//!    positions.
//! 2. **Tolerance** where the arithmetic differs: the GEMM conv path
//!    vs the direct [`Conv2d`] loops (different algorithm), and the
//!    `Simd` backend vs the rest (FMA keeps products unrounded, see
//!    `docs/gemm_backends.md`). `Simd`'s own bitwise story — forced
//!    fallback ≡ `Blocked`, batched ≡ serial within the backend —
//!    lives in `simd_equivalence.rs`.

use mramrl_nn::backend::GemmBackend;
use mramrl_nn::difftest::{assert_close, bits, fill, sweep_pools};
use mramrl_nn::gemm::{conv2d_gemm_backward_with, conv2d_gemm_with};
use mramrl_nn::{Conv2d, Layer, Tensor};
use proptest::prelude::*;

proptest! {
    /// `matmul` is bitwise identical across the summation-order family
    /// over ragged shapes (including 0- and 1-sized dimensions) and
    /// special values.
    #[test]
    fn matmul_bitwise_equal(
        m in 0usize..20,
        k in 0usize..300,
        n in 0usize..20,
        seed in 0u64..1 << 40,
    ) {
        let specials = seed % 2 == 0;
        let a = fill(m * k, seed, specials);
        let b = fill(k * n, seed ^ 0xABCD, specials);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        for be in GemmBackend::BITWISE {
            let got = be.matmul(&a, &b, m, k, n);
            prop_assert_eq!(bits(&want), bits(&got), "{} m={} k={} n={}", be, m, k, n);
        }
    }

    /// `matmul_at_b` is bitwise identical across every backend —
    /// `Simd` included, because the backward contraction deliberately
    /// stays on the bitwise family (see `docs/gemm_backends.md`).
    #[test]
    fn matmul_at_b_bitwise_equal(
        m in 0usize..40,
        k in 0usize..20,
        n in 0usize..20,
        seed in 0u64..1 << 40,
    ) {
        let specials = seed % 2 == 0;
        let a = fill(m * k, seed, specials);
        let b = fill(m * n, seed ^ 0x1234, specials);
        let want = GemmBackend::Naive.matmul_at_b(&a, &b, m, k, n);
        for be in GemmBackend::ALL {
            let got = be.matmul_at_b(&a, &b, m, k, n);
            prop_assert_eq!(bits(&want), bits(&got), "{} m={} k={} n={}", be, m, k, n);
        }
    }

    /// The full conv-as-GEMM forward/backward path is bitwise identical
    /// across the summation-order family (same algorithm, different
    /// kernels).
    #[test]
    fn conv_gemm_path_bitwise_equal(
        hw in 3usize..10,
        in_c in 1usize..4,
        out_c in 1usize..5,
        seed in 0u64..1 << 40,
    ) {
        let k = 3.min(hw);
        let (stride, pad) = (1 + (seed % 2) as usize, (seed % 2) as usize);
        let x = Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, seed, false));
        let w = Tensor::from_vec(&[out_c, in_c, k, k], fill(out_c * in_c * k * k, seed ^ 1, false));
        let bias = Tensor::from_vec(&[out_c], fill(out_c, seed ^ 2, false));

        let fwd = conv2d_gemm_with(GemmBackend::Naive, &x, &w, &bias, stride, pad);
        let grad = Tensor::from_vec(fwd.shape(), fill(fwd.len(), seed ^ 3, false));
        let (gw, gb, gi) =
            conv2d_gemm_backward_with(GemmBackend::Naive, &x, &w, &grad, stride, pad);
        for be in GemmBackend::BITWISE {
            let f2 = conv2d_gemm_with(be, &x, &w, &bias, stride, pad);
            prop_assert_eq!(bits(fwd.data()), bits(f2.data()), "fwd {}", be);
            let (gw2, gb2, gi2) = conv2d_gemm_backward_with(be, &x, &w, &grad, stride, pad);
            prop_assert_eq!(bits(gw.data()), bits(gw2.data()), "dW {}", be);
            prop_assert_eq!(bits(gb.data()), bits(gb2.data()), "db {}", be);
            prop_assert_eq!(bits(gi.data()), bits(gi2.data()), "dX {}", be);
        }
    }
}

/// The raw-kernel bitwise contract survives pooled execution, special
/// values included: `Blocked` scatters the row bands of a large product
/// over the persistent `mramrl_nn::pool`, so re-pin
/// `matmul`/`matmul_at_b` against the oracle under injected pools of
/// every [`mramrl_nn::difftest::POOL_SIZES`] width on shapes that force
/// the fan-out (≥ `PAR_MIN_MACS` MACs).
#[test]
fn banded_kernels_bitwise_equal_under_injected_pools() {
    let (m, k, n) = (40usize, 80usize, 90usize);
    assert!(m * k * n >= 1 << 18, "shape must force the fan-out");
    let a = fill(m * k, 31, true);
    let b = fill(k * n, 32, true);
    let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
    let bt = fill(m * n, 33, true);
    let want_t = GemmBackend::Naive.matmul_at_b(&a, &bt, m, k, n);
    sweep_pools(|pool_threads| {
        let got = GemmBackend::Blocked.matmul(&a, &b, m, k, n);
        assert_eq!(bits(&want), bits(&got), "matmul pool={pool_threads}");
        let got_t = GemmBackend::Blocked.matmul_at_b(&a, &bt, m, k, n);
        assert_eq!(bits(&want_t), bits(&got_t), "at_b pool={pool_threads}");
    });
}

/// `0.0 × NaN` must be `NaN` on every backend: the reference kernels
/// have no zero-skip, so an exact-zero row element cannot silently drop
/// a `NaN` (or `-0.0` rounding contribution) that the blocked/banded
/// kernels would propagate.
#[test]
fn nan_and_signed_zero_propagate_identically() {
    // A has an exact 0.0 facing a NaN in B, and a -0.0 row.
    let a = [0.0f32, 1.0, -0.0, 2.0]; // 2×2
    let b = [f32::NAN, -0.0, 3.0, f32::INFINITY]; // 2×2
    let want = GemmBackend::Naive.matmul(&a, &b, 2, 2, 2);
    assert!(want[0].is_nan(), "0·NaN + 1·3 must be NaN");
    for be in GemmBackend::BITWISE {
        let got = be.matmul(&a, &b, 2, 2, 2);
        assert_eq!(bits(&want), bits(&got), "{be}");
        let want_t = GemmBackend::Naive.matmul_at_b(&a, &b, 2, 2, 2);
        let got_t = be.matmul_at_b(&a, &b, 2, 2, 2);
        assert_eq!(bits(&want_t), bits(&got_t), "at_b {be}");
    }
    // Signed zero: the accumulator starts at +0.0, so (+0.0) + (-0.0·1.0)
    // rounds to +0.0 under IEEE-754 — whereas the old zero-skip left the
    // untouched +0.0 by a different route. Whatever the value, all
    // backends must produce the same bits. `Simd` keeps the property
    // too: its chains are also seeded at +0.0, and `fma(-0.0, 1.0, +0.0)`
    // rounds to +0.0 just like the unfused chain.
    let z = GemmBackend::Naive.matmul(&[-0.0f32], &[1.0f32], 1, 1, 1);
    assert_eq!(z[0].to_bits(), 0.0f32.to_bits());
    for be in [GemmBackend::Blocked, GemmBackend::Simd] {
        assert_eq!(
            be.matmul(&[-0.0f32], &[1.0f32], 1, 1, 1)[0].to_bits(),
            z[0].to_bits()
        );
    }
}

/// Regression: conv-via-GEMM still matches the direct `Conv2d` loops —
/// under every backend, `Simd` included — to the documented tolerance
/// (different algorithm, so only float-rounding-level agreement is
/// guaranteed).
#[test]
fn conv_gemm_matches_direct_conv_under_every_backend() {
    for (in_c, out_c, k, stride, pad, hw) in [
        (1usize, 4usize, 3usize, 1usize, 0usize, 7usize),
        (2, 3, 3, 2, 1, 9),
        (3, 8, 5, 2, 0, 11),
        (1, 1, 1, 1, 0, 5), // 1×1 kernel: im2col is a pure reshape
    ] {
        // The oracle: Conv2d on the Naive backend = the original loops.
        let mut direct = Conv2d::new("c", in_c, out_c, k, stride, pad, 7);
        direct.set_gemm_backend(GemmBackend::Naive);
        let x = Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, 99, false));
        let y = direct.forward(&x);
        let grad = Tensor::from_vec(y.shape(), fill(y.len(), 7, false));
        let gi = direct.backward(&grad);
        let gw = direct.params()[0].grad.clone();
        let gb = direct.params()[1].grad.clone();

        for be in GemmBackend::ALL {
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 7);
            conv.set_gemm_backend(be);
            assert_eq!(conv.gemm_backend(), Some(be));
            let y2 = conv.forward(&x);
            let gi2 = conv.backward(&grad);
            let gw2 = conv.params()[0].grad.clone();
            let gb2 = conv.params()[1].grad.clone();
            let tag = format!("{be} k={k} s={stride} p={pad}");
            assert_close(&format!("fwd {tag}"), y.data(), y2.data(), 1e-4, 0.0);
            assert_close(&format!("dX {tag}"), gi.data(), gi2.data(), 1e-4, 0.0);
            assert_close(&format!("dW {tag}"), gw.data(), gw2.data(), 1e-4, 0.0);
            assert_close(&format!("db {tag}"), gb.data(), gb2.data(), 1e-4, 0.0);
        }
    }
}

/// A whole network forward agrees across every backend — `Simd`
/// included — to float tolerance, and `set_gemm_backend` reaches every
/// conv/FC layer.
#[test]
fn network_forward_close_across_backends() {
    use mramrl_nn::NetworkSpec;
    let spec = NetworkSpec::micro(16, 1, 5);
    let x = Tensor::from_vec(&[1, 16, 16], fill(256, 11, false));
    let mut reference = spec.build(3);
    reference.set_gemm_backend(GemmBackend::Naive);
    let want = reference.forward(&x);
    for be in GemmBackend::ALL {
        let mut net = spec.build(3);
        net.set_gemm_backend(be);
        assert_eq!(net.gemm_backend(), Some(be));
        let got = net.forward(&x);
        assert_close(&format!("{be}"), want.data(), got.data(), 1e-4, 0.0);
    }
}
