//! SIMD-tier equivalence suite — the named CI gate for the lane
//! kernels (`cargo test -p mramrl_nn --test simd_equivalence`).
//!
//! Four contracts, all driven through the shared
//! [`mramrl_nn::difftest`] harness (see `docs/gemm_backends.md` and
//! `docs/fixed_point.md`):
//!
//! 1. **Q8.8 bitwise**: `QGemmBackend::Blocked` on its lanes equals
//!    the `Naive` saturating oracle to the bit on every shape, pool
//!    width and batch — certified rows ride `pmaddwd` lanes,
//!    uncertified rows the scalar saturating chain, and the
//!    certificate is what keeps the two indistinguishable.
//! 2. **Certificate boundary**: rows constructed to sit exactly at,
//!    one unit below, and one unit above the [`row_safe`] L1
//!    threshold flip the verdict at the right point, and the blocked
//!    kernel — on its lanes and forced scalar — agrees bitwise with
//!    the oracle on either side of it — in whole
//!    column tiles and in skinny `n < 4` products alike, and through
//!    a whole [`QuantizedNet`] forward at batch 1 and 2.
//! 3. **Forced fallback**: under [`mramrl_nn::simd::force_scalar`]
//!    (the in-process face of the `NN_SIMD=off` knob) both datapaths
//!    collapse onto their scalar kernels bitwise — so the fallback
//!    path is CI-gated even on AVX2 hosts, and the CI matrix's
//!    `NN_SIMD=off` leg re-runs this whole suite with the env knob.
//! 4. **f32 tolerance tier**: `GemmBackend::Simd` matches the naive
//!    oracle to the documented FMA tolerance, while staying bitwise
//!    self-consistent across batch splits and pool widths (each
//!    output element is one FMA chain regardless of banding), with
//!    the backward contraction bitwise on the `Blocked` family.

use mramrl_fixed::Q8_8;
use mramrl_nn::backend::GemmBackend;
use mramrl_nn::difftest::{
    assert_bitwise, assert_close, assert_ulp_close, bits, fill, fill01, qbits, qfill, sweep_pools,
};
use mramrl_nn::qgemm::{row_l1_norms, row_safe, QGemmBackend};
use mramrl_nn::{simd, Network, NetworkSpec, QWorkspace, QuantizedNet, Tensor, Workspace};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests that take a [`simd::force_scalar`] guard and
/// the f32 `Simd` self-consistency tests. The guard is process-wide:
/// without this, one test's guard would turn another's lane runs
/// scalar mid-comparison, and the restore check in
/// `forced_fallback_collapses_both_datapaths_onto_scalar_kernels`
/// would race.
fn scalar_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on the blocked integer kernel's `pmaddwd` lanes, then again
/// under a [`simd::force_scalar`] guard (the scalar certified dots).
fn lanes_then_scalar(mut f: impl FnMut(&str)) {
    let _gate = scalar_gate();
    f("lanes");
    let _guard = simd::force_scalar();
    f("scalar");
}

/// Runs one integer GEMM on the given backend into a fresh buffer.
fn qmm(
    be: QGemmBackend,
    a: &[Q8_8],
    bt: &[Q8_8],
    bias: &[Q8_8],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<Q8_8> {
    let mut c = vec![Q8_8::from_raw(0); m * n];
    be.matmul_bt_bias_requant_into(&mut c, a, &row_l1_norms(a, m, k), bt, bias, m, k, n);
    c
}

/// The L1 norm of one weight row — the certificate's weight half.
fn l1(row: &[Q8_8]) -> i64 {
    row_l1_norms(row, 1, row.len())[0]
}

/// Rows of 32767-magnitude entries whose L1 norms sit one unit below
/// (`i32::MAX - 1`), exactly at, and one unit above `i32::MAX`, with
/// signs drawn from `seed` (L1 sees magnitudes only). `base` is one
/// entry shorter than the other two.
fn boundary_rows(seed: u64) -> [Vec<Q8_8>; 3] {
    // 65538 × 32767 = 2_147_483_646 = i32::MAX - 1.
    let sign = |i: usize| {
        if (seed >> (i % 40)) & 1 == 0 {
            1i16
        } else {
            -1i16
        }
    };
    let base: Vec<Q8_8> = (0..65538)
        .map(|i| Q8_8::from_raw(32767 * sign(i)))
        .collect();
    let mut at = base.clone();
    at.push(Q8_8::from_raw(sign(7))); // L1 = i32::MAX
    let mut above = base.clone();
    above.push(Q8_8::from_raw(2 * sign(11))); // L1 = i32::MAX + 1
    [base, at, above]
}

proptest! {
    /// Contract 1 at property scale: random ragged shapes (vector
    /// bodies, scalar tails, skinny `n < 4` columns, empty dims), random
    /// operands, the blocked kernel on its lanes vs the saturating
    /// oracle, bit for bit.
    #[test]
    fn qsimd_matches_naive_bitwise(
        m in 0usize..10,
        k in 0usize..70,
        n in 0usize..14,
        seed in 0u64..1 << 40,
    ) {
        let a = qfill(m * k, seed);
        let bt = qfill(n * k, seed ^ 0xBEEF);
        let bias = qfill(m, seed ^ 0xB1A5);
        let want = qmm(QGemmBackend::Naive, &a, &bt, &bias, m, k, n);
        let got = qmm(QGemmBackend::Blocked, &a, &bt, &bias, m, k, n);
        prop_assert_eq!(qbits(&want), qbits(&got), "m={} k={} n={}", m, k, n);
    }

    /// Contract 4 at property scale: the `Simd` float kernel agrees
    /// with the naive oracle to the documented FMA tolerance (each
    /// unfused step rounds one product, so the gap is bounded by
    /// ~`k` product-roundings), and on positive — cancellation-free —
    /// data the agreement is ULP-tight.
    #[test]
    fn f32_simd_close_to_naive(
        m in 1usize..10,
        k in 1usize..200,
        n in 1usize..24,
        seed in 0u64..1 << 40,
    ) {
        let a = fill(m * k, seed, false);
        let b = fill(k * n, seed ^ 0xF32, false);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        let got = GemmBackend::Simd.matmul(&a, &b, m, k, n);
        let atol = 1e-6 + k as f32 * 1e-6;
        assert_close("simd vs naive", &want, &got, atol, 1e-5);

        let ap = fill01(m * k, seed);
        let bp = fill01(k * n, seed ^ 0xF33);
        let wantp = GemmBackend::Naive.matmul(&ap, &bp, m, k, n);
        let gotp = GemmBackend::Simd.matmul(&ap, &bp, m, k, n);
        assert_ulp_close("simd vs naive (positive)", &wantp, &gotp, 4 * k as u64 + 4);
    }

    /// Contract 2: certificate-boundary rows. With `bias = 0` and
    /// `max|b| = 1` the [`row_safe`] bound *is* the row's L1 norm, so
    /// rows of 32767-magnitude entries (signs randomised — L1 sees
    /// magnitudes only) land the bound exactly on `i32::MAX - 1`
    /// (certified), `i32::MAX` (first uncertified value) and
    /// `i32::MAX + 1` (uncertified): the verdict flips exactly at the
    /// strict `< i32::MAX` comparison, and the blocked kernel (lanes
    /// and forced scalar) produces the oracle's bits on both sides of
    /// the flip — the lane kernel must take the saturating chain the
    /// moment the certificate fails.
    #[test]
    fn certificate_boundary_flips_exactly_and_all_backends_agree(seed in 0u64..1 << 40) {
        let sign = |i: usize| if (seed >> (i % 40)) & 1 == 0 { 1i16 } else { -1i16 };
        let [base, at, above] = boundary_rows(seed);
        let zero = Q8_8::from_raw(0);
        prop_assert!(row_safe(l1(&base), zero, 1), "one below the bound must certify");
        prop_assert!(!row_safe(l1(&at), zero, 1), "at the bound must not certify");
        prop_assert!(!row_safe(l1(&above), zero, 1), "above the bound must not certify");

        let n = 4usize; // one whole column tile; skinny widths below
        for arow in [&base, &at, &above] {
            let k = arow.len();
            // ±1 entries keep max|b| = 1 while exercising sign mixes.
            let bt: Vec<Q8_8> = (0..n * k).map(|i| Q8_8::from_raw(sign(i * 3))).collect();
            let want = qmm(QGemmBackend::Naive, arow, &bt, &[zero], 1, k, n);
            lanes_then_scalar(|leg| {
                let got = qmm(QGemmBackend::Blocked, arow, &bt, &[zero], 1, k, n);
                assert_eq!(qbits(&want), qbits(&got), "{leg} k={k} L1-case");
            });
        }
    }
}

/// Contract 1 under the pool: a shape above `QPAR_MIN_MACS` forces the
/// blocked row-band scatter at every pool width; the bits must be the
/// oracle's at each of them. Saturating rows are mixed in (a handful of
/// `-128.0` rows make the certificate fail genuinely) so both paths
/// cross the band boundaries.
#[test]
fn qsimd_banded_matches_naive_at_every_pool_size() {
    let (m, k, n) = (32usize, 64usize, 80usize);
    assert!(m * k * n >= 1 << 17, "shape must force the fan-out");
    let mut a = qfill(m * k, 51);
    // Rows 3 and 17: all-extreme entries, so the certificate bound
    // L1 · max|b| ≈ 64 · 32768 · 32768 ≈ 2³⁶ overshoots i32::MAX and
    // those rows genuinely take the saturating chain.
    for row in [3usize, 17] {
        for v in &mut a[row * k..(row + 1) * k] {
            *v = Q8_8::from_raw(i16::MIN);
        }
    }
    let bt = qfill(n * k, 52);
    let bias = qfill(m, 53);
    let want = qmm(QGemmBackend::Naive, &a, &bt, &bias, m, k, n);
    sweep_pools(|pool_threads| {
        let got = qmm(QGemmBackend::Blocked, &a, &bt, &bias, m, k, n);
        assert_eq!(qbits(&want), qbits(&got), "pool={pool_threads}");
    });
}

/// Contract 2 at skinny widths: one product mixing certified rows, rows
/// exactly at / one below / one above the bound, and rows that
/// genuinely saturate, at `n ∈ {1, 2, 3}` (the batch-1…3 FC
/// shape: no whole column tile, every certified dot a column tail) and
/// `n ∈ {4, 5}` (a tile, a tile plus tail). Every backend, at every
/// pool width and under [`simd::force_scalar`], equals the oracle bit
/// for bit.
#[test]
fn skinny_products_mixing_certified_and_saturating_rows_match_naive() {
    let _gate = scalar_gate();
    let seed = 0x5EED_u64;
    let [base, at, above] = boundary_rows(seed);
    // Zero padding keeps every L1; the extra length lets a row climb
    // to the i32 rail and come back down.
    let k = 2 * at.len();
    let pad = |mut r: Vec<Q8_8>| {
        r.resize(k, Q8_8::from_raw(0));
        r
    };
    let (big, neg) = (Q8_8::from_raw(32767), Q8_8::from_raw(-32767));
    let rows = [
        pad(base),
        pad(at),
        pad(above),
        // Reaches the rail on its last nonzero product: saturation
        // gives +MAX, a wrapping add would give a large negative.
        pad(vec![big; k / 2]),
        qfill(k, seed),
        // Climbs past the rail, then falls by as much: the saturating
        // chain ends just below zero, an exact sum at zero.
        (0..k).map(|i| if i < k / 2 { big } else { neg }).collect(),
    ];
    let m = rows.len();
    let a: Vec<Q8_8> = rows.concat();
    let zero = Q8_8::from_raw(0);
    // max|b| = 1 below, so zero-bias rows certify iff L1 < i32::MAX.
    let verdicts: Vec<bool> = rows.iter().map(|r| row_safe(l1(r), zero, 1)).collect();
    assert_eq!(verdicts, [true, false, false, false, true, false]);
    let bias = vec![zero; m];
    for n in 1..=5usize {
        // Column 0 all +1 (the saturating rows hit the rail), the rest
        // ±1: max|b| = 1 either way.
        let bt: Vec<Q8_8> = (0..n * k)
            .map(|i| {
                let flip = i >= k && (i * 7 / 3) % 2 == 1;
                Q8_8::from_raw(if flip { -1 } else { 1 })
            })
            .collect();
        let want = qmm(QGemmBackend::Naive, &a, &bt, &bias, m, k, n);
        assert_eq!(want[3 * n], Q8_8::MAX, "row 3 must saturate high");
        assert_eq!(
            want[5 * n],
            Q8_8::from_raw(-128),
            "row 5 must fall from the rail"
        );
        sweep_pools(|pool_threads| {
            for be in QGemmBackend::ALL {
                let got = qmm(be, &a, &bt, &bias, m, k, n);
                assert_eq!(qbits(&want), qbits(&got), "{be} n={n} pool={pool_threads}");
            }
        });
        let _guard = simd::force_scalar();
        for be in QGemmBackend::ALL {
            let got = qmm(be, &a, &bt, &bias, m, k, n);
            assert_eq!(qbits(&want), qbits(&got), "{be} n={n} forced scalar");
        }
    }
}

/// Rewrites parameter tensor `index` of `net` through the public
/// weight format ([`Network::save_weights`]: magic, tensor count, then
/// per tensor its rank, dims and `f32` payload, little-endian).
fn edit_param(net: &mut Network, index: usize, edit: impl FnOnce(&mut [f32])) {
    let mut bytes = net.save_weights();
    let word = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let mut pos = 8;
    let mut len = 0;
    for _ in 0..=index {
        pos += 4 * len; // skip the previous tensor's payload
        let rank = word(&bytes, pos);
        len = (0..rank).map(|d| word(&bytes, pos + 4 + 4 * d)).product();
        pos += 4 + 4 * rank;
    }
    let payload = &mut bytes[pos..pos + 4 * len];
    let mut vals: Vec<f32> = payload
        .chunks(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    edit(&mut vals);
    for (c, v) in payload.chunks_mut(4).zip(vals) {
        c.copy_from_slice(&v.to_le_bytes());
    }
    net.load_weights(&bytes)
        .expect("edited weights keep the format");
}

/// Contract 2 end to end: a snapshot with one deliberately
/// uncertifiable weight row. FC4's weights are zeroed and its bias set
/// to 50.0, so every FC5 input is exactly 50.0, and FC5's first row is
/// sixteen `+127` then sixteen `-127`: its exact sum is 0, but the
/// saturating chain clamps high and then falls to the low rail. FC5's
/// other rows stay certified. The batch-1 and batch-2
/// forwards on every backend, at every pool width and under
/// [`simd::force_scalar`], equal the `Naive` forward bit for bit.
#[test]
fn quantized_net_with_an_uncertifiable_row_matches_naive_at_batch_1_and_2() {
    let _gate = scalar_gate();
    let spec = NetworkSpec::micro(16, 1, 5);
    let mut net = spec.build(13);
    // Parameter tensors: CONV1..5 (w, b) are 0..=9, FC1..5 are 10..=19.
    edit_param(&mut net, 16, |fc4_weight| fc4_weight.fill(0.0));
    edit_param(&mut net, 17, |fc4_bias| fc4_bias.fill(50.0));
    edit_param(&mut net, 18, |fc5_weight| {
        let row0 = &mut fc5_weight[..32]; // [actions × 32], row-major
        row0[..16].fill(127.0);
        row0[16..].fill(-127.0);
    });
    let mut q = QuantizedNet::from_network(&spec, &net).expect("spec-built net");
    for n in [1usize, 2] {
        let x = Tensor::from_vec(&[n, 1, 16, 16], fill01(n * 256, 40 + n as u64));
        q.set_backend(QGemmBackend::Naive);
        let want = bits(q.forward_batch(&x, &mut QWorkspace::new()).data());
        for i in 0..n {
            assert_eq!(
                want[i * 5],
                Q8_8::MIN.to_f32().to_bits(),
                "FC5 row 0 must end on the low rail (sample {i})"
            );
        }
        let mut check = |label: &str| {
            for be in QGemmBackend::ALL {
                q.set_backend(be);
                let got = bits(q.forward_batch(&x, &mut QWorkspace::new()).data());
                assert_eq!(want, got, "{be} batch={n} {label}");
            }
        };
        sweep_pools(|pool_threads| check(&format!("pool={pool_threads}")));
        let _guard = simd::force_scalar();
        check("forced scalar");
    }
}

/// Contract 3: under [`simd::force_scalar`] the SIMD tier is inert —
/// `simd_active()` reports off, the f32 backend produces `Blocked`'s
/// bits and the integer backend the oracle's — and activity resumes
/// when the guard drops. This is the in-process twin of the CI
/// matrix's `NN_SIMD=off` leg, runnable on any host.
#[test]
fn forced_fallback_collapses_both_datapaths_onto_scalar_kernels() {
    let _gate = scalar_gate();
    let was_active = simd::simd_active();
    {
        let _guard = simd::force_scalar();
        assert!(!simd::simd_active(), "guard must force the scalar path");

        let (m, k, n) = (9usize, 37, 21);
        let a = fill(m * k, 61, true);
        let b = fill(k * n, 62, true);
        assert_bitwise(
            "fallback matmul ≡ blocked",
            &GemmBackend::Blocked.matmul(&a, &b, m, k, n),
            &GemmBackend::Simd.matmul(&a, &b, m, k, n),
        );
        let bt = fill(m * n, 63, true);
        assert_bitwise(
            "fallback at_b ≡ blocked",
            &GemmBackend::Blocked.matmul_at_b(&a, &bt, m, k, n),
            &GemmBackend::Simd.matmul_at_b(&a, &bt, m, k, n),
        );

        let qa = qfill(m * k, 64);
        let qbt = qfill(n * k, 65);
        let qbias = qfill(m, 66);
        assert_eq!(
            qbits(&qmm(QGemmBackend::Naive, &qa, &qbt, &qbias, m, k, n)),
            qbits(&qmm(QGemmBackend::Blocked, &qa, &qbt, &qbias, m, k, n)),
            "fallback qgemm ≡ oracle"
        );
    }
    assert_eq!(
        simd::simd_active(),
        was_active,
        "dropping the guard must restore the prior state"
    );
}

/// Contract 4, self-consistency: within the `Simd` backend each output
/// element's bits depend only on its own (row, column) operands — so a
/// matmul over the full row block equals the concatenation of matmuls
/// over arbitrary row splits (the property that makes pooled row
/// banding and per-sample batching invisible).
#[test]
fn f32_simd_is_invariant_under_row_splits() {
    let _gate = scalar_gate();
    let (m, k, n) = (13usize, 96, 40);
    let a = fill(m * k, 71, false);
    let b = fill(k * n, 72, false);
    let full = GemmBackend::Simd.matmul(&a, &b, m, k, n);
    for split in [1usize, 5, 12] {
        let top = GemmBackend::Simd.matmul(&a[..split * k], &b, split, k, n);
        let bot = GemmBackend::Simd.matmul(&a[split * k..], &b, m - split, k, n);
        let stitched: Vec<f32> = top.into_iter().chain(bot).collect();
        assert_bitwise(&format!("split at {split}"), &full, &stitched);
    }
}

/// Contract 4 under the pool: at a fan-out shape (≥ `PAR_MIN_MACS`)
/// the `Simd` forward bits are identical at every pool width, and the
/// backward contraction (`matmul_at_b`, deliberately routed to the
/// `Blocked` family) equals the naive oracle bitwise throughout.
#[test]
fn f32_simd_banded_bits_are_pool_invariant() {
    let _gate = scalar_gate();
    let (m, k, n) = (40usize, 80, 90);
    assert!(m * k * n >= 1 << 18, "shape must force the fan-out");
    let a = fill(m * k, 81, false);
    let b = fill(k * n, 82, false);
    let bt = fill(m * n, 83, false);
    let want_at_b = GemmBackend::Naive.matmul_at_b(&a, &bt, m, k, n);
    let mut reference: Option<Vec<u32>> = None;
    sweep_pools(|pool_threads| {
        let got = bits(&GemmBackend::Simd.matmul(&a, &b, m, k, n));
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(r, &got, "forward pool={pool_threads}"),
        }
        assert_bitwise(
            &format!("at_b pool={pool_threads}"),
            &want_at_b,
            &GemmBackend::Simd.matmul_at_b(&a, &bt, m, k, n),
        );
    });
}

/// Contract 4 end-to-end: a whole batched network forward on the
/// `Simd` backend is bit-identical to its own serial single-image
/// passes at every pool width (batched ≡ serial holds *within* the
/// tolerance tier, not just within the bitwise family).
#[test]
fn simd_network_batched_equals_serial_at_every_pool_size() {
    let _gate = scalar_gate();
    let spec = NetworkSpec::micro(16, 1, 5);
    let n = 3usize;
    let data = fill(n * 256, 91, false);
    let batched = Tensor::from_vec(&[n, 1, 16, 16], data.clone());

    let mut serial_net = spec.build(5);
    serial_net.set_gemm_backend(GemmBackend::Simd);
    let mut serial_out = Vec::new();
    for i in 0..n {
        let x = Tensor::from_vec(&[1, 16, 16], data[i * 256..(i + 1) * 256].to_vec());
        serial_out.extend_from_slice(serial_net.forward(&x).data());
    }

    sweep_pools(|pool_threads| {
        let mut net = spec.build(5);
        net.set_gemm_backend(GemmBackend::Simd);
        let mut ws = Workspace::for_spec(&spec);
        let got = net.forward_batch(&batched, &mut ws);
        assert_bitwise(&format!("pool={pool_threads}"), &serial_out, got.data());
    });
}
