//! Criterion: the three GEMM backends head-to-head on paper-shaped
//! matrix products.
//!
//! Shapes are the im2col GEMMs of the DATE-19 AlexNet (§V-B): `C[m×n] =
//! A[m×k]·B[k×n]` with `m` = output channels, `k` = `in_c·k²` filter
//! taps, `n` = output positions — plus one FC mat-vec from the trainable
//! tail. The acceptance bar for this suite is `blocked ≥ 2×` naive
//! throughput on the largest shape (CONV1) on one executor and `≥ 3×`
//! on a multi-executor pool, on CI-class hardware; read the ns/iter columns off the output to check.
//!
//! Backend/thread knobs: `NN_GEMM_THREADS` sets the row-band count;
//! `CRITERION_BUDGET_MS` trades runtime for measurement stability.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mramrl_nn::backend::GemmBackend;

/// Deterministic pseudo-random fill in `[-1, 1)` — no RNG dependency.
fn fill(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(seed.wrapping_mul(0x9E37_79B9));
            (h % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

/// (label, m, k, n) — paper-shaped products, largest last.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("fc4_matvec_1024x2048", 1024, 2048, 1),
    ("conv3_micro_24x216x196", 24, 216, 196),
    ("conv2_micro_16x72x400", 16, 72, 400),
    ("conv1_alexnet_96x363x3025", 96, 363, 3025),
];

fn bench_gemm(c: &mut Criterion) {
    for &(label, m, k, n) in SHAPES {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        for be in GemmBackend::ALL {
            c.bench_function(&format!("gemm_{label}_{be}"), |bch| {
                bch.iter(|| be.matmul(black_box(&a), black_box(&b), m, k, n))
            });
        }
    }

    // The backward-pass transpose product on the largest conv shape.
    let (m, k, n) = (3025usize, 96usize, 363usize);
    let a = fill(m * k, 3);
    let b = fill(m * n, 4);
    for be in GemmBackend::ALL {
        c.bench_function(&format!("gemm_at_b_conv1_grad_{be}"), |bch| {
            bch.iter(|| be.matmul_at_b(black_box(&a), black_box(&b), m, k, n))
        });
    }
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
