//! Criterion: batched TD accumulation vs serial, across GEMM backends.
//!
//! The unit of work is one replay batch of Bellman updates on the
//! Fig. 3(a)-proportioned micro AlexNet ([`mramrl_bench::batch_td_spec`]:
//! 40×40 deployment-camera input, ~97 % of weights in the FC tail):
//! batched (`QAgent::accumulate_td_batch` over N transitions — one
//! target forward, one online forward, one backward, each a single
//! batched GEMM chain) at N ∈ {1, 8, 32}, plus the serial baseline
//! (N × `accumulate_td`). Batching multiplies the FC GEMM's column
//! dimension, so the weight matrices stream once per batch instead of
//! once per image. The acceptance bar for this suite is
//! `batched(32) ≥ 2×` the serial-32 throughput on the blocked backend
//! (measured ≈8× on CI-class hardware); `BENCH_batch.json` (via the
//! `bench_batch_json` binary) records the same cells machine-readably —
//! both sides share the [`mramrl_bench`] workload fixtures, so they
//! cannot drift apart.
//!
//! Knobs: `NN_POOL_THREADS` (sizes the persistent worker pool the
//! per-sample conv tasks and row bands run on — see
//! `docs/threading.md`), `NN_GEMM_THREADS`, `CRITERION_BUDGET_MS`.
//! For an in-process pool sweep use `bench_batch_json --pool-threads N`
//! instead, which injects pools of each size.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mramrl_bench::{batch_td_agent, batch_td_spec, batch_td_transitions, BATCH_TD_SIZES};
use mramrl_nn::backend::GemmBackend;
use mramrl_rl::{Transition, TransitionBatch};

fn bench_batch_td(c: &mut Criterion) {
    let spec = batch_td_spec();
    let ts = batch_td_transitions(32, spec.input_shape[1]);
    for be in GemmBackend::ALL {
        for n in BATCH_TD_SIZES {
            let refs: Vec<&Transition> = ts[..n].iter().collect();
            let batch = TransitionBatch::from_transitions(&refs);
            let mut a = batch_td_agent(&spec, be);
            c.bench_function(&format!("batch_td_{be}_batched_{n}"), |bch| {
                bch.iter(|| {
                    // Fresh batch boundary each iteration, as the trainer
                    // sees it: accumulate then drop the gradients.
                    let td = a.accumulate_td_batch(black_box(&batch));
                    a.net_mut().zero_grads();
                    td
                })
            });
        }
        // The serial baseline the acceptance criterion compares against:
        // 32 single-image accumulate_td calls.
        let mut a = batch_td_agent(&spec, be);
        c.bench_function(&format!("batch_td_{be}_serial_32"), |bch| {
            bch.iter(|| {
                let mut last = 0.0;
                for t in &ts {
                    last = a.accumulate_td(black_box(t));
                }
                a.net_mut().zero_grads();
                last
            })
        });
    }
}

criterion_group!(benches, bench_batch_td);
criterion_main!(benches);
