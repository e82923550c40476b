//! Per-layer probes: the environment step, the f32 layers (forward,
//! backward, SGD), the Q8.8 engine, and the `mramrl_accel` model of the
//! same layers, each timed from here through the module's public calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mramrl_accel::{Calibration, PlatformModel, SystemParams};
use mramrl_env::{Action, VecEnv};
use mramrl_nn::{LayerSpec, NetworkSpec, QWorkspace, QuantizedNet, Sgd, Tensor, Topology};

use crate::report::{Metric, PARAM_LAYERS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::train::frame;

/// What the layer probes run on.
#[derive(Debug, Clone)]
pub struct ProbeCfg {
    /// The net whose layers are timed and modeled.
    pub spec: NetworkSpec,
    /// Rows of the f32 passes (the learner's TD batch).
    pub batch: usize,
    /// Trainable tail for the SGD and written-bytes probes.
    pub topology: Topology,
    /// Rows of the Q8.8 forward.
    pub q88_batch: usize,
}

/// Multiply-accumulates of each parameter layer for one sample.
fn layer_macs(spec: &NetworkSpec) -> Vec<(String, f64)> {
    let shapes = spec.validate().expect("benchmark specs validate");
    spec.layers
        .iter()
        .zip(&shapes)
        .filter_map(|(l, out)| match l {
            LayerSpec::Conv { name, in_c, k, .. } => Some((
                name.clone(),
                out.iter().product::<usize>() as f64 * (in_c * k * k) as f64,
            )),
            LayerSpec::Fc { name, in_f, out_f } => Some((name.clone(), (in_f * out_f) as f64)),
            _ => None,
        })
        .collect()
}

/// `[n, C, H, W]` observations from `lanes`' first frames.
fn observations(lanes: &mut VecEnv, n: usize) -> Tensor {
    let frames: Vec<Tensor> = lanes.reset_all().iter().map(frame).collect();
    let mut shape = vec![n];
    shape.extend_from_slice(frames[0].shape());
    let data = (0..n)
        .flat_map(|i| frames[i % frames.len()].data().to_vec())
        .collect();
    Tensor::from_vec(&shape, data)
}

/// Most repetitions of one probe, which bounds the spans it records.
pub const MAX_REPS: u64 = 2000;

/// Runs `f` until `budget` is spent (at least `min`, at most
/// [`MAX_REPS`] times).
pub fn repeat(budget: Duration, min: u64, mut f: impl FnMut(u64)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || (i < MAX_REPS && t0.elapsed() < budget) {
        f(i);
        i += 1;
    }
}

/// `VecEnv::step` per lane-step, µs.
pub fn env_metrics(mut lanes: VecEnv, tracer: &mut Tracer, probe_s: f64) -> Vec<Metric> {
    let k = lanes.len();
    lanes.reset_all();
    repeat(Duration::from_secs_f64(probe_s), 32, |i| {
        let actions: Vec<Action> = (0..k)
            .map(|l| Action::from_index((i as usize + l) % Action::COUNT))
            .collect();
        let steps = tracer.span("env.step", i, None, || lanes.step(&actions));
        for (l, s) in steps.iter().enumerate() {
            if s.crashed {
                lanes.reset(l);
            }
        }
    });
    let d = tracer.durations("env.step");
    vec![Metric::over(
        "env.step_us",
        median(&d) / 1e3 / k as f64,
        "us",
        d.len(),
    )]
}

/// The nn.* and accel.model_* metrics for `cfg`'s net.
pub fn nn_metrics(
    cfg: &ProbeCfg,
    seed: u64,
    mut lanes: VecEnv,
    tracer: &mut Tracer,
    probe_s: f64,
) -> Vec<Metric> {
    let budget = Duration::from_secs_f64(probe_s / 5.0);
    let x = observations(&mut lanes, cfg.batch);
    let mut net = cfg.spec.build(seed);
    let mut ws = net.workspace();
    let mut m = Vec::new();

    // Forward, one span per parameter layer per pass.
    let names: Vec<String> = net.layers().map(|l| l.name().to_string()).collect();
    let is_param: Vec<bool> = net.layers().map(|l| l.param_count() > 0).collect();
    repeat(budget, 8, |rep| {
        ws.ensure_layers(names.len());
        let slots = ws.slots_mut();
        for (i, layer) in net.layers().enumerate() {
            let (prev, rest) = slots.split_at_mut(i);
            let input = if i == 0 {
                &x
            } else {
                prev[i - 1].out.as_ref().expect("previous layer ran")
            };
            if is_param[i] {
                tracer.span(format!("nn.fwd.{}", names[i]), rep, None, || {
                    layer.forward_batch(input, &mut rest[0])
                });
            } else {
                layer.forward_batch(input, &mut rest[0]);
            }
        }
    });
    for (name, macs) in layer_macs(&cfg.spec) {
        let d = tracer.durations(&format!("nn.fwd.{name}"));
        let ns = median(&d);
        m.push(Metric::over(
            format!("nn.fwd_ms.{name}"),
            ns / 1e6,
            "ms",
            d.len(),
        ));
        m.push(Metric::over(
            format!("nn.gmacs.{name}"),
            macs * cfg.batch as f64 / ns,
            "GMAC/s",
            d.len(),
        ));
    }

    // Backward, isolated by trainable tail: tail k minus tail k-1 is the
    // k-th parameter layer from the end, differenced within each pass.
    let actions = *net
        .forward_batch(&x, &mut ws)
        .shape()
        .last()
        .expect("batched output");
    let grad = Tensor::filled(&[cfg.batch, actions], 0.01);
    let tails = PARAM_LAYERS.len();
    repeat(budget, 8, |rep| {
        for k in 1..=tails {
            net.set_trainable_tail(k);
            net.forward_batch(&x, &mut ws);
            tracer.span(format!("nn.bwd.tail{k}"), rep, None, || {
                net.backward_batch(&grad, &mut ws).expect("forward ran")
            });
            net.zero_grads();
        }
    });
    let mut shorter: Option<Vec<f64>> = None;
    for (k, name) in PARAM_LAYERS.iter().rev().enumerate() {
        let d = tracer.durations(&format!("nn.bwd.tail{}", k + 1));
        let own: Vec<f64> = match &shorter {
            Some(prev) => d.iter().zip(prev).map(|(a, b)| a - b).collect(),
            None => d.clone(),
        };
        m.push(Metric::over(
            format!("nn.bwd_ms.{name}"),
            median(&own) / 1e6,
            "ms",
            own.len(),
        ));
        shorter = Some(d);
    }

    // SGD on the configuration's tail, and the bytes it writes.
    cfg.topology.apply(&mut net);
    let sgd = Sgd::new(2e-3).with_grad_clip(1.0);
    repeat(budget, 8, |rep| {
        net.forward_batch(&x, &mut ws);
        net.backward_batch(&grad, &mut ws).expect("forward ran");
        tracer.span("nn.sgd", rep, None, || net.apply_sgd(&sgd, cfg.batch));
    });
    let d = tracer.durations("nn.sgd");
    m.push(Metric::over("nn.sgd_ms", median(&d) / 1e6, "ms", d.len()));
    m.push(Metric::new(
        "nn.trainable_bytes",
        (net.trainable_param_count() * std::mem::size_of::<f32>() as u64) as f64,
        "B",
    ));

    // Q8.8: snapshot and batched forward.
    let mut q = None;
    repeat(budget / 2, 4, |rep| {
        q = Some(tracer.span("nn.q88_snapshot", rep, None, || {
            QuantizedNet::from_network(&cfg.spec, &net).expect("spec-built net snapshots")
        }));
    });
    let q = q.expect("snapshot taken");
    let xq = observations(&mut lanes, cfg.q88_batch);
    let mut qws = QWorkspace::new();
    repeat(budget, 8, |rep| {
        tracer.span("nn.q88_fwd", rep, None, || {
            black_box(q.forward_batch(&xq, &mut qws));
        });
    });
    for (metric, span) in [
        ("nn.q88_snapshot_ms", "nn.q88_snapshot"),
        ("nn.q88_fwd_ms", "nn.q88_fwd"),
    ] {
        let d = tracer.durations(span);
        m.push(Metric::over(metric, median(&d) / 1e6, "ms", d.len()));
    }

    // The Fig. 12 model of the same layers, per image.
    let model = PlatformModel::with_spec(
        cfg.spec.clone(),
        SystemParams::date19(),
        Calibration::date19(),
    );
    for (prefix, table) in [
        ("accel.model_fwd_ms", model.forward_table()),
        ("accel.model_bwd_ms", model.backward_table()),
    ] {
        for row in table {
            m.push(Metric::new(
                format!("{prefix}.{}", row.name),
                row.latency_ms,
                "ms",
            ));
        }
    }
    m
}
