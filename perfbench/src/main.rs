//! The drone-stack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-e2e|train-l4-q8|serve-fleet|dse-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics
//! for `--seconds`; with `--trace 1` it measures the per-layer metrics
//! instead, from spans recorded around calls into each module, and
//! writes the spans to `perfbench/out/`. Either way it checks every
//! operation's output and prints, last, one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--smoke` runs every
//! workload at toy size in both modes and checks that every metric of
//! `BENCHMARK.json` is emitted with its unit and every check passes.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod dse;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mramrl_nn::Topology;

use crate::dse::DseBench;
use crate::layers::ProbeCfg;
use crate::report::{Checks, Metric, END_TO_END};
use crate::serve::{ServeBench, ServeCfg};
use crate::trace::Tracer;
use crate::train::{TrainBench, TrainCfg};
use crate::workload::Window;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainE2e,
    TrainL4Q8,
    ServeFleet,
    DseSweep,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TrainE2e,
        Workload::TrainL4Q8,
        Workload::ServeFleet,
        Workload::DseSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TrainE2e => "train-e2e",
            Workload::TrainL4Q8 => "train-l4-q8",
            Workload::ServeFleet => "serve-fleet",
            Workload::DseSweep => "dse-sweep",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The training configuration of a `train-*` workload.
    fn train_cfg(self, tiny: bool) -> Option<TrainCfg> {
        match self {
            Workload::TrainE2e => Some(TrainCfg::e2e(tiny)),
            Workload::TrainL4Q8 => Some(TrainCfg::l4_q8(tiny)),
            _ => None,
        }
    }

    /// The workload's own names for the generic end-to-end metrics.
    fn aliases(self) -> Vec<(&'static str, String)> {
        let (thr, op) = match self {
            Workload::TrainE2e | Workload::TrainL4Q8 => {
                ("train.transitions_per_s", "learner round")
            }
            Workload::ServeFleet => ("serve.decisions_per_s", "serve.decide"),
            Workload::DseSweep => ("dse.points_per_s", "sweep + pareto"),
        };
        vec![
            ("throughput_per_s", thr.to_string()),
            ("op_p50_ms", format!("{op} p50")),
            ("op_p90_ms", format!("{op} p90")),
        ]
    }
}

/// Run length and probe budgets.
#[derive(Debug, Clone, Copy)]
struct Budget {
    seconds: f64,
    probe_s: f64,
    warmup_s: f64,
    tiny: bool,
}

impl Budget {
    fn full(seconds: f64) -> Self {
        Self {
            seconds,
            probe_s: 1.0,
            warmup_s: 0.5,
            tiny: false,
        }
    }

    fn smoke() -> Self {
        Self {
            seconds: 0.2,
            probe_s: 0.02,
            warmup_s: 0.05,
            tiny: true,
        }
    }
}

/// One run's result.
struct Outcome {
    metrics: Vec<Metric>,
    /// Printed in the table only.
    table_only: Vec<Metric>,
    checks: Checks,
    spans: Option<Vec<trace::Span>>,
}

/// The end-to-end outcome of a measured window.
fn end_to_end(w: &Window, setup_s: f64, checks: Checks) -> Outcome {
    Outcome {
        metrics: vec![
            Metric::over(
                "throughput_per_s",
                w.slice_throughput(),
                "1/s",
                w.slices.len(),
            ),
            Metric::over("op_p90_ms", w.slice_percentile(90.0), "ms", w.ops),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        table_only: vec![Metric::over(
            "op_p50_ms",
            w.slice_percentile(50.0),
            "ms",
            w.ops,
        )],
        checks,
        spans: None,
    }
}

/// `train-*` with tracing off.
fn run_train(cfg: TrainCfg, seed: u64, b: Budget) -> Outcome {
    let mut checks = Checks::default();
    let mut bench = TrainBench::new(cfg, seed);
    bench.window(0.0, 1, None, &mut checks);
    let w = bench.window(b.seconds, 1, None, &mut checks);
    bench.check_unhooked(&mut checks);
    end_to_end(&w, bench.setup_median(), checks)
}

/// `serve-fleet` with tracing off.
fn run_serve(seed: u64, b: Budget) -> Outcome {
    let mut checks = Checks::default();
    let mut bench = ServeBench::new(ServeCfg::fleet(b.tiny), seed);
    bench.window(b.warmup_s, None, &mut checks);
    let w = bench.window(b.seconds, None, &mut checks);
    bench.check_samples(&mut checks);
    bench.shutdown(&mut checks);
    end_to_end(&w, bench.setup_median(), checks)
}

/// `dse-sweep` with tracing off.
fn run_dse(b: Budget) -> Outcome {
    let mut checks = Checks::default();
    let mut bench = DseBench::new(b.tiny);
    bench.check_reference(&mut checks);
    let w = bench.window(b.seconds, 1, None, &mut checks);
    end_to_end(&w, bench.setup_median(), checks)
}

/// Tracing overhead: how much longer a unit of work took traced.
fn overhead_pct(untraced: &Window, traced: &Window) -> Metric {
    Metric::new(
        "trace.overhead_pct",
        (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
        "%",
    )
}

/// Alternates untraced and traced slices of `seconds` in total, so drift
/// over the run falls on both sides alike; returns both sides.
fn interleave(
    seconds: f64,
    tracer: &mut Tracer,
    mut slice: impl FnMut(f64, Option<&mut Tracer>) -> Window,
) -> (Window, Window) {
    const SLICES: usize = 4;
    let s = seconds / (2 * SLICES) as f64;
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    for _ in 0..SLICES {
        untraced.absorb(slice(s, None));
        traced.absorb(slice(s, Some(&mut *tracer)));
    }
    (untraced, traced)
}

/// The traced run: the workload's own layers from traced slices of its
/// window (interleaved with untraced ones, for the overhead), every other
/// layer from a short traced probe of its home workload, then the
/// nn/env/accel probes on the workload's net.
fn run_traced(w: Workload, seed: u64, b: Budget) -> Outcome {
    let mut tracer = Tracer::new(Instant::now());
    let mut checks = Checks::default();
    let mut metrics = Vec::new();

    // Training layers.
    let home_train = w.train_cfg(b.tiny);
    let train_cfg = home_train.clone().unwrap_or_else(|| TrainCfg::e2e(b.tiny));
    let mut tb = TrainBench::new(train_cfg.clone(), seed);
    tb.window(0.0, 1, None, &mut checks);
    if home_train.is_some() {
        let (u, t) = interleave(b.seconds, &mut tracer, |s, tr| {
            tb.window(s, 1, tr, &mut checks)
        });
        tb.check_unhooked(&mut checks);
        metrics.push(overhead_pct(&u, &t));
    } else {
        tb.window(0.0, 1, Some(&mut tracer), &mut checks);
    }
    metrics.extend(tb.layer_metrics(&mut tracer, b.probe_s));

    // Serving layers.
    let mut sb = ServeBench::new(ServeCfg::fleet(b.tiny), seed);
    sb.window(b.warmup_s, None, &mut checks);
    let traced = if w == Workload::ServeFleet {
        let (u, t) = interleave(b.seconds, &mut tracer, |s, tr| {
            sb.window(s, tr, &mut checks)
        });
        metrics.push(overhead_pct(&u, &t));
        t
    } else {
        sb.window(b.probe_s, Some(&mut tracer), &mut checks)
    };
    let flush = (sb.flush_size().round() as usize).max(1);
    metrics.extend(sb.layer_metrics(&traced, &mut tracer, b.probe_s / 2.0));
    sb.check_samples(&mut checks);
    sb.shutdown(&mut checks);

    // Cost-model layers.
    let mut db = DseBench::new(b.tiny);
    db.check_reference(&mut checks);
    if w == Workload::DseSweep {
        let (u, t) = interleave(b.seconds, &mut tracer, |s, tr| {
            db.window(s, 1, tr, &mut checks)
        });
        metrics.push(overhead_pct(&u, &t));
    } else {
        db.window(b.probe_s / 2.0, 3, Some(&mut tracer), &mut checks);
    }
    metrics.extend(db.layer_metrics(&mut tracer, b.probe_s));

    // nn / env / accel on the workload's net.
    let probe = ProbeCfg {
        spec: match w {
            Workload::ServeFleet => ServeCfg::fleet(b.tiny).spec,
            _ => train_cfg.spec.clone(),
        },
        batch: train_cfg.total_lanes(),
        topology: home_train.map_or(Topology::E2E, |c| c.topology),
        q88_batch: if w == Workload::ServeFleet {
            flush
        } else {
            train_cfg.total_lanes()
        },
    };
    metrics.extend(layers::env_metrics(
        train_cfg.lanes(seed),
        &mut tracer,
        b.probe_s / 2.0,
    ));
    metrics.extend(layers::nn_metrics(
        &probe,
        seed,
        train_cfg.lanes(seed),
        &mut tracer,
        b.probe_s * 2.0,
    ));
    metrics.push(Metric::new("failed_frac", checks.failed_frac(), "ratio"));
    Outcome {
        metrics,
        table_only: Vec::new(),
        checks,
        spans: Some(tracer.spans().to_vec()),
    }
}

/// Runs one workload in one mode.
fn run(w: Workload, seed: u64, trace: bool, b: Budget) -> Outcome {
    if trace {
        return run_traced(w, seed, b);
    }
    match w {
        Workload::TrainE2e | Workload::TrainL4Q8 => {
            run_train(w.train_cfg(b.tiny).expect("train workload"), seed, b)
        }
        Workload::ServeFleet => run_serve(seed, b),
        Workload::DseSweep => run_dse(b),
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Every metric of the mode's catalog emitted with its unit, and nothing
/// else.
fn catalog_problems(metrics: &[Metric], trace: bool) -> Vec<String> {
    let catalog: Vec<(String, &str)> = if trace {
        report::per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    report::catalog_mismatches(metrics, &catalog)
}

/// The toy-size run of every workload in both modes.
fn smoke() -> Vec<String> {
    let mut problems = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, 7, trace, Budget::smoke());
            let tag = format!("{} trace={}", w.name(), u8::from(trace));
            problems.extend(
                catalog_problems(&out.metrics, trace)
                    .into_iter()
                    .map(|p| format!("{tag}: {p}")),
            );
            problems.extend(out.checks.errors.iter().map(|e| format!("{tag}: {e}")));
            if out.checks.failed > 0 || out.checks.attempted == 0 {
                problems.push(format!(
                    "{tag}: {} of {} operations failed",
                    out.checks.failed, out.checks.attempted
                ));
            }
            eprintln!(
                "smoke {tag}: {} metrics, {} operations",
                out.metrics.len(),
                out.checks.attempted
            );
        }
    }
    problems
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        let problems = smoke();
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        println!(
            "smoke: {}",
            if problems.is_empty() { "ok" } else { "FAILED" }
        );
        return if problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = run(
        args.workload,
        args.seed,
        args.trace,
        Budget::full(args.seconds),
    );

    let provenance = host::provenance(
        args.workload.name(),
        args.seed,
        args.workload != Workload::DseSweep,
    );
    let problems = catalog_problems(&out.metrics, args.trace);
    for p in problems.iter().chain(&out.checks.errors) {
        eprintln!("check: {p}");
    }
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, trace::write_jsonl(spans)));
        match written {
            Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    let mode = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "# {} {mode}, seed {}, {} s",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    print!("{}", report::table(&out.metrics, &args.workload.aliases()));
    print!(
        "{}",
        report::table(&out.table_only, &args.workload.aliases())
    );
    if !args.trace {
        println!(
            "{:<28} {:>16.6} ratio   ({} of {} operations failed)",
            "failed_frac",
            out.checks.failed_frac(),
            out.checks.failed,
            out.checks.attempted
        );
    }
    println!("# provenance {}", report::provenance_json(&provenance));
    let correct = problems.is_empty() && out.checks.failed == 0 && out.checks.attempted > 0;
    println!(
        "{}",
        report::result_json(correct, &out.checks, &out.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_emits_every_metric_and_passes_every_check() {
        let problems = smoke();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn benchmark_json_lists_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut catalog: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        catalog.extend(report::per_layer_catalog());
        for (name, unit) in &catalog {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), catalog.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload dse-sweep --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::DseSweep);
        assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload dse-sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
