//! Fleet-scale DSE report: sweeps the `mramrl_dse` design space on the
//! deterministic pool, reduces it to the 4-axis Pareto frontier and
//! emits `BENCH_dse.json` (+ `results/dse_pareto.csv`).
//!
//! The JSON is byte-identical across `NN_POOL_THREADS` and the bitwise
//! GEMM backends (the `dse-determinism` CI gate pins this, and pins the
//! committed `BENCH_dse.json`). The sweep's wall clock is measured by
//! perfbench (`dse.sweep_serial_ms`, `dse.sweep_pool_ms`).
//!
//! Flags: `--tiny` (16-point smoke space), plus the standard
//! `--backend` / `--pool-threads`.

use mramrl_bench::{save_bench_json, Table};
use mramrl_dse::{pareto_frontier, render_csv, render_json, sweep, sweep_serial, DesignSpace};

fn main() {
    mramrl_bench::init_gemm_backend();
    let (_pool, _guard) = mramrl_bench::init_pool_threads();
    let tiny = std::env::args().any(|a| a == "--tiny");

    let space = if tiny {
        DesignSpace::tiny()
    } else {
        DesignSpace::date19_fleet()
    };
    eprintln!("design space: {} points", space.len());

    // The pooled sweep must reproduce the serial reference bit for bit.
    let results = sweep_serial(&space);
    let pooled = sweep(&space);
    assert_eq!(pooled, results, "pooled sweep diverged from serial");

    let frontier = pareto_frontier(&results);

    let mut t = Table::new("DSE sweep — 4-axis Pareto frontier", &["Metric", "Value"]);
    t.row_owned(vec!["design points".into(), results.len().to_string()]);
    t.row_owned(vec![
        "placeable".into(),
        results.iter().filter(|r| r.placeable).count().to_string(),
    ]);
    t.row_owned(vec![
        "NVM write-free".into(),
        results
            .iter()
            .filter(|r| r.nvm_write_free)
            .count()
            .to_string(),
    ]);
    t.row_owned(vec!["frontier size".into(), frontier.len().to_string()]);
    t.print();

    let json = render_json(&space, &results, &frontier);
    let name = if tiny {
        "BENCH_dse_tiny.json"
    } else {
        "BENCH_dse.json"
    };
    if let Some(p) = save_bench_json(name, &json) {
        eprintln!("wrote {}", p.display());
    }
    let csv = render_csv(&results, &frontier);
    let dir = mramrl_bench::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(if tiny {
            "dse_pareto_tiny.csv"
        } else {
            "dse_pareto.csv"
        });
        match std::fs::write(&path, csv) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}
