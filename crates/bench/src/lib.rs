//! Reproduction harness utilities: table rendering, CSV output, run modes.
//!
//! Each paper artifact has one binary in `src/bin/` (see DESIGN.md §4).
//! Binaries print the table/series to stdout and write a CSV under
//! `results/` (override with `MRAMRL_RESULTS`). Learning-curve binaries
//! run at a quick scale by default; pass `--full` for the DESIGN.md §6
//! full scale. Timing is not measured here: `perfbench/` is the one
//! timing harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

/// A printable/saveable table.
///
/// # Examples
///
/// ```
/// use mramrl_bench::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&["1", "2"]);
/// assert!(t.to_markdown().contains("| 1 | 2 |"));
/// assert_eq!(t.to_csv(), "x,y\n1,2\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs headers");
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {}\n\n", self.title);
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            s.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        s
    }

    /// Renders CSV (no quoting: cells are numeric/simple by construction).
    pub fn to_csv(&self) -> String {
        let mut s = self.headers.join(",");
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        s
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Writes the CSV into the results dir as `<name>.csv`, returning the
    /// path (best-effort: IO errors are reported to stderr, not fatal —
    /// reproduction output still reaches stdout).
    pub fn save(&self, name: &str) -> Option<PathBuf> {
        self.save_with_meta(name, &[])
    }

    /// Like [`Table::save`], but prefixes the CSV with `# key=value`
    /// comment lines recording the active run configuration (knobs,
    /// seeds, frame counts) — so a saved table says how it was made.
    pub fn save_with_meta(&self, name: &str, meta: &[(String, String)]) -> Option<PathBuf> {
        self.write_csv(&results_dir(), name, meta)
    }

    /// Writes `<dir>/<name>.csv` with `meta` as `# key=value` lines on
    /// top; the body of [`Table::save_with_meta`].
    fn write_csv(&self, dir: &Path, name: &str, meta: &[(String, String)]) -> Option<PathBuf> {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{name}.csv"));
        let mut body = String::new();
        for (k, v) in meta {
            body.push_str(&format!("# {k}={v}\n"));
        }
        body.push_str(&self.to_csv());
        match fs::write(&path, body) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The standard knob snapshot every figure binary records in its saved
/// table ([`Table::save_with_meta`]): the GEMM kernel that actually runs
/// (the resolved default, so a retired alias such as `threaded` records
/// `blocked`), the installed pool width and whether the SIMD kernel tier
/// is active.
/// Call it *after* [`init_gemm_backend`] / [`init_pool_threads`] so the
/// values reflect what the run actually used.
pub fn knob_meta() -> Vec<(String, String)> {
    vec![
        (
            "gemm_backend".to_string(),
            mramrl_nn::backend::default_backend().name().to_string(),
        ),
        (
            "pool_threads".to_string(),
            mramrl_nn::pool::current_threads().to_string(),
        ),
        (
            "simd".to_string(),
            mramrl_nn::simd::simd_active().to_string(),
        ),
    ]
}

/// The results directory (`MRAMRL_RESULTS` or `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MRAMRL_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Where a machine-readable bench artifact (`BENCH_*.json`) goes: the
/// `MRAMRL_RESULTS` dir when set (isolated runs, smoke tests), else the
/// repository root / current directory — so committed reports like
/// `BENCH_dse.json` live next to the code that produces them.
pub fn bench_json_path(file_name: &str) -> PathBuf {
    std::env::var_os("MRAMRL_RESULTS")
        .map(|d| PathBuf::from(d).join(file_name))
        .unwrap_or_else(|| PathBuf::from(file_name))
}

/// Writes a JSON string to [`bench_json_path`] (best-effort, like
/// [`Table::save`]); returns the path on success.
pub fn save_bench_json(file_name: &str, json: &str) -> Option<PathBuf> {
    let path = bench_json_path(file_name);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return None;
            }
        }
    }
    match fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// `true` if `--full` (or `MRAMRL_FULL=1`) was requested.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
        || std::env::var("MRAMRL_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Parses `--name value` from argv, with a default when the flag is
/// absent. A value that is missing or not a `u64` aborts with exit
/// code 2 and names the flag, as `--backend` does: an explicit request
/// never silently runs with the default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return default;
    };
    let Some(v) = args.get(i + 1) else {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|e| {
        eprintln!("error: {flag} {v}: {e}");
        std::process::exit(2);
    })
}

/// Resolves the GEMM backend for a figure binary: `--backend <name>` or
/// `--backend=<name>` (`naive|blocked|simd`) wins, else the
/// `NN_GEMM_BACKEND` env knob (default `blocked`). The choice is
/// exported back into `NN_GEMM_BACKEND` so every network built later in
/// the process — and any child process — picks it up; call this
/// **first** in `main`, before any layer is constructed. An unknown or
/// missing **flag** value aborts with a usage message (a bad *env*
/// value, by contrast, warns and falls back to `blocked` — the env knob
/// is a lenient default, the flag an explicit request).
///
/// `repro_all` forwards its argv to every child binary, so
/// `repro_all -- --backend simd` switches the whole suite.
pub fn init_gemm_backend() -> mramrl_nn::GemmBackend {
    let args: Vec<String> = std::env::args().collect();
    let chosen: Option<String> = args.iter().position(|a| *a == "--backend").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --backend needs a value (naive|blocked|simd)");
            std::process::exit(2);
        })
    });
    let chosen = chosen.or_else(|| {
        args.iter()
            .find_map(|a| Some(a.strip_prefix("--backend=")?.into()))
    });
    let backend = match chosen {
        None => mramrl_nn::backend::default_backend(),
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    };
    std::env::set_var("NN_GEMM_BACKEND", backend.name());
    eprintln!("gemm backend: {backend}");
    backend
}

/// Resolves the worker-pool size for a figure binary: `--pool-threads N`
/// wins, else the ambient global pool (the `NN_POOL_THREADS` knob).
/// Installs a fresh in-process [`mramrl_nn::pool::ThreadPool`] via
/// [`mramrl_nn::pool::install_handle`] (no env-var games) and returns
/// the pool with its install guard. Keep the returned pair alive for the
/// whole of `main`; dropping it uninstalls the pool.
pub fn init_pool_threads() -> (
    mramrl_nn::pool::ThreadPool,
    mramrl_nn::pool::HandleInstallGuard,
) {
    let threads =
        arg_u64("pool-threads", mramrl_nn::pool::global().threads() as u64).max(1) as usize;
    let pool = mramrl_nn::pool::ThreadPool::new(threads);
    let guard = mramrl_nn::pool::install_handle(pool.handle());
    eprintln!("pool threads: {}", pool.threads());
    (pool, guard)
}

/// The batched-TD benchmark network: the 40×40 micro-AlexNet conv trunk
/// with its FC tail re-proportioned to the paper's Fig. 3(a) census
/// (~97 % of weights in the FC layers — the composition whose online
/// training the whole co-design exploits). perfbench's `serve-fleet`
/// workload serves a Q8.8 snapshot of this net.
pub fn batch_td_spec() -> mramrl_nn::NetworkSpec {
    use mramrl_nn::LayerSpec;
    let mut spec = mramrl_nn::NetworkSpec::micro(40, 1, 5);
    let mut fc_dims = [1024usize, 512, 512, 256, 5].into_iter();
    let mut prev = 0usize;
    for l in spec.layers.iter_mut() {
        if let LayerSpec::Fc { in_f, out_f, .. } = l {
            if prev != 0 {
                *in_f = prev;
            }
            *out_f = fc_dims.next().expect("five FC layers in the micro net");
            prev = *out_f;
        }
    }
    spec.validate().expect("re-proportioned spec must chain");
    spec
}

/// Tiny stand-in for [`batch_td_spec`] (16×16 micro net): same code
/// paths, seconds instead of minutes — what perfbench's smoke run serves.
pub fn batch_td_spec_tiny() -> mramrl_nn::NetworkSpec {
    mramrl_nn::NetworkSpec::micro(16, 1, 5)
}

/// Rollout fleets for a `run_parallel` training run: `n` fleets × `k`
/// lanes of deterministic `hw`×`hw`-camera indoor worlds, flat-seeded
/// like `Trainer::build_fleets` so every topology-under-test steps the
/// identical lane set.
pub fn train_bench_fleets(hw: usize, n: usize, k: usize) -> Vec<mramrl_env::VecEnv> {
    let envs: Vec<mramrl_env::DroneEnv> = (0..n * k)
        .map(|i| {
            mramrl_env::DroneEnv::new(
                mramrl_env::EnvKind::IndoorApartment,
                42u64.wrapping_add(i as u64),
            )
            .with_camera(mramrl_env::DepthCamera::new(hw, hw, 1.5, 20.0, 0.01))
        })
        .collect();
    mramrl_env::VecEnv::from_envs(envs).split(n)
}

/// Formats a float with `digits` decimals, trimming to a compact cell.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Signed-percent formatter (`+3.2%` / `-1.0%`).
pub fn fmt_pct(v: f64) -> String {
    format!("{v:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1", "2"]);
        t.row_owned(vec!["3".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(3.21), "+3.2%");
        assert_eq!(fmt_pct(-1.0), "-1.0%");
    }

    #[test]
    fn results_dir_default() {
        if std::env::var_os("MRAMRL_RESULTS").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn arg_default_when_absent() {
        assert_eq!(arg_u64("definitely-not-passed", 7), 7);
    }

    #[test]
    fn knob_meta_covers_the_standard_knobs() {
        let meta = knob_meta();
        for key in ["gemm_backend", "pool_threads", "simd"] {
            assert!(meta.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }

    /// `knob_meta` records the kernel that runs, not the raw env string:
    /// the retired alias `NN_GEMM_BACKEND=threaded` runs `blocked`. The
    /// env var is set only in a child run of this test binary (setting it
    /// here would race the other test threads' env reads).
    #[test]
    fn knob_meta_reports_the_backend_that_runs() {
        if std::env::var("NN_GEMM_BACKEND").as_deref() == Ok("threaded") {
            let meta = knob_meta();
            let (_, backend) = meta.iter().find(|(k, _)| k == "gemm_backend").unwrap();
            println!("gemm_backend={backend}");
            assert_eq!(backend, "blocked");
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["tests::knob_meta_reports_the_backend_that_runs", "--exact"])
            .args(["--nocapture", "--test-threads", "1"])
            .env("NN_GEMM_BACKEND", "threaded")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("gemm_backend=blocked"),
            "child run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn save_with_meta_prefixes_comment_lines() {
        let dir = std::env::temp_dir().join(format!("mramrl_meta_test_{}", std::process::id()));
        let mut t = Table::new("T", &["a"]);
        t.row(&["1"]);
        let path = t
            .write_csv(&dir, "meta_demo", &[("seed".into(), "42".into())])
            .unwrap();
        assert_eq!(path, dir.join("meta_demo.csv"));
        let body = fs::read_to_string(path).unwrap();
        assert!(body.starts_with("# seed=42\n"));
        assert!(body.ends_with("a\n1\n"));
        let _ = fs::remove_dir_all(dir);
    }
}
