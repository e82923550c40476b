//! Provenance recorded with every result set.

/// `(key, value)` pairs describing the host, the build and the knobs the
/// run resolved. Call after the workload has touched the pool, so the
/// knob snapshot reports the pool that ran.
pub fn provenance(workload: &str, seed: u64, seed_used: bool) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut p = vec![
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), seed.to_string()),
        (
            "seed_used".to_string(),
            if seed_used {
                "true".to_string()
            } else {
                "false (the workload has no randomness)".to_string()
            },
        ),
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), cpu_model()),
        ("simd_tier".to_string(), simd_tier().to_string()),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
        ("git_rev".to_string(), env!("PERFBENCH_GIT_REV").to_string()),
    ];
    p.extend(mramrl_bench::knob_meta());
    p
}

/// The CPU model string from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The widest vector tier the host reports.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512vnni") {
            return "avx512f+vnni";
        }
        if std::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return "avx2+fma";
        }
    }
    "scalar"
}

/// The process high-water resident set, MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
