//! Metric names, the result line and the human-readable table.

use std::fmt::Write as _;

/// The ten parameter layers every net in the benchmark has.
pub const PARAM_LAYERS: [&str; 10] = [
    "CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC1", "FC2", "FC3", "FC4", "FC5",
];

/// End-to-end metrics, emitted by every workload with tracing off.
/// An operation is a learner round (`train-*`), a decision
/// (`serve-fleet`) or a sweep plus Pareto extraction (`dse-sweep`). The
/// operation median is printed but not listed: on these closed loops and
/// serial operations it is the reciprocal of the throughput.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, emitted by every workload in the traced run.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = vec![("env.step_us".into(), "us")];
    for (prefix, unit) in [
        ("nn.fwd_ms", "ms"),
        ("nn.gmacs", "GMAC/s"),
        ("nn.bwd_ms", "ms"),
        ("accel.model_fwd_ms", "ms"),
        ("accel.model_bwd_ms", "ms"),
    ] {
        c.extend(PARAM_LAYERS.iter().map(|l| (format!("{prefix}.{l}"), unit)));
    }
    let fixed: [(&str, &'static str); 28] = [
        ("nn.sgd_ms", "ms"),
        ("nn.trainable_bytes", "B"),
        ("nn.q88_fwd_ms", "ms"),
        ("nn.q88_snapshot_ms", "ms"),
        ("rl.actor_frac", "ratio"),
        ("rl.env_frac", "ratio"),
        ("rl.learner_frac", "ratio"),
        ("rl.round_ms_p50", "ms"),
        ("rl.round_ms_p99", "ms"),
        ("rl.td_batch_ms", "ms"),
        ("rl.replay_fill_us", "us"),
        ("rl.updates", "count"),
        ("rl.snapshot_refreshes", "count"),
        ("rl.frame_allocs", "count"),
        ("serve.avg_flush", "count"),
        ("serve.engine_ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.publish_us", "us"),
        ("serve.decide_p99_ms", "ms"),
        ("core.platform_us", "us"),
        ("accel.point_us", "us"),
        ("mem.lifetime_us", "us"),
        ("dse.pareto_ms", "ms"),
        ("dse.sweep_serial_ms", "ms"),
        ("dse.sweep_pool_ms", "ms"),
        ("dse.placeable", "count"),
        ("dse.frontier_size", "count"),
        ("trace.overhead_pct", "%"),
    ];
    c.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    c.push(("failed_frac".into(), "ratio"));
    c
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count behind a median or percentile, when it has one.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric with no sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A median or percentile over `n` samples.
    pub fn over(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Self {
            samples: Some(n),
            ..Self::new(name, value, unit)
        }
    }
}

/// Checked operations: how many ran and which failed their output check.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failure kind, for stderr.
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// Counts `n` operations of which `bad` failed, with their reasons.
    pub fn ops(&mut self, n: u64, bad: u64, errors: Vec<String>) {
        self.attempted += n;
        self.failed += bad;
        self.errors.extend(
            errors
                .into_iter()
                .take(16usize.saturating_sub(self.errors.len())),
        );
    }

    /// A whole-run check that is not an operation of its own: a failure
    /// marks one more failed operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the final result line.
pub fn result_json(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Renders provenance pairs as one JSON object.
pub fn provenance_json(p: &[(String, String)]) -> String {
    let body: Vec<String> = p
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The human-readable table: one metric per line with its unit and
/// sample count, plus the workload's own names for the generic ones.
pub fn table(metrics: &[Metric], aliases: &[(&str, String)]) -> String {
    let mut s = String::new();
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let alias = aliases
            .iter()
            .find(|(k, _)| *k == m.name)
            .map_or(String::new(), |(_, a)| format!("  [{a}]"));
        let _ = writeln!(
            s,
            "{:<28} {:>16.6} {:<7}{n}{alias}",
            m.name, m.value, m.unit
        );
    }
    s
}

/// Names emitted but not in `catalog`, and catalog entries not emitted
/// or emitted with another unit.
pub fn catalog_mismatches(metrics: &[Metric], catalog: &[(String, &str)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, unit) in catalog {
        match metrics.iter().find(|m| &m.name == name) {
            None => bad.push(format!("missing {name}")),
            Some(m) if m.unit != *unit => bad.push(format!("{name}: unit {} != {unit}", m.unit)),
            Some(m) if !m.value.is_finite() => bad.push(format!("{name}: not finite")),
            Some(_) => {}
        }
    }
    for m in metrics {
        if !catalog.iter().any(|(n, _)| *n == m.name) {
            bad.push(format!("unlisted {}", m.name));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_have_unique_names() {
        let mut names: Vec<String> = per_layer_catalog().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer_catalog().len() <= 128);
    }

    #[test]
    fn result_line_shape() {
        let mut c = Checks::default();
        c.op(true, String::new);
        let line = result_json(true, &c, &[Metric::new("setup_s", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
