//! `dse-sweep`: repeated pooled design-space sweeps plus Pareto
//! extraction. The cost model has no randomness, so the seed is unused.
//!
//! Checks: the first sweep equals `sweep_serial` point for point and
//! (on the full space) has 2016 points, 1260 placeable, 648 write-free
//! and a frontier of 108; every later sweep and frontier must have the
//! same digest.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mramrl_accel::{Calibration, SystemParams};
use mramrl_core::Platform;
use mramrl_dse::{
    pareto_frontier, sweep, sweep_serial, tech_params, DesignSpace, DseConfig, DseResult,
};
use mramrl_mem::WearTracker;

use crate::layers::repeat;
use crate::report::{Checks, Metric};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Fnv, Window};

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 201;

/// Seconds of sweeping per slice of the window: enough sweeps (≈ 130)
/// for ten beyond the slice's p90.
const SLICE_S: f64 = 2.0;

/// `(points, placeable, write-free, frontier)` of the full space.
const FLEET_COUNTS: (usize, usize, usize, usize) = (2016, 1260, 648, 108);

fn digest(results: &[DseResult], frontier: &[usize]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.u64(r.config.index as u64);
        h.u64(u64::from(r.placeable) << 1 | u64::from(r.nvm_write_free));
        h.f64(r.fps);
        h.f64(r.energy_per_frame_mj);
        h.f64(r.train_latency_ms);
        h.f64(r.nvm_write_bytes_per_s);
        h.f64(r.lifetime_years.unwrap_or(-1.0));
    }
    for &i in frontier {
        h.u64(i as u64);
    }
    h.finish()
}

/// The sweep workload.
pub struct DseBench {
    space: DesignSpace,
    full: bool,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    reference: Option<(u64, Vec<DseResult>, Vec<usize>)>,
    sweep_id: u64,
}

impl DseBench {
    /// Builds the design space and its enumeration `SETUP_REPS` times.
    pub fn new(tiny: bool) -> Self {
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut space = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let s = if tiny {
                DesignSpace::tiny()
            } else {
                DesignSpace::date19_fleet()
            };
            black_box(s.enumerate());
            setup_s.push(t0.elapsed().as_secs_f64());
            space = Some(s);
        }
        Self {
            space: space.expect("at least one set-up"),
            full: !tiny,
            setup_s,
            reference: None,
            sweep_id: 0,
        }
    }

    /// The reference sweep: pooled equals serial, with the pinned counts.
    pub fn check_reference(&mut self, checks: &mut Checks) {
        let results = sweep(&self.space);
        let frontier = pareto_frontier(&results);
        let serial = sweep_serial(&self.space);
        let placeable = results.iter().filter(|r| r.placeable).count();
        let write_free = results.iter().filter(|r| r.nvm_write_free).count();
        let counts = (results.len(), placeable, write_free, frontier.len());
        let counts_ok = if self.full {
            counts == FLEET_COUNTS
        } else {
            counts.0 == self.space.len()
        };
        checks.op(results == serial && counts_ok, || {
            format!(
                "reference sweep: pooled==serial {}, counts {counts:?}",
                results == serial
            )
        });
        self.reference = Some((digest(&results, &frontier), results, frontier));
    }

    /// Sweeps for at least `seconds` (and at least `min_ops` sweeps).
    pub fn window(
        &mut self,
        seconds: f64,
        min_ops: usize,
        mut tracer: Option<&mut Tracer>,
        checks: &mut Checks,
    ) -> Window {
        let want = self.reference.as_ref().expect("reference checked first").0;
        let mut w = Window::default();
        let start = Instant::now();
        while w.ops < min_ops || start.elapsed().as_secs_f64() < seconds {
            let id = self.sweep_id;
            let t0 = Instant::now();
            let (results, frontier) = match tracer.as_deref_mut() {
                Some(t) => {
                    let root = t.open("dse.sweep", id, None);
                    let results = t.span("dse.sweep_pool", id, Some(root), || sweep(&self.space));
                    let frontier =
                        t.span("dse.pareto", id, Some(root), || pareto_frontier(&results));
                    t.close(root);
                    (results, frontier)
                }
                None => {
                    let results = sweep(&self.space);
                    let frontier = pareto_frontier(&results);
                    (results, frontier)
                }
            };
            let dt = t0.elapsed().as_secs_f64();
            w.push_op(SLICE_S, results.len() as f64, dt, &[dt * 1e3]);
            let d = digest(&results, &frontier);
            checks.op(d == want, || {
                format!("sweep {id}: digest {d:016x} != {want:016x}")
            });
            self.sweep_id += 1;
        }
        w.close(SLICE_S);
        w
    }

    /// The cost-model per-layer metrics: each layer's public call timed
    /// over every point of the space, plus the sweep spans of the traced
    /// window.
    pub fn layer_metrics(&self, tracer: &mut Tracer, probe_s: f64) -> Vec<Metric> {
        let (_, results, frontier) = self.reference.as_ref().expect("reference checked first");
        let configs = self.space.enumerate();
        let pass_budget = Duration::from_secs_f64(probe_s / 4.0);

        let platform = |c: &DseConfig| {
            let mut params = SystemParams::date19();
            params.mram = tech_params(c.tech);
            Platform::with_system(
                c.topology,
                c.sram_mb,
                c.mram_mb,
                params,
                Calibration::date19(),
            )
        };
        let per_point = |tracer: &mut Tracer, name: &str, points: usize, f: &mut dyn FnMut()| {
            repeat(pass_budget, 3, |pass| {
                tracer.span(name, pass, None, &mut *f)
            });
            let d = tracer.durations(name);
            (median(&d) / 1e3 / points.max(1) as f64, d.len())
        };

        let (platform_us, n_platform) =
            per_point(tracer, "core.platform", configs.len(), &mut || {
                for c in &configs {
                    black_box(platform(c).is_ok());
                }
            });
        let placed: Vec<(DseConfig, Platform)> = configs
            .iter()
            .filter_map(|c| platform(c).ok().map(|p| (*c, p)))
            .collect();
        let (point_us, n_point) = per_point(tracer, "accel.point", placed.len(), &mut || {
            for (c, p) in &placed {
                black_box(p.max_fps(c.batch));
                black_box(p.energy_per_frame_mj(c.batch));
                black_box(p.model().per_image(c.topology));
            }
        });
        let worn: Vec<&DseResult> = results
            .iter()
            .filter(|r| r.lifetime_years.is_some())
            .collect();
        let (lifetime_us, n_life) = per_point(tracer, "mem.lifetime", worn.len(), &mut || {
            for r in &worn {
                let t = WearTracker::new(
                    tech_params(r.config.tech),
                    (r.config.mram_mb * 1.0e6) as u64,
                );
                black_box(t.lifetime_years(r.nvm_write_bytes_per_s));
            }
        });
        repeat(pass_budget, 3, |i| {
            tracer.span("dse.sweep_serial", i, None, || {
                black_box(sweep_serial(&self.space))
            });
        });
        let ms_of = |name: &str| {
            let d = tracer.durations(name);
            (median(&d) / 1e6, d.len())
        };
        let (serial_ms, n_serial) = ms_of("dse.sweep_serial");
        let (pool_ms, n_pool) = ms_of("dse.sweep_pool");
        let (pareto_ms, n_pareto) = ms_of("dse.pareto");
        vec![
            Metric::over("core.platform_us", platform_us, "us", n_platform),
            Metric::over("accel.point_us", point_us, "us", n_point),
            Metric::over("mem.lifetime_us", lifetime_us, "us", n_life),
            Metric::over("dse.pareto_ms", pareto_ms, "ms", n_pareto),
            Metric::over("dse.sweep_serial_ms", serial_ms, "ms", n_serial),
            Metric::over("dse.sweep_pool_ms", pool_ms, "ms", n_pool),
            Metric::new(
                "dse.placeable",
                results.iter().filter(|r| r.placeable).count() as f64,
                "count",
            ),
            Metric::new("dse.frontier_size", frontier.len() as f64, "count"),
        ]
    }

    /// Median set-up time, s.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}
