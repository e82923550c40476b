//! `serve-fleet`: closed-loop drones against the dynamic-batching
//! `Service`.
//!
//! Each client thread is one drone: it sends its current depth frame,
//! blocks on the decision, flies that action in its own seeded world and
//! only then sends the next frame. Client 0 also publishes a new snapshot
//! generation every `publish_every` of its decisions, alternating two
//! prebuilt Q8.8 nets the way `LearnerPublisher` swaps in fresh ones.
//! Checks: every decision carries its drone's id, no client ever sees a
//! generation go backward, and a fixed sample of decisions equals a
//! batch-of-1 `decide_batch` on the net of the same generation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mramrl_env::{Action, DepthCamera, DroneEnv, EnvKind};
use mramrl_nn::{NetworkSpec, QWorkspace, QuantizedNet, Tensor};
use mramrl_serve::{decide_batch, ObsRequest, ServeConfig, Service, SnapshotStore};

use crate::layers::repeat;
use crate::report::{Checks, Metric};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::train::frame;
use crate::workload::{Slice, Window};

/// Seconds of wall-clock time per slice of the window (≈ 170 decisions,
/// over ten beyond the slice's p90).
const SLICE_S: f64 = 0.5;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;

/// One serving configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// The served net.
    pub spec: NetworkSpec,
    /// Closed-loop drone clients.
    pub clients: usize,
    /// Client 0 publishes after every this many of its decisions.
    pub publish_every: u64,
    /// Every this many decisions of a client is re-checked at batch 1.
    pub sample_every: u64,
}

impl ServeCfg {
    /// Two drones on the Fig. 3(a)-proportioned net.
    pub fn fleet(tiny: bool) -> Self {
        Self {
            spec: if tiny {
                mramrl_bench::batch_td_spec_tiny()
            } else {
                mramrl_bench::batch_td_spec()
            },
            clients: 2,
            publish_every: 64,
            sample_every: 16,
        }
    }
}

/// One drone's persistent state.
struct Drone {
    id: u64,
    env: DroneEnv,
    obs: Tensor,
    last_gen: u64,
    decisions: u64,
}

/// What one client thread brings back from a window.
struct ClientOut {
    /// `(completion time since the window opened, latency)`, s and ms.
    done: Vec<(f64, f64)>,
    samples: Vec<(u64, Tensor, u64, usize)>,
    publish_us: Vec<f64>,
    errors: Vec<String>,
    bad: u64,
    tracer: Option<Tracer>,
}

/// The serving workload.
pub struct ServeBench {
    cfg: ServeCfg,
    nets: [Arc<QuantizedNet>; 2],
    service: Option<Service>,
    drones: Vec<Drone>,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    publishes: u64,
    publish_us: Vec<f64>,
    samples: Vec<(u64, Tensor, u64, usize)>,
    sent: u64,
    window_stats: (u64, u64),
}

impl ServeBench {
    /// Builds the two snapshot nets, the service and the drones,
    /// `SETUP_REPS` times; keeps the last.
    pub fn new(cfg: ServeCfg, seed: u64) -> Self {
        let mut setup_s = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let built = Self::build(&cfg, seed);
            setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(built);
        }
        let (nets, service, drones) = last.expect("at least one set-up");
        Self {
            cfg,
            nets,
            service: Some(service),
            drones,
            setup_s,
            publishes: 0,
            publish_us: Vec::new(),
            samples: Vec::new(),
            sent: 0,
            window_stats: (0, 0),
        }
    }

    #[allow(clippy::type_complexity)]
    fn build(cfg: &ServeCfg, seed: u64) -> ([Arc<QuantizedNet>; 2], Service, Vec<Drone>) {
        let snap = |s: u64| {
            let net = cfg.spec.build(s);
            Arc::new(QuantizedNet::from_network(&cfg.spec, &net).expect("spec-built net snapshots"))
        };
        let nets = [snap(seed), snap(seed.wrapping_add(1))];
        let service = Service::spawn(
            Arc::new(SnapshotStore::new(Arc::clone(&nets[0]))),
            ServeConfig::default(),
        );
        let hw = cfg.spec.input_shape[1];
        let drones = (0..cfg.clients as u64)
            .map(|id| {
                let mut env = DroneEnv::new(EnvKind::IndoorApartment, seed.wrapping_add(1000 + id))
                    .with_camera(DepthCamera::new(hw, hw, 90f32.to_radians(), 20.0, 0.02));
                let obs = frame(&env.reset());
                Drone {
                    id,
                    env,
                    obs,
                    last_gen: 0,
                    decisions: 0,
                }
            })
            .collect();
        (nets, service, drones)
    }

    /// Drives the closed loop for `seconds` of wall-clock time.
    pub fn window(
        &mut self,
        seconds: f64,
        mut traced: Option<&mut Tracer>,
        checks: &mut Checks,
    ) -> Window {
        let service = self.service.as_ref().expect("service live");
        let before = service.stats();
        let epoch = traced.as_ref().map(|t| t.epoch());
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let cfg = &self.cfg;
        let nets = &self.nets;
        let publishes = &mut self.publishes;
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            let mut publishes = Some(publishes);
            for drone in self.drones.iter_mut() {
                let client = service.client();
                let store = Arc::clone(service.store());
                let publisher = if drone.id == 0 {
                    publishes.take()
                } else {
                    None
                };
                handles.push(s.spawn(move || {
                    let mut out = ClientOut {
                        done: Vec::new(),
                        samples: Vec::new(),
                        publish_us: Vec::new(),
                        errors: Vec::new(),
                        bad: 0,
                        tracer: epoch.map(Tracer::new),
                    };
                    let mut publisher = publisher;
                    while Instant::now() < deadline {
                        let req = drone.decisions;
                        let span = out
                            .tracer
                            .as_mut()
                            .map(|t| t.open("serve.decide", drone.id << 32 | req, None));
                        let t0 = Instant::now();
                        let d = client.decide(drone.id, drone.obs.clone());
                        let end = Instant::now();
                        out.done
                            .push(((end - start).as_secs_f64(), (end - t0).as_secs_f64() * 1e3));
                        if let (Some(t), Some(i)) = (out.tracer.as_mut(), span) {
                            t.close(i);
                        }
                        if d.drone_id != drone.id
                            || d.generation < drone.last_gen
                            || d.action >= Action::COUNT
                        {
                            out.bad += 1;
                            out.errors.push(format!(
                                "drone {} got {d:?} after generation {}",
                                drone.id, drone.last_gen
                            ));
                        }
                        drone.last_gen = d.generation;
                        if req % cfg.sample_every == 0 {
                            out.samples
                                .push((drone.id, drone.obs.clone(), d.generation, d.action));
                        }
                        let step = drone.env.step(Action::from_index(d.action));
                        drone.obs = if step.crashed {
                            frame(&drone.env.reset())
                        } else {
                            frame(&step.observation)
                        };
                        drone.decisions += 1;
                        if let Some(p) = publisher.as_deref_mut() {
                            if drone.decisions % cfg.publish_every == 0 {
                                let next = Arc::clone(&nets[((*p + 1) % 2) as usize]);
                                let span = out
                                    .tracer
                                    .as_mut()
                                    .map(|t| t.open("serve.publish", *p + 1, None));
                                let t0 = Instant::now();
                                let generation = store.publish(next);
                                out.publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
                                if let (Some(t), Some(i)) = (out.tracer.as_mut(), span) {
                                    t.close(i);
                                }
                                *p += 1;
                                if generation != *p {
                                    out.bad += 1;
                                    out.errors.push(format!(
                                        "publish returned {generation}, expected {p}"
                                    ));
                                }
                            }
                        }
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let after = service.stats();
        self.window_stats = (
            after.requests - before.requests,
            after.batches - before.batches,
        );

        let mut done = Vec::new();
        for out in outs {
            self.sent += out.done.len() as u64;
            checks.ops(out.done.len() as u64, out.bad, out.errors);
            done.extend(out.done);
            self.samples.extend(out.samples);
            self.publish_us.extend(out.publish_us);
            if let (Some(t), Some(o)) = (traced.as_deref_mut(), out.tracer) {
                t.absorb(o);
            }
        }
        // Slices of wall-clock time, by completion: a slice's throughput
        // is its decisions over the time from the previous slice's last
        // completion to its own last one.
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut w = Window::default();
        let mut prev_end = 0.0;
        for (end, lat) in done {
            let slice = (end / SLICE_S) as usize;
            if w.slices.len() <= slice {
                if let Some(last) = w.slices.last() {
                    prev_end += last.busy_s;
                }
                w.slices.resize(slice + 1, Slice::default());
            }
            let s = &mut w.slices[slice];
            s.busy_s = end - prev_end;
            w.push_into(slice, 1.0, lat);
        }
        w.slices.retain(|s| !s.op_ms.is_empty());
        w.close(SLICE_S);
        checks.require(self.window_stats.0 == w.ops as u64, || {
            format!(
                "service counted {} requests, clients sent {}",
                self.window_stats.0, w.ops
            )
        });
        w
    }

    /// Re-decides every sampled request alone on the net of its
    /// generation; each mismatch is one failed operation.
    pub fn check_samples(&mut self, checks: &mut Checks) {
        let mut ws = QWorkspace::new();
        for (drone_id, obs, generation, action) in self.samples.drain(..) {
            let net = &self.nets[(generation % 2) as usize];
            let req = [ObsRequest { drone_id, obs }];
            let d = decide_batch(net, generation, &req, &mut ws)[0];
            checks.require(d.action == action && d.drone_id == drone_id, || {
                format!(
                    "drone {drone_id} generation {generation}: served action {action}, batch-of-1 {}",
                    d.action
                )
            });
        }
    }

    /// Mean flush size (requests per engine pass) of the last window.
    pub fn flush_size(&self) -> f64 {
        self.window_stats.0 as f64 / self.window_stats.1.max(1) as f64
    }

    /// The serve.* per-layer metrics from the last (traced) window, plus
    /// `decide_batch` timed alone at the observed flush size.
    pub fn layer_metrics(&self, w: &Window, tracer: &mut Tracer, probe_s: f64) -> Vec<Metric> {
        let flush = self.flush_size();
        let batch = (flush.round() as usize).max(1);
        let reqs: Vec<ObsRequest> = (0..batch)
            .map(|i| ObsRequest {
                drone_id: i as u64,
                obs: self.drones[i % self.drones.len()].obs.clone(),
            })
            .collect();
        let (net, generation) = (&self.nets[0], 0);
        let mut ws = QWorkspace::new();
        decide_batch(net, generation, &reqs, &mut ws);
        repeat(Duration::from_secs_f64(probe_s), 16, |i| {
            tracer.span("serve.engine", i, None, || {
                decide_batch(net, generation, &reqs, &mut ws)
            });
        });
        let engine = tracer.durations("serve.engine");
        let engine_ms = median(&engine) / 1e6;
        let mut publish_us = self.publish_us.clone();
        if publish_us.is_empty() {
            // A window too short to reach the cadence: time the same swap
            // on a store no client reads.
            let store = SnapshotStore::new(Arc::clone(&self.nets[0]));
            for i in 0..16u64 {
                let t0 = Instant::now();
                store.publish(Arc::clone(&self.nets[(i as usize + 1) % 2]));
                publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let lat = w.op_ms();
        let p50 = percentile(&lat, 50.0);
        vec![
            Metric::new("serve.avg_flush", flush, "count"),
            Metric::over("serve.engine_ms", engine_ms, "ms", engine.len()),
            Metric::over("serve.wait_ms", p50 - engine_ms, "ms", lat.len()),
            Metric::over(
                "serve.publish_us",
                median(&publish_us),
                "us",
                publish_us.len(),
            ),
            Metric::over(
                "serve.decide_p99_ms",
                percentile(&lat, 99.0),
                "ms",
                lat.len(),
            ),
        ]
    }

    /// Median set-up time, s.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Stops the service once every client is gone; its request count
    /// must match what the clients sent.
    pub fn shutdown(&mut self, checks: &mut Checks) {
        if let Some(service) = self.service.take() {
            let stats = service.shutdown();
            checks.require(stats.requests == self.sent, || {
                format!(
                    "service answered {} requests, clients sent {}",
                    stats.requests, self.sent
                )
            });
        }
    }
}
