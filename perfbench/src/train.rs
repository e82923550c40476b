//! `train-e2e` and `train-l4-q8`: repeated `Trainer::run_parallel`
//! runs of one seeded configuration.
//!
//! Every operation builds the agent and fleets from the seed (timed as
//! set-up), trains for a fixed number of transitions (timed), and
//! checks the result: transition and update counts, finite weights, and
//! a digest of the curve, final weights and exact counters that must
//! repeat on every run of the seed. The round clock is a benchmark-owned
//! `LearnerHook`; one extra unhooked run at the end must give the same
//! digest.

use std::time::{Duration, Instant};

use mramrl_env::{Action, DepthCamera, DroneEnv, EnvKind, VecEnv};
use mramrl_nn::{NetworkSpec, Topology};
use mramrl_rl::{
    ActingPrecision, LearnerHook, ParallelStats, QAgent, ShardedReplay, TrainLog, Trainer,
    TrainerConfig, Transition, TransitionBatch,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::layers::repeat;
use crate::report::{Checks, Metric};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Fnv, Window};

/// One training configuration.
#[derive(Debug, Clone)]
pub struct TrainCfg {
    /// The trained net.
    pub spec: NetworkSpec,
    /// Which layers learn online.
    pub topology: Topology,
    /// The actors' datapath.
    pub acting: ActingPrecision,
    /// Transitions per operation (one `run_parallel` call).
    pub iters: u64,
    /// Rollout fleets.
    pub fleets: usize,
    /// Lanes per fleet.
    pub lanes: usize,
}

impl TrainCfg {
    /// The paper's baseline: every layer learns, float acting.
    pub fn e2e(tiny: bool) -> Self {
        Self {
            spec: NetworkSpec::micro(if tiny { 16 } else { 40 }, 1, 5),
            topology: Topology::E2E,
            acting: ActingPrecision::Float32,
            iters: if tiny { 64 } else { 1024 },
            fleets: 2,
            lanes: 4,
        }
    }

    /// The paper's design: FC2–FC5 learn, actors on the Q8.8 datapath.
    pub fn l4_q8(tiny: bool) -> Self {
        Self {
            topology: Topology::L4,
            acting: ActingPrecision::FixedQ8_8,
            ..Self::e2e(tiny)
        }
    }

    fn trainer(&self, seed: u64) -> Trainer {
        let mut c = TrainerConfig::online(self.iters, seed);
        c.num_envs = self.lanes;
        c.actor_precision = self.acting;
        Trainer::new(c)
    }

    /// Environment lanes over all fleets.
    pub fn total_lanes(&self) -> usize {
        self.fleets * self.lanes
    }

    fn rounds(&self) -> u64 {
        self.iters.div_ceil(self.total_lanes() as u64)
    }

    /// `(updates, snapshot refreshes)` a run must show, replaying the
    /// trainer's schedule: the first learner phase is empty, every later
    /// one (and the trailing one) adds one transition per lane, an update
    /// fires once `batch_size` have accumulated, and Q8.8 actors
    /// re-snapshot every `snapshot_refresh` updates at the phase boundary
    /// inside the loop.
    fn expected_counts(&self, tcfg: &TrainerConfig) -> (u64, u64) {
        let (mut acc, mut updates, mut last, mut refreshes) = (0usize, 0u64, 0u64, 0u64);
        let learn = |acc: &mut usize, updates: &mut u64| {
            *acc += self.total_lanes();
            if *acc >= tcfg.batch_size {
                *acc = 0;
                *updates += 1;
            }
        };
        for round in 0..self.rounds() {
            if round > 0 {
                learn(&mut acc, &mut updates);
            }
            if self.acting == ActingPrecision::FixedQ8_8 && updates - last >= tcfg.snapshot_refresh
            {
                last = updates;
                refreshes += 1;
            }
        }
        learn(&mut acc, &mut updates);
        (updates, refreshes)
    }

    /// A fresh agent with this configuration's trainable tail.
    pub fn agent(&self, seed: u64) -> QAgent {
        let mut agent = QAgent::new(&self.spec, seed);
        self.topology.apply(agent.net_mut());
        agent
    }

    /// The trainer's fleets; the smoke-scale net gets the same worlds
    /// behind a camera of its input size.
    pub fn fleets(&self, seed: u64) -> Vec<VecEnv> {
        let hw = self.spec.input_shape[1];
        if hw == DepthCamera::date19().width() {
            return self
                .trainer(seed)
                .build_fleets(EnvKind::IndoorApartment, self.fleets);
        }
        let envs = (0..self.total_lanes() as u64)
            .map(|i| {
                DroneEnv::new(EnvKind::IndoorApartment, seed.wrapping_add(i))
                    .with_camera(DepthCamera::new(hw, hw, 90f32.to_radians(), 20.0, 0.02))
            })
            .collect();
        VecEnv::from_envs(envs).split(self.fleets)
    }

    /// The fleets' lanes as one `VecEnv`, for the layer probes.
    pub fn lanes(&self, seed: u64) -> VecEnv {
        VecEnv::from_envs(
            self.fleets(seed)
                .into_iter()
                .flat_map(|f| f.envs().to_vec())
                .collect(),
        )
    }
}

/// Round clock: a `LearnerHook` that timestamps every learner-phase
/// boundary and, when tracing, records one `rl.round` span per round
/// under the run's span.
struct RoundClock<'t> {
    last: Instant,
    rounds_ms: Vec<f64>,
    tracer: Option<(&'t mut Tracer, usize, u64)>,
}

impl LearnerHook for RoundClock<'_> {
    fn on_target_sync(&mut self, _agent: &mut QAgent, updates: u64) {
        if let Some((t, run, _)) = self.tracer.as_mut() {
            let now = t.now_ns();
            t.record("rl.target_sync", updates, Some(*run), now, now);
        }
    }

    fn on_round(&mut self, _updates: u64) {
        let now = Instant::now();
        let dur = now - self.last;
        self.rounds_ms.push(dur.as_secs_f64() * 1e3);
        if let Some((t, run, next_id)) = self.tracer.as_mut() {
            let end = (now - t.epoch()).as_nanos() as u64;
            t.record(
                "rl.round",
                *next_id,
                Some(*run),
                end - dur.as_nanos() as u64,
                end,
            );
            *next_id += 1;
        }
        self.last = now;
    }
}

/// Everything a run's check compares across repeats.
fn digest(log: &TrainLog, agent: &QAgent, stats: Option<&ParallelStats>) -> (u64, bool) {
    let mut h = Fnv::new();
    for p in &log.curve {
        h.u64(p.iter);
        h.f32(p.cumulative_reward);
        h.f32(p.avg_return);
    }
    h.u64(log.episodes);
    h.f32(log.sfd);
    h.f32(log.final_reward);
    let mut finite = true;
    for layer in agent.net().layers() {
        for p in layer.params() {
            for &w in p.value.data() {
                finite &= w.is_finite();
                h.f32(w);
            }
        }
    }
    if let Some(s) = stats {
        h.u64(s.updates);
        h.u64(s.snapshot_refreshes);
        h.u64(s.frame_allocs);
    }
    (h.finish(), finite)
}

/// Counters of one run, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSum {
    actor_ns: u64,
    env_ns: u64,
    learner_ns: u64,
}

/// A training workload: its configuration, set-up samples and checks.
pub struct TrainBench {
    cfg: TrainCfg,
    seed: u64,
    next: Option<(QAgent, Vec<VecEnv>)>,
    reference: Option<(u64, u64, ParallelStats)>,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    phases: PhaseSum,
    run_id: u64,
    round_id: u64,
}

impl TrainBench {
    /// Builds the first agent and fleets (timed set-up).
    pub fn new(cfg: TrainCfg, seed: u64) -> Self {
        let mut b = Self {
            cfg,
            seed,
            next: None,
            reference: None,
            setup_s: Vec::new(),
            phases: PhaseSum::default(),
            run_id: 0,
            round_id: 0,
        };
        b.prepare();
        b
    }

    fn prepare(&mut self) {
        let t0 = Instant::now();
        let agent = self.cfg.agent(self.seed);
        let fleets = self.cfg.fleets(self.seed);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.next = Some((agent, fleets));
    }

    /// Runs training operations for at least `seconds` (and at least
    /// `min_ops`), checking each.
    pub fn window(
        &mut self,
        seconds: f64,
        min_ops: usize,
        mut tracer: Option<&mut Tracer>,
        checks: &mut Checks,
    ) -> Window {
        let trainer = self.cfg.trainer(self.seed);
        let tcfg = *trainer.config();
        let mut w = Window::default();
        let start = Instant::now();
        while w.ops < min_ops || start.elapsed().as_secs_f64() < seconds {
            let (mut agent, mut fleets) = self.next.take().expect("prepared");
            let run_span = tracer
                .as_deref_mut()
                .map(|t| t.open("rl.run", self.run_id, None));
            let (log, stats, busy, rounds_ms) = {
                let mut clock = RoundClock {
                    last: Instant::now(),
                    rounds_ms: Vec::with_capacity(self.cfg.rounds() as usize + 1),
                    tracer: match (tracer.as_deref_mut(), run_span) {
                        (Some(t), Some(r)) => Some((t, r, self.round_id)),
                        _ => None,
                    },
                };
                let t0 = Instant::now();
                let (log, stats) = trainer.run_parallel_timed(&mut agent, &mut fleets, &mut clock);
                let busy = t0.elapsed().as_secs_f64();

                if let Some((_, _, next_id)) = clock.tracer {
                    self.round_id = next_id;
                }
                (log, stats, busy, clock.rounds_ms)
            };
            if let (Some(t), Some(r)) = (tracer.as_deref_mut(), run_span) {
                t.close(r);
            }
            self.run_id += 1;
            // One slice per run.
            w.push_op(0.0, stats.transitions as f64, busy, &rounds_ms);
            self.phases.actor_ns += stats.actor_ns;
            self.phases.env_ns += stats.env_ns;
            self.phases.learner_ns += stats.learner_ns;

            let (d, finite) = digest(&log, &agent, Some(&stats));
            let want_t = self.cfg.rounds() * self.cfg.total_lanes() as u64;
            let (want_u, want_r) = self.cfg.expected_counts(&tcfg);
            let (ref_d, _, _) =
                *self
                    .reference
                    .get_or_insert((d, digest(&log, &agent, None).0, stats));
            checks.op(
                stats.transitions == want_t
                    && stats.updates == want_u
                    && stats.snapshot_refreshes == want_r
                    && finite
                    && d == ref_d,
                || {
                    format!(
                        "train run {}: transitions {}/{want_t}, updates {}/{want_u}, refreshes {}/{want_r}, finite {finite}, digest {d:016x} vs {ref_d:016x}",
                        self.run_id, stats.transitions, stats.updates, stats.snapshot_refreshes
                    )
                },
            );
            self.prepare();
        }
        w
    }

    /// The hooked-equals-unhooked check: one plain `run_parallel` of the
    /// same seed must reproduce the reference curve and weights.
    pub fn check_unhooked(&mut self, checks: &mut Checks) {
        let (mut agent, mut fleets) = self.next.take().expect("prepared");
        let log = self
            .cfg
            .trainer(self.seed)
            .run_parallel(&mut agent, &mut fleets);
        let (d, finite) = digest(&log, &agent, None);
        let want = self.reference.map(|r| r.1);
        checks.require(finite && Some(d) == want, || {
            format!("unhooked run digest {d:016x} differs from hooked {want:x?}")
        });
        self.prepare();
    }

    /// The rl.* per-layer metrics: phase split, round spans, exact
    /// counters, and the learner's TD-batch and replay-fill calls timed
    /// from here.
    pub fn layer_metrics(&self, tracer: &mut Tracer, probe_s: f64) -> Vec<Metric> {
        let p = self.phases;
        let total = (p.actor_ns + p.env_ns + p.learner_ns).max(1) as f64;
        let rounds: Vec<f64> = tracer
            .durations("rl.round")
            .iter()
            .map(|&ns| ns / 1e6)
            .collect();
        let reference = self.reference.map(|r| r.2).unwrap_or_default();
        let mut m = vec![
            Metric::new("rl.actor_frac", p.actor_ns as f64 / total, "ratio"),
            Metric::new("rl.env_frac", p.env_ns as f64 / total, "ratio"),
            Metric::new("rl.learner_frac", p.learner_ns as f64 / total, "ratio"),
            Metric::over(
                "rl.round_ms_p50",
                percentile(&rounds, 50.0),
                "ms",
                rounds.len(),
            ),
            Metric::over(
                "rl.round_ms_p99",
                percentile(&rounds, 99.0),
                "ms",
                rounds.len(),
            ),
            Metric::new("rl.updates", reference.updates as f64, "count"),
            Metric::new(
                "rl.snapshot_refreshes",
                reference.snapshot_refreshes as f64,
                "count",
            ),
            Metric::new("rl.frame_allocs", reference.frame_allocs as f64, "count"),
        ];
        m.extend(self.learner_probes(tracer, probe_s));
        m
    }

    /// Times `accumulate_td_batch` and `sample_indices` + `fill_batch`
    /// at the learner's batch (one transition per lane) on real frames.
    fn learner_probes(&self, tracer: &mut Tracer, probe_s: f64) -> Vec<Metric> {
        let lanes = self.cfg.total_lanes();
        let mut venv = self.cfg.lanes(self.seed);
        let mut prev: Vec<std::sync::Arc<mramrl_nn::Tensor>> = venv
            .reset_all()
            .iter()
            .map(|img| std::sync::Arc::new(frame(img)))
            .collect();
        let hw = self.cfg.spec.input_shape[1];
        let mut replay = ShardedReplay::for_fleets(2048, self.cfg.fleets, self.cfg.lanes);
        for round in 0..64usize {
            let actions: Vec<Action> = (0..lanes)
                .map(|l| Action::from_index((round + l) % Action::COUNT))
                .collect();
            let steps = venv.step(&actions);
            for (lane, s) in steps.iter().enumerate() {
                let next = std::sync::Arc::new(frame(&s.observation));
                let t = Transition {
                    state: std::mem::replace(&mut prev[lane], next.clone()),
                    action: actions[lane].index(),
                    reward: s.reward,
                    next_state: next,
                    terminal: s.crashed,
                };
                replay.push(lane / self.cfg.lanes, t);
                if s.crashed {
                    prev[lane] = std::sync::Arc::new(frame(&venv.reset(lane)));
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut idx = Vec::with_capacity(lanes);
        let mut batch = TransitionBatch::zeros(lanes, &[1, hw, hw]);
        let budget = Duration::from_secs_f64(probe_s / 2.0);
        repeat(budget, 32, |i| {
            tracer.span("rl.replay_fill", i, None, || {
                replay.sample_indices(&mut rng, lanes, &mut idx);
                replay.fill_batch(&idx, &mut batch);
            });
        });
        let mut agent = self.cfg.agent(self.seed);
        repeat(budget, 8, |i| {
            replay.sample_indices(&mut rng, lanes, &mut idx);
            replay.fill_batch(&idx, &mut batch);
            tracer.span("rl.td_batch", i, None, || agent.accumulate_td_batch(&batch));
            agent.net_mut().zero_grads();
        });
        let fill = tracer.durations("rl.replay_fill");
        let td = tracer.durations("rl.td_batch");
        vec![
            Metric::over("rl.td_batch_ms", median(&td) / 1e6, "ms", td.len()),
            Metric::over("rl.replay_fill_us", median(&fill) / 1e3, "us", fill.len()),
        ]
    }

    /// Median set-up time, s.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// A depth image as a `[1, H, W]` network input.
pub fn frame(img: &mramrl_env::Image) -> mramrl_nn::Tensor {
    mramrl_nn::Tensor::from_vec(&[1, img.height(), img.width()], img.data().to_vec())
}
