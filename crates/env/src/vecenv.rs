//! Vectorized environments: K independent drones stepped together.
//!
//! The batched training path (`mramrl_rl::Trainer::run_vec`) wants one
//! observation *batch* per network pass instead of one image. [`VecEnv`]
//! provides the environment half of that: `K` independently-seeded
//! [`DroneEnv`]s — separate worlds, separate noise streams — stepped in
//! lockstep. Each lane is **bit-identical** to a serial `DroneEnv`
//! constructed with the same seed: `VecEnv` adds no coupling between
//! lanes, it only fans calls out (the trajectory-equivalence tests pin
//! this).
//!
//! The fan-out is parallel: with more than one executor on the current
//! [`mramrl_nn::pool`], [`VecEnv::step`] and [`VecEnv::reset_all`]
//! scatter contiguous lane chunks across the persistent workers (each
//! lane's ray-cast render is independent work). Lanes own their RNGs and
//! their result slots, so the trajectories stay bit-identical to the
//! serial sweep at any `NN_POOL_THREADS`.

use crate::drone::Action;
use crate::episode::{DroneEnv, StepResult};
use crate::scenario::ScenarioSpec;
use crate::worlds::EnvKind;
use crate::Image;

/// `K` independently-seeded [`DroneEnv`]s stepped together.
///
/// Lane `i` is seeded `base_seed + i` (wrapping), so a `VecEnv` of one
/// lane reproduces `DroneEnv::new(kind, base_seed)` exactly.
///
/// # Examples
///
/// ```
/// use mramrl_env::{VecEnv, EnvKind, Action};
///
/// let mut venv = VecEnv::new(EnvKind::IndoorApartment, 7, 4);
/// let obs = venv.reset_all();
/// assert_eq!(obs.len(), 4);
/// let results = venv.step(&[Action::Forward; 4]);
/// assert_eq!(results.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct VecEnv {
    envs: Vec<DroneEnv>,
}

impl VecEnv {
    /// Builds `k` lanes of `kind`, lane `i` seeded
    /// `base_seed.wrapping_add(i)` — wrapping, so lane seeding stays
    /// well-defined (and equal to a serial env seeded the same way)
    /// even when `base_seed` sits within `k` of `u64::MAX`.
    ///
    /// **Seed-derivation rule.** The per-lane seed is the *single*
    /// entropy source for everything that varies in that lane: world
    /// layout and mover placement, spawn-heading jitter, depth-sensor
    /// noise, pixel dropout and the wind gust stream all derive from it
    /// (the sensor axes through one [`crate::DepthCamera::noise_rng`]
    /// stream per lane, consumed in a fixed per-step order). That is
    /// what makes lane `i` bit-identical to a serial env seeded
    /// `base + i` even with every degradation axis enabled — see
    /// `docs/scenarios.md` for the full contract.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(kind: EnvKind, base_seed: u64, k: usize) -> Self {
        assert!(k > 0, "vec env needs at least one lane");
        Self {
            envs: (0..k)
                .map(|i| DroneEnv::new(kind, base_seed.wrapping_add(i as u64)))
                .collect(),
        }
    }

    /// Builds `k` lanes of one scenario: lane `i` is
    /// [`DroneEnv::from_spec`] with seed `spec.lane_seed(i)` — the same
    /// `wrapping_add` rule as [`VecEnv::new`], so the lane-vs-serial
    /// bit-identity contract extends unchanged to scenarios with
    /// movers, dropout and wind.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn from_spec(spec: &ScenarioSpec, k: usize) -> Self {
        assert!(k > 0, "vec env needs at least one lane");
        Self {
            envs: (0..k)
                .map(|i| DroneEnv::from_spec(spec, spec.lane_seed(i)))
                .collect(),
        }
    }

    /// Wraps pre-built environments (mixed kinds/cameras allowed).
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub fn from_envs(envs: Vec<DroneEnv>) -> Self {
        assert!(!envs.is_empty(), "vec env needs at least one lane");
        Self { envs }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// `false` always (construction forbids zero lanes).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Lane `i`, read-only.
    pub fn env(&self, i: usize) -> &DroneEnv {
        &self.envs[i]
    }

    /// All lanes, read-only.
    pub fn envs(&self) -> &[DroneEnv] {
        &self.envs
    }

    /// Resets every lane, returning the first observations in lane order
    /// (lane chunks render in parallel on the current pool; each lane's
    /// observation is bit-identical to its serial `reset`).
    pub fn reset_all(&mut self) -> Vec<Image> {
        fan_out_lanes(&mut self.envs, &|_, env| env.reset())
    }

    /// Resets one lane (after its crash), returning its observation.
    pub fn reset(&mut self, i: usize) -> Image {
        self.envs[i].reset()
    }

    /// Steps every lane with its own action — a pure fan-out, no
    /// auto-reset: lane `i`'s result is exactly
    /// `self.env(i).step(actions[i])`, and crashed lanes wait for an
    /// explicit [`VecEnv::reset`] (the caller records the crash
    /// transition first).
    ///
    /// With more than one pool executor, contiguous lane chunks step in
    /// parallel on the persistent [`mramrl_nn::pool`]. Lanes share
    /// nothing (own world, own RNG, own result slot), so the results are
    /// bit-identical to the serial sweep — the pooled-equivalence tests
    /// pin this per trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len()` differs from the lane count.
    pub fn step(&mut self, actions: &[Action]) -> Vec<StepResult> {
        assert_eq!(actions.len(), self.envs.len(), "one action per lane");
        fan_out_lanes(&mut self.envs, &|i, env| env.step(actions[i]))
    }

    /// Metres flown in lane `i`'s current episode.
    pub fn episode_distance(&self, i: usize) -> f32 {
        self.envs[i].episode_distance()
    }

    /// Completed episodes (crashes) summed over all lanes.
    pub fn total_episodes(&self) -> u64 {
        self.envs.iter().map(DroneEnv::episodes).sum()
    }

    /// Splits the lanes into `n` equal fleets, preserving lane order
    /// (fleet `f` gets lanes `f·(k/n) .. (f+1)·(k/n)`). This is the
    /// canonical fleet constructor for the actor/learner trainer: build
    /// one flat-seeded `VecEnv` of `n·k` lanes with [`VecEnv::new`] or
    /// [`VecEnv::from_spec`] (so the global lane → seed rule stays the
    /// single `wrapping_add` contract), then split it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not divide the lane count.
    pub fn split(mut self, n: usize) -> Vec<VecEnv> {
        assert!(
            n > 0 && self.envs.len() % n == 0,
            "cannot split {} lanes into {n} equal fleets",
            self.envs.len()
        );
        let per = self.envs.len() / n;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let rest = self.envs.split_off(per);
            out.push(VecEnv {
                envs: core::mem::replace(&mut self.envs, rest),
            });
        }
        out
    }
}

/// Steps every lane of every fleet in one pooled fan-out: `actions` is
/// flat fleet-major (fleet 0's lanes, then fleet 1's, ...), and the
/// results come back in the same order — result `f·k + j` is exactly
/// `fleets[f].env(j).step(actions[f·k + j])`.
///
/// This is the actor half of `mramrl_rl::Trainer::run_parallel`: one
/// scatter over **all** `N·K` lanes beats `N` separate
/// [`VecEnv::step`] calls because the pool chunks the whole fleet set
/// instead of re-synchronising at each fleet boundary. Lanes still
/// share nothing, so the trajectories are bit-identical to stepping
/// each fleet (or each lane) serially, at any pool size.
///
/// # Panics
///
/// Panics if `actions.len()` differs from the total lane count.
pub fn step_fleets(fleets: &mut [VecEnv], actions: &[Action]) -> Vec<StepResult> {
    let total: usize = fleets.iter().map(VecEnv::len).sum();
    assert_eq!(actions.len(), total, "one action per lane across fleets");
    let mut lanes: Vec<&mut DroneEnv> = fleets
        .iter_mut()
        .flat_map(|fl| fl.envs.iter_mut())
        .collect();
    fan_out_lanes(&mut lanes, &|i, env| env.step(actions[i]))
}

/// The one pooled fan-out behind [`VecEnv::step`], [`VecEnv::reset_all`]
/// and [`step_fleets`]: applies `f(lane_index, env)` to every lane,
/// scattering contiguous lane chunks over the current
/// [`mramrl_nn::pool`] when it has more than one executor (serial sweep
/// otherwise, and for a single lane). Lanes share nothing — each owns
/// its world, RNG and result slot — so the output is bit-identical to
/// the serial loop at any pool size.
///
/// Generic over the lane handle (`DroneEnv` owned by a `VecEnv`, or
/// `&mut DroneEnv` borrowed across several) so the cross-fleet scatter
/// reuses the exact same chunking as the single-fleet one.
fn fan_out_lanes<E, T, F>(envs: &mut [E], f: &F) -> Vec<T>
where
    E: core::borrow::BorrowMut<DroneEnv> + Send,
    T: Send,
    F: Fn(usize, &mut DroneEnv) -> T + Sync,
{
    let k = envs.len();
    let threads = mramrl_nn::pool::current_threads();
    if threads <= 1 || k < 2 {
        return envs
            .iter_mut()
            .enumerate()
            .map(|(i, e)| f(i, e.borrow_mut()))
            .collect();
    }
    let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
    let chunk = k.div_ceil(threads);
    let mut tasks: Vec<mramrl_nn::pool::Task> = Vec::new();
    for (c, (envs_c, out_c)) in envs
        .chunks_mut(chunk)
        .zip(out.chunks_mut(chunk))
        .enumerate()
    {
        tasks.push(Box::new(move || {
            for (j, (env, slot)) in envs_c.iter_mut().zip(out_c).enumerate() {
                *slot = Some(f(c * chunk + j, env.borrow_mut()));
            }
        }));
    }
    mramrl_nn::pool::current().run(tasks);
    out.into_iter()
        .map(|o| o.expect("every lane processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_independently_seeded() {
        let mut venv = VecEnv::new(EnvKind::OutdoorForest, 3, 2);
        let obs = venv.reset_all();
        assert_ne!(
            obs[0].data(),
            obs[1].data(),
            "different seeds must give different worlds"
        );
    }

    #[test]
    fn single_lane_matches_serial_env() {
        let mut venv = VecEnv::new(EnvKind::IndoorApartment, 11, 1);
        let mut env = DroneEnv::new(EnvKind::IndoorApartment, 11);
        let vo = venv.reset_all();
        let so = env.reset();
        assert_eq!(vo[0], so);
        for i in 0..20 {
            let a = Action::from_index(i % 5);
            let vr = venv.step(&[a]);
            let sr = env.step(a);
            assert_eq!(vr[0], sr);
            if sr.crashed {
                assert_eq!(venv.reset(0), env.reset());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one action per lane")]
    fn wrong_action_count_panics() {
        let mut venv = VecEnv::new(EnvKind::IndoorApartment, 0, 2);
        venv.reset_all();
        let _ = venv.step(&[Action::Forward]);
    }

    #[test]
    fn split_preserves_lane_order_and_seeds() {
        let fleets = VecEnv::new(EnvKind::OutdoorForest, 20, 6).split(3);
        assert_eq!(fleets.len(), 3);
        assert!(fleets.iter().all(|f| f.len() == 2));
        // Fleet f, lane j must be the flat lane f*2 + j (seed 20 + that).
        let mut flat = VecEnv::new(EnvKind::OutdoorForest, 20, 6);
        let flat_obs = flat.reset_all();
        for (f, fleet) in fleets.into_iter().enumerate() {
            let mut fleet = fleet;
            let obs = fleet.reset_all();
            for (j, o) in obs.iter().enumerate() {
                assert_eq!(o, &flat_obs[f * 2 + j], "fleet {f} lane {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal fleets")]
    fn split_rejects_uneven_fleets() {
        let _ = VecEnv::new(EnvKind::IndoorApartment, 0, 5).split(2);
    }

    #[test]
    fn step_fleets_matches_per_fleet_stepping() {
        let mut fleets = VecEnv::new(EnvKind::IndoorApartment, 9, 4).split(2);
        let mut reference = VecEnv::new(EnvKind::IndoorApartment, 9, 4).split(2);
        for fl in fleets.iter_mut().chain(reference.iter_mut()) {
            fl.reset_all();
        }
        for step in 0..15 {
            let actions: Vec<Action> = (0..4).map(|i| Action::from_index((i + step) % 5)).collect();
            let fused = step_fleets(&mut fleets, &actions);
            let mut serial = Vec::new();
            serial.extend(reference[0].step(&actions[..2]));
            serial.extend(reference[1].step(&actions[2..]));
            assert_eq!(fused, serial, "step {step}");
            for (lane, r) in fused.iter().enumerate() {
                if r.crashed {
                    let (f, j) = (lane / 2, lane % 2);
                    assert_eq!(fleets[f].reset(j), reference[f].reset(j));
                }
            }
        }
    }

    #[test]
    fn total_episodes_counts_crashes() {
        let mut venv = VecEnv::new(EnvKind::IndoorApartment, 5, 2);
        venv.reset_all();
        let mut crashes = 0;
        for _ in 0..300 {
            let rs = venv.step(&[Action::Forward, Action::Forward]);
            for (i, r) in rs.iter().enumerate() {
                if r.crashed {
                    crashes += 1;
                    venv.reset(i);
                }
            }
        }
        assert!(crashes > 0);
        assert_eq!(venv.total_episodes(), crashes);
    }
}
