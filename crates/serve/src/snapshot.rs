//! The generation-counted snapshot holder the serving layer acts through.

use std::sync::{Arc, Mutex};

use mramrl_nn::QuantizedNet;
use mramrl_rl::{LearnerHook, QAgent};

/// A double-buffered, generation-counted holder for the currently
/// served Q8.8 snapshot.
///
/// "Double-buffered" here is the `Arc` form of the hardware idiom: the
/// store holds one reference to the live snapshot, and every in-flight
/// batch holds its own — publishing swaps the store's reference without
/// touching the snapshot a worker is mid-batch on, so a batch is always
/// produced entirely by one generation (the no-torn-reads contract,
/// pinned in `crates/serve/tests/determinism.rs`).
///
/// The generation counter starts at 0 for the snapshot the store is
/// built with and increments once per publish. Workers load
/// `(net, generation)` with **one** [`SnapshotStore::snapshot`] call per
/// flush, so the generation they stamp on responses is exactly the
/// snapshot they computed with.
///
/// The observation shape is fixed when the store is built: every
/// published snapshot must expect the same `[C, H, W]` input, so a
/// request validated against it fits whichever generation serves it.
#[derive(Debug)]
pub struct SnapshotStore {
    input_shape: [usize; 3],
    current: Mutex<Slot>,
}

#[derive(Debug)]
struct Slot {
    net: Arc<QuantizedNet>,
    generation: u64,
}

impl SnapshotStore {
    /// Creates a store serving `initial` as generation 0.
    pub fn new(initial: Arc<QuantizedNet>) -> Self {
        Self {
            input_shape: initial.spec().input_shape,
            current: Mutex::new(Slot {
                net: initial,
                generation: 0,
            }),
        }
    }

    /// The live snapshot and its generation, as one atomic pair.
    ///
    /// Callers serving a batch must call this **once per flush** and
    /// use both values together — that is what makes the stamped
    /// generation authoritative for every decision in the batch.
    pub fn snapshot(&self) -> (Arc<QuantizedNet>, u64) {
        let slot = self.current.lock().expect("snapshot store poisoned");
        (Arc::clone(&slot.net), slot.generation)
    }

    /// Publishes `net` as the new live snapshot and returns its
    /// generation.
    ///
    /// The swap happens under a short lock; the previous snapshot stays
    /// alive for exactly as long as in-flight batches still reference
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `net` expects a different input shape than the store
    /// serves. The check runs here, in the publisher's thread and
    /// before the lock is taken, so the live generation, the lock and
    /// the serving worker are untouched: a worker handed such a net
    /// would panic mid-flush and leave every waiting `decide` hanging.
    pub fn publish(&self, net: Arc<QuantizedNet>) -> u64 {
        assert_eq!(
            net.spec().input_shape,
            self.input_shape,
            "published snapshot's input shape does not match the served network input"
        );
        let mut slot = self.current.lock().expect("snapshot store poisoned");
        slot.generation += 1;
        slot.net = net;
        slot.generation
    }

    /// Publishes the agent's current Q8.8 snapshot — the online-learning
    /// handoff. This is
    /// [`QAgent::quantized_snapshot_shared`] followed by
    /// [`SnapshotStore::publish`]: the agent's cached snapshot is shared
    /// (no copy) and served until the next publish, while training keeps
    /// mutating the float weights underneath.
    pub fn publish_agent(&self, agent: &mut QAgent) -> u64 {
        self.publish(agent.quantized_snapshot_shared())
    }

    /// The current generation counter.
    pub fn generation(&self) -> u64 {
        self.current
            .lock()
            .expect("snapshot store poisoned")
            .generation
    }

    /// The `[C, H, W]` observation shape the live snapshot expects —
    /// what each [`crate::ObsRequest`] observation must match.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }
}

/// The learner → serving handoff: a [`LearnerHook`] that publishes the
/// agent's Q8.8 snapshot to a [`SnapshotStore`] on **every target
/// sync** of `Trainer::run_parallel_hooked`.
///
/// Wire it in and the serving fleet tracks the newest learner
/// generation mid-training — a [`crate::Service`] worker over the same
/// store starts answering with the fresh weights at its next flush,
/// while the learner keeps mutating the float net underneath. The hook
/// only *reads* the agent (snapshot + publish), so the training
/// trajectory stays bit-identical to the unhooked run.
#[derive(Debug, Clone)]
pub struct LearnerPublisher {
    store: Arc<SnapshotStore>,
}

impl LearnerPublisher {
    /// A publisher pushing into `store`.
    pub fn new(store: Arc<SnapshotStore>) -> Self {
        Self { store }
    }

    /// The store this publisher feeds.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }
}

impl LearnerHook for LearnerPublisher {
    fn on_target_sync(&mut self, agent: &mut QAgent, _updates: u64) {
        self.store.publish_agent(agent);
    }
}
