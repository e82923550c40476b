//! Process-persistent deterministic worker pool.
//!
//! Every multi-core site in the stack — GEMM row bands
//! ([`crate::backend`]), per-sample batched conv passes
//! ([`crate::Conv2d`], the Q8.8 engine's conv), `VecEnv` lane
//! stepping — runs on **one** pool of workers that
//! is spawned once and parked between jobs, instead of paying a
//! `std::thread::spawn` per matrix product. See `docs/threading.md` for
//! the full lifecycle/ownership writeup.
//!
//! # Determinism policy
//!
//! The pool schedules *which worker* runs a task nondeterministically,
//! but every combinator is shaped so the *result* is bit-identical to
//! serial execution:
//!
//! * [`PoolHandle::scatter_chunks`] — `par_chunks_mut`-style scatter:
//!   each task owns one disjoint output chunk and computes it from
//!   shared read-only inputs. No two tasks write the same element, so
//!   scheduling cannot change any bit.
//! * [`PoolHandle::reduce_in_order`] — cross-chunk reductions compute
//!   per-chunk partials in parallel, then the **caller** merges them
//!   serially in ascending chunk index: the float-op sequence of the
//!   merge is fixed no matter how the partials were scheduled.
//!
//! # Sizing and injection
//!
//! The process-wide pool ([`global`]) is sized by `NN_POOL_THREADS`
//! (default: [`std::thread::available_parallelism`]); invalid values
//! warn on stderr and fall back ([`env_thread_knob`]). Tests and
//! benches inject their own [`ThreadPool`] with
//! [`ThreadPool::install`], which rebinds [`current`] for the calling
//! thread until the guard drops — no env-var games, no process
//! restarts.
//!
//! Nested parallelism is defined away: a task of a parallel run that
//! reaches a pool call simply runs the tasks inline (same order, same
//! bits), so layered code can parallelise at its own level without
//! deadlock. [`in_task`] exposes that state, so a GEMM inside a
//! per-sample task runs as one band instead of splitting inline.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut out = vec![0u64; 103];
//! pool.handle().scatter_chunks(&mut out, 10, |chunk_idx, chunk| {
//!     for (j, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 10 + j) as u64;
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

// The one unsafe site in the workspace lives here (the crate is
// otherwise `deny(unsafe_code)`): dispatching *borrowed* closures to
// persistent workers requires erasing their lifetime, exactly like
// `crossbeam::scope`/`rayon` do internally. Soundness argument at the
// `transmute` below.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One unit of pool work: a boxed closure that may borrow the caller's
/// stack. Sound because [`PoolHandle::run`] blocks until every task of
/// the submission has finished executing.
pub type Task<'s> = Box<dyn FnOnce() + Send + 's>;

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Set while this thread executes a task of a parallel run (on a
    /// worker or on the draining caller): pool calls made from inside
    /// run inline instead of re-entering the queue (no nested waits).
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Stack of installed pools ([`ThreadPool::install`]); the top —
    /// or, when empty, the [`global`] pool — is what [`current`] returns.
    static INSTALLED: std::cell::RefCell<Vec<PoolHandle>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Shared queue + lifecycle state behind one pool.
struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
}

struct State {
    queue: VecDeque<StaticTask>,
    shutdown: bool,
}

/// Completion latch for one `run` submission.
struct Latch {
    state: Mutex<LatchState>,
    done_cv: Condvar,
}

struct LatchState {
    /// Tasks still queued or running.
    remaining: usize,
    /// First caught panic payload (later ones are dropped — one run, one
    /// re-raise, like `std::thread::scope`).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: n,
                panic: None,
            }),
            done_cv: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut g = self.state.lock().expect("latch lock");
        g.remaining -= 1;
        if g.panic.is_none() {
            g.panic = panic;
        }
        if g.remaining == 0 {
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every task completed; yields the first panic payload.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut g = self.state.lock().expect("latch lock");
        while g.remaining > 0 {
            g = self.done_cv.wait(g).expect("latch wait");
        }
        g.panic.take()
    }
}

/// A persistent worker pool: `threads - 1` parked OS threads plus the
/// submitting caller, which always participates in its own jobs.
///
/// Owns the worker threads: dropping the pool parks no one — it signals
/// shutdown and joins. For shared use, hand out cheap [`PoolHandle`]
/// clones ([`ThreadPool::handle`]) or install the pool thread-locally
/// ([`ThreadPool::install`]).
pub struct ThreadPool {
    handle: PoolHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Cheap, cloneable reference to a [`ThreadPool`] (or to the [`global`]
/// pool) that the combinators hang off.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Inner>,
    threads: usize,
}

impl ThreadPool {
    /// Spawns a pool of `threads` total executors: `threads - 1` parked
    /// workers plus the caller. `threads` is clamped to ≥ 1; a 1-thread
    /// pool runs everything inline on the caller (the serial oracle the
    /// determinism tests compare against).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nn-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            handle: PoolHandle { inner, threads },
            workers,
        }
    }

    /// Total executor count (workers + the submitting caller).
    pub fn threads(&self) -> usize {
        self.handle.threads
    }

    /// A cloneable handle to this pool.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Makes this pool the [`current`] one for the calling thread until
    /// the returned guard drops — the injectable-handle mechanism the
    /// equivalence tests use to sweep `NN_POOL_THREADS` ∈ {1, 2, 7}
    /// inside one process.
    pub fn install(&self) -> InstallGuard<'_> {
        INSTALLED.with(|s| s.borrow_mut().push(self.handle.clone()));
        InstallGuard { _pool: self }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.handle.inner.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.handle.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Un-installs the pool pushed by [`ThreadPool::install`] on drop.
pub struct InstallGuard<'p> {
    _pool: &'p ThreadPool,
}

impl Drop for InstallGuard<'_> {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Makes `handle` the [`current`] pool for the calling thread until the
/// returned guard drops — the owner-agnostic form of
/// [`ThreadPool::install`] for threads that cannot borrow the owning
/// pool, e.g. a long-lived serving worker adopting the pool handed to
/// it by the service owner. If the owning [`ThreadPool`] is dropped
/// while the handle is still installed, submitted work degrades to
/// inline execution on the caller (the [`PoolHandle::run`] drain
/// contract) — results are unchanged, only parallelism is lost.
pub fn install_handle(handle: PoolHandle) -> HandleInstallGuard {
    INSTALLED.with(|s| s.borrow_mut().push(handle));
    HandleInstallGuard { _priv: () }
}

/// Un-installs the pool pushed by [`install_handle`] on drop.
pub struct HandleInstallGuard {
    _priv: (),
}

impl Drop for HandleInstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Internal push/pop guard binding the *executing* pool into the
/// thread-local stack for the duration of one task (or one inline run).
/// Drop-based so a panicking task cannot leave a stale handle behind.
struct TlsInstall;

impl TlsInstall {
    fn new(handle: PoolHandle) -> Self {
        INSTALLED.with(|s| s.borrow_mut().push(handle));
        Self
    }
}

impl Drop for TlsInstall {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut st = inner.state.lock().expect("pool lock");
            loop {
                if let Some(t) = st.queue.pop_front() {
                    break t;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_cv.wait(st).expect("pool wait");
            }
        };
        // Tasks are pre-wrapped with catch_unwind + latch accounting, so
        // this call never unwinds into the loop.
        task();
    }
}

impl PoolHandle {
    /// Total executor count (workers + the submitting caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion, using the pool's workers plus the
    /// calling thread, and returns only when all of them have finished.
    ///
    /// Called from a 1-thread pool or from inside a pool task, the
    /// tasks run inline on the caller in submission order — the serial
    /// execution every combinator's determinism contract is pinned to.
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is re-raised here (after all tasks
    /// finished, so no borrow escapes).
    pub fn run<'s>(&self, tasks: Vec<Task<'s>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads <= 1 || tasks.len() == 1 || in_task() {
            // Keep `current()` resolving to the executing pool even on
            // the inline path, so sizing decisions inside tasks see the
            // right executor count.
            let _tls = TlsInstall::new(self.clone());
            for t in tasks {
                t();
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut st = self.inner.state.lock().expect("pool lock");
            for task in tasks {
                let latch = Arc::clone(&latch);
                let handle = self.clone();
                let wrapped: Task<'s> = Box::new(move || {
                    // Make the executing pool visible on this worker for
                    // the duration of the task: nested sites resolve
                    // `current()` to it (and run inline — workers never
                    // re-enter the queue) instead of side-effect-spawning
                    // the global pool.
                    let _tls = TlsInstall::new(handle);
                    IN_TASK.with(|f| f.set(true));
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    IN_TASK.with(|f| f.set(false));
                    latch.complete(result.err());
                });
                // SAFETY: the closure borrows data that lives at least
                // for 's, i.e. past this call. `run` does not return
                // until `latch.wait()` observes every wrapped task
                // complete (panicking tasks included, via catch_unwind),
                // so no erased borrow is ever dereferenced after 's
                // ends. Workers hold a task only while executing it.
                let wrapped: StaticTask =
                    unsafe { std::mem::transmute::<Task<'s>, StaticTask>(wrapped) };
                st.queue.push_back(wrapped);
            }
        }
        self.inner.work_cv.notify_all();
        // The caller works too: drain the queue instead of blocking.
        loop {
            let task = {
                let mut st = self.inner.state.lock().expect("pool lock");
                st.queue.pop_front()
            };
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        if let Some(payload) = latch.wait() {
            // Re-raise the first task panic with its original payload
            // (message, assertion, downcastable type) — same diagnostics
            // as the scoped-thread code this pool replaced.
            std::panic::resume_unwind(payload);
        }
    }

    /// Deterministic scatter over disjoint output chunks
    /// (`par_chunks_mut` style): splits `data` into consecutive chunks
    /// of `chunk_len` (last one ragged) and runs `f(chunk_index, chunk)`
    /// across the pool. Each output element is written by exactly one
    /// task from shared read-only captures, so the result is
    /// bit-identical to the serial `for` loop regardless of scheduling.
    pub fn scatter_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let f = &f;
        let tasks: Vec<Task<'_>> = data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, chunk)| -> Task<'_> { Box::new(move || f(i, chunk)) })
            .collect();
        self.run(tasks);
    }

    /// Fixed-order parallel reduction: `partials` holds one
    /// `partial_len`-sized buffer per chunk; `compute(i, partial_i)`
    /// fills them in parallel (each from its own inputs), then the
    /// caller merges them **serially in ascending chunk index** via
    /// `merge(i, partial_i)`. Because each partial is fully reduced
    /// before any merge and the merge order is fixed, the float-op
    /// sequence — and hence every output bit — is independent of
    /// scheduling. The batched conv `dW`/`db` accumulation follows this
    /// exact partials-then-ascending-merge pattern (hand-rolled in
    /// `Conv2d::backward_batch`, because its per-sample tasks fill
    /// several disjoint buffers at once — more than this single-slice
    /// signature can express); this combinator is the reusable form for
    /// plain one-buffer reductions (`docs/threading.md`).
    ///
    /// # Panics
    ///
    /// Panics if `partial_len` is zero or does not divide
    /// `partials.len()`.
    pub fn reduce_in_order<F, M>(
        &self,
        partials: &mut [f32],
        partial_len: usize,
        compute: F,
        mut merge: M,
    ) where
        F: Fn(usize, &mut [f32]) + Sync,
        M: FnMut(usize, &[f32]),
    {
        assert!(partial_len > 0, "partial length must be positive");
        assert_eq!(
            partials.len() % partial_len,
            0,
            "partials must hold whole chunks"
        );
        self.scatter_chunks(partials, partial_len, compute);
        for (i, p) in partials.chunks(partial_len).enumerate() {
            merge(i, p);
        }
    }
}

/// The pool the calling thread should submit to: the innermost
/// installed pool ([`ThreadPool::install`]) or, when none is installed,
/// the process-wide [`global`] pool.
pub fn current() -> PoolHandle {
    INSTALLED
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global().handle())
}

/// Executor count of the [`current`] pool — the fan-out parallel sites
/// size their chunking by.
pub fn current_threads() -> usize {
    INSTALLED
        .with(|s| s.borrow().last().map(PoolHandle::threads))
        .unwrap_or_else(|| global().threads())
}

/// `true` while the calling thread executes a task of a parallel
/// [`PoolHandle::run`]: a pool call made now runs inline, so sizing
/// decisions (the GEMM row-band rule, [`crate::backend::bands`]) treat
/// the caller as one executor.
pub fn in_task() -> bool {
    IN_TASK.with(std::cell::Cell::get)
}

/// The process-wide pool: spawned on first use, sized by
/// `NN_POOL_THREADS` (default: the machine's available parallelism),
/// parked between jobs for the life of the process.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_pool_threads()))
}

/// `NN_POOL_THREADS`, or available parallelism when unset/invalid.
fn default_pool_threads() -> usize {
    env_thread_knob("NN_POOL_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parses a positive thread-count env knob (the shared helper behind
/// `NN_POOL_THREADS` and `NN_GEMM_THREADS`). Returns `None` when the
/// variable is unset; a set-but-invalid value (unparsable, or zero)
/// **warns on stderr** and returns `None` — the same
/// complain-then-fall-back policy as `NN_GEMM_BACKEND`, so a typo'd
/// knob can no longer silently run serial.
pub fn env_thread_knob(var: &str) -> Option<usize> {
    parse_thread_knob(var, &std::env::var(var).ok()?)
}

/// The parse half of [`env_thread_knob`], split out so tests can cover
/// the accept/warn behaviour without mutating process env (concurrent
/// `setenv`/`getenv` from parallel test threads is UB on glibc).
fn parse_thread_knob(var: &str, v: &str) -> Option<usize> {
    match v.trim().parse::<usize>() {
        Ok(t) if t > 0 => Some(t),
        _ => {
            eprintln!("warning: {var}={v:?} is not a positive thread count; using default");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_chunks_writes_every_chunk_once() {
        for threads in [1usize, 2, 7] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![u64::MAX; 97];
            pool.handle().scatter_chunks(&mut out, 8, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 8 + j) as u64;
                }
            });
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i as u64),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn install_handle_binds_pool_on_a_foreign_thread() {
        // A thread that never saw the owning ThreadPool adopts its
        // handle (the serving-worker pattern) and `current()` resolves
        // to it; on guard drop the thread falls back to the inline pool.
        let pool = ThreadPool::new(3);
        let handle = pool.handle();
        std::thread::spawn(move || {
            let depth = || INSTALLED.with(|s| s.borrow().len());
            assert_eq!(depth(), 0, "fresh thread has no installed pool");
            {
                let _g = install_handle(handle);
                assert_eq!(depth(), 1);
                assert_eq!(current_threads(), 3);
                let mut out = vec![0u64; 33];
                current().scatter_chunks(&mut out, 4, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 4 + j) as u64;
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
            }
            assert_eq!(depth(), 0, "guard must pop the handle");
        })
        .join()
        .expect("worker thread");
    }

    #[test]
    fn reduce_in_order_merges_ascending() {
        // The merge order is observable through float non-associativity:
        // record the visit order instead and check the ascending contract.
        let pool = ThreadPool::new(3);
        let mut partials = vec![0.0f32; 5 * 4];
        let mut order = Vec::new();
        pool.handle().reduce_in_order(
            &mut partials,
            4,
            |i, p| p.fill(i as f32),
            |i, p| {
                assert!(p.iter().all(|&v| v == i as f32));
                order.push(i);
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        // One fixed workload, three pool sizes, bit-identical outputs.
        let work = |threads: usize| -> Vec<u32> {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0u32; 1000];
            pool.handle().scatter_chunks(&mut out, 13, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = ((ci * 13 + j) as u32).wrapping_mul(2654435761);
                }
            });
            out
        };
        let want = work(1);
        assert_eq!(want, work(2));
        assert_eq!(want, work(7));
    }

    #[test]
    fn nested_pool_calls_run_inline() {
        let pool = ThreadPool::new(4);
        let handle = pool.handle();
        let mut out = vec![0usize; 16];
        let inner_handle = handle.clone();
        handle.scatter_chunks(&mut out, 4, move |ci, chunk| {
            // A pool call from inside a task must not deadlock: it runs
            // the tasks inline on this executor.
            assert!(in_task());
            inner_handle.scatter_chunks(chunk, 1, |cj, c| c[0] = ci * 4 + cj);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        assert!(!in_task(), "the flag ends with the run");
    }

    #[test]
    fn install_guard_rebinds_current() {
        let outer = current_threads();
        let pool = ThreadPool::new(outer + 6);
        {
            let _g = pool.install();
            assert_eq!(current_threads(), outer + 6);
            let inner = ThreadPool::new(2);
            {
                let _g2 = inner.install();
                assert_eq!(current_threads(), 2);
            }
            assert_eq!(current_threads(), outer + 6);
        }
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let pool = ThreadPool::new(3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Task> = (0..8)
                .map(|i| -> Task { Box::new(move || assert!(i != 5, "boom {i}")) })
                .collect();
            pool.handle().run(tasks);
        }));
        // The original payload (message included) must reach the
        // submitter, not a generic "a task panicked" replacement.
        let payload = err.expect_err("panic in a task must reach the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom 5"), "payload lost: {msg:?}");
        // The pool survives a panicked batch.
        let mut out = vec![0u8; 4];
        pool.handle().scatter_chunks(&mut out, 1, |_, c| c[0] = 1);
        assert_eq!(out, vec![1; 4]);
    }

    #[test]
    fn many_more_tasks_than_workers_complete() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0u8; 500];
        pool.handle().scatter_chunks(&mut out, 1, |_, c| c[0] = 7);
        assert!(out.iter().all(|&v| v == 7));
    }

    #[test]
    fn current_resolves_to_executing_pool_inside_tasks() {
        // Nested sites inside a task must see the pool that is running
        // them (not fall through to — and lazily spawn — the global
        // pool), on both the worker path and the inline path.
        let pool = ThreadPool::new(3);
        let mut seen = vec![0usize; 8];
        pool.handle()
            .scatter_chunks(&mut seen, 1, |_, c| c[0] = current_threads());
        assert!(seen.iter().all(|&t| t == 3), "worker path: {seen:?}");

        let pool1 = ThreadPool::new(1);
        let mut seen1 = vec![0usize; 4];
        pool1
            .handle()
            .scatter_chunks(&mut seen1, 1, |_, c| c[0] = current_threads());
        assert!(seen1.iter().all(|&t| t == 1), "inline path: {seen1:?}");
    }

    #[test]
    fn thread_knob_parses_and_rejects() {
        // The parse half only — no env mutation (set_var racing getenv
        // from parallel test threads is UB on glibc).
        assert_eq!(parse_thread_knob("K", "3"), Some(3));
        assert_eq!(parse_thread_knob("K", " 7 "), Some(7));
        assert_eq!(parse_thread_knob("K", "lots"), None);
        assert_eq!(parse_thread_knob("K", "0"), None);
        assert_eq!(parse_thread_knob("K", "-2"), None);
        // Unset variable: no warning path, plain None.
        assert_eq!(env_thread_knob("NN_TEST_KNOB_DEFINITELY_UNSET"), None);
    }

    #[test]
    fn global_pool_is_singleton() {
        assert!(std::ptr::eq(global(), global()));
        assert!(global().threads() >= 1);
    }
}
