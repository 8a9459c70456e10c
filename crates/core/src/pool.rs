//! Persistent deterministic worker pool.
//!
//! Before this module, every batched histogram build and every batched
//! scoring call spawned its own set of scoped OS threads
//! (`std::thread::scope`), i.e. up to 2^d thread-pool spin-ups per tree
//! layer at depth `d`. The pool replaces those per-call spawns with a fixed
//! set of workers created **once per process** and reused across node
//! builds, layers, rounds, trees, and serving batches.
//!
//! # Determinism rule
//!
//! Work is described as `stripes` pure functions of a *logical stripe
//! index* — `f(0), f(1), …, f(stripes - 1)` — never of a physical thread.
//! The calling thread, which would otherwise sit blocked, executes stripe
//! 0; physical worker `p` of a pool of size `P` executes logical stripes
//! `1 + p, 1 + p + P, …` in ascending order, and [`WorkerPool::run`]
//! returns the results indexed by stripe, so:
//!
//! * which stripe computes what is fixed by the stripe index alone;
//! * the returned `Vec` is in stripe order regardless of which physical
//!   thread finished first;
//! * the pool's own size `P` never appears in any result — callers pick
//!   `stripes` from their *configured* thread count, so results depend only
//!   on the caller's `(threads, batch_size)` configuration, exactly the
//!   bit-reproducibility contract of `crate::parallel`.
//!
//! OS scheduling can reorder *when* stripes run, never *what* they compute
//! or how results are merged.
//!
//! # Re-entrancy
//!
//! A `run` issued from inside a pool worker (nested parallelism) executes
//! its stripes inline, sequentially, on the calling worker — same results
//! (stripe functions are pure), no deadlock, no extra threads. The same
//! holds inside stripe 0, which the caller runs while the pool is busy
//! with the job.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How many [`WorkerPool`]s this process has ever constructed. Tests use
/// this to pin the "at most one pool per process" property of the hot
/// paths: a full training run plus a scoring run must not grow it by more
/// than one (the shared global pool).
static CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// Total pools constructed so far in this process.
pub fn pool_constructions() -> usize {
    CONSTRUCTIONS.load(Ordering::SeqCst)
}

thread_local! {
    /// True on pool worker threads; used to detect nested `run` calls.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A broadcast job: a type-erased `Fn(stripe_index)` shared by all workers.
///
/// The pointee lives on the stack of the thread blocked inside
/// [`WorkerPool::broadcast`], which does not return until every worker has
/// finished the job, so the erased lifetime is sound.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    stripes: usize,
}

// SAFETY: the pointee is `Sync` (shared by all workers by design) and
// outlives every access (see `Job` docs).
unsafe impl Send for Job {}

struct PoolState {
    /// Current job, if a broadcast is in flight.
    job: Option<Job>,
    /// Incremented per broadcast so workers can tell "new job" from a
    /// spurious wakeup of the same generation.
    epoch: u64,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// Set once, on drop; workers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers: new job available (or shutdown).
    work_cv: Condvar,
    /// Signals the broadcaster: `remaining` reached zero.
    done_cv: Condvar,
}

/// A fixed-size persistent worker pool. See the module docs for the
/// determinism rule. Cheap to share (`Arc`); most callers use [`global`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes broadcasts from concurrent callers (e.g. parallel tests):
    /// the pool runs one job at a time, callers queue on this lock.
    broadcast_lock: Mutex<()>,
    size: usize,
}

impl WorkerPool {
    /// Spawns a pool of `size` workers (`size` is clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        CONSTRUCTIONS.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dimboost-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index, size))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            broadcast_lock: Mutex::new(()),
            size,
        }
    }

    /// Physical worker threads in this pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f(0), f(1), …, f(stripes - 1)` across the pool and returns the
    /// results **in stripe order**. Each stripe function must be a pure
    /// function of its stripe index (plus captured shared state) for the
    /// determinism rule to hold; under that contract the returned vector is
    /// identical whatever the pool size or OS schedule.
    ///
    /// The calling thread computes stripe 0 itself, so a result that
    /// outlives the call (the trainer's quantized rows) is partly allocated
    /// by the caller, in memory it has just freed, rather than all on pool
    /// threads' heaps. `stripes <= 1`, a pool of one, and nested calls from
    /// a pool worker or from stripe 0 all run inline on the caller. Panics
    /// in a stripe are re-raised on the caller after all workers finish
    /// the broadcast.
    pub fn run<R, F>(&self, stripes: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if stripes == 0 {
            return Vec::new();
        }
        if stripes == 1 || self.size <= 1 || IN_POOL_WORKER.with(|w| w.get()) {
            return (0..stripes).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..stripes).map(|_| Mutex::new(None)).collect();
        let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let task = |stripe: usize| match catch_unwind(AssertUnwindSafe(|| f(stripe))) {
            Ok(result) => {
                *slots[stripe].lock().expect("stripe slot poisoned") = Some(result);
            }
            Err(payload) => {
                let mut guard = panic.lock().expect("panic slot poisoned");
                if guard.is_none() {
                    *guard = Some(payload);
                }
            }
        };
        self.broadcast(stripes, &task);
        if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("stripe slot poisoned")
                    .expect("stripe produced no result")
            })
            .collect()
    }

    /// Hands `task` to every worker, runs its stripe 0 on the calling
    /// thread meanwhile, and blocks until all workers have finished their
    /// stripes. `task` must not unwind (callers wrap in `catch_unwind`).
    fn broadcast(&self, stripes: usize, task: &(dyn Fn(usize) + Sync)) {
        let _exclusive = self.broadcast_lock.lock().expect("broadcast lock poisoned");
        // Erase the borrow's lifetime: the pointee outlives this call, and
        // this call outlives every worker's use of it (we wait below).
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.job = Some(Job {
                task: erased,
                stripes,
            });
            state.epoch += 1;
            state.remaining = self.size;
            self.shared.work_cv.notify_all();
        }
        // Nested runs from the caller's stripe go inline, as they do from a
        // pool worker: the pool is busy with this job.
        IN_POOL_WORKER.with(|w| w.set(true));
        task(0);
        IN_POOL_WORKER.with(|w| w.set(false));
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        while state.remaining > 0 {
            state = self
                .shared
                .done_cv
                .wait(state)
                .expect("pool state poisoned");
        }
        state.job = None;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize, size: usize) {
    IN_POOL_WORKER.with(|w| w.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let (task, stripes) = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    break;
                }
                state = shared.work_cv.wait(state).expect("pool state poisoned");
            }
            seen_epoch = state.epoch;
            let job = state.job.as_ref().expect("job present for new epoch");
            (job.task, job.stripes)
        };
        // The caller executes stripe 0; physical worker `index` executes
        // logical stripes 1 + index, 1 + index + size, … in ascending order.
        let mut stripe = 1 + index;
        while stripe < stripes {
            // SAFETY: see `Job` — the pointee outlives the broadcast, and
            // `task` never unwinds (wrapped in catch_unwind by `run`).
            unsafe { (*task)(stripe) };
            stripe += size;
        }
        let mut state = shared.state.lock().expect("pool state poisoned");
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The process-wide shared pool, created on first use and reused by every
/// training and serving hot path. Sized from the machine's available
/// parallelism (clamped to 16): callers request any number of logical
/// stripes, so a caller's `--threads` above the pool size still computes
/// the configured striping — physical workers just each carry more stripes.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let size = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        WorkerPool::new(size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_stripe_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(13, |s| s * 10);
        assert_eq!(out, (0..13).map(|s| s * 10).collect::<Vec<_>>());
    }

    #[test]
    fn results_independent_of_pool_size() {
        let work = |s: usize| (0..=s).map(|v| v as f32 * 0.1).sum::<f32>();
        let reference: Vec<f32> = (0..9).map(work).collect();
        for size in [1, 2, 3, 8, 16] {
            let pool = WorkerPool::new(size);
            assert_eq!(pool.run(9, work), reference, "pool size {size}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = WorkerPool::new(3);
        for rep in 0..50 {
            let out = pool.run(7, |s| s + rep);
            assert_eq!(out, (0..7).map(|s| s + rep).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_runs_execute_inline() {
        let pool = Arc::new(WorkerPool::new(4));
        let inner = Arc::clone(&pool);
        // Each outer stripe issues a nested run; nested calls must complete
        // inline without deadlocking on the (busy) pool.
        let out = pool.run(4, move |s| inner.run(3, |t| s * 10 + t));
        assert_eq!(out[2], vec![20, 21, 22]);
    }

    #[test]
    fn caller_stripe_runs_on_the_caller_and_nests_inline() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner = Arc::clone(&pool);
        let caller = std::thread::current().id();
        let out = pool.run(3, move |s| {
            (
                std::thread::current().id() == caller,
                inner.run(2, |t| s * 10 + t),
            )
        });
        assert!(out[0].0, "stripe 0 ran off the calling thread");
        assert!(!out[1].0 && !out[2].0, "stripes 1.. ran on the caller");
        assert_eq!(out[2].1, vec![20, 21]);
        // The caller is not left marked as a pool worker.
        assert!(!IN_POOL_WORKER.with(|w| w.get()));
    }

    #[test]
    fn zero_and_single_stripe() {
        let pool = WorkerPool::new(2);
        assert!(pool.run(0, |s| s).is_empty());
        assert_eq!(pool.run(1, |s| s + 1), vec![1]);
    }

    #[test]
    fn stripe_panic_propagates() {
        let pool = WorkerPool::new(2);
        // Stripe 0 runs on the caller, stripe 2 on a pool worker.
        for bad in [0, 2] {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(4, |s| {
                    assert!(s != bad, "stripe {bad} exploded");
                    s
                })
            }));
            assert!(caught.is_err(), "stripe {bad}");
        }
        // The pool survives a panicked job.
        assert_eq!(pool.run(2, |s| s), vec![0, 1]);
    }

    #[test]
    fn construction_counter_tracks_pools() {
        let before = pool_constructions();
        let _pool = WorkerPool::new(2);
        assert_eq!(pool_constructions(), before + 1);
    }

    #[test]
    fn global_pool_is_created_once() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().size() >= 1);
    }
}
