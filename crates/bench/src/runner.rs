//! Deterministic parallel execution of experiment work.
//!
//! A [`Ctx`] is handed to every experiment. It carries the run's
//! [`Scale`] and a process-wide concurrency budget (`--jobs`): a
//! counting semaphore that individual simulation runs acquire a permit
//! from, so parallelism composes across experiments *and* across the
//! independent sweep points inside one experiment without
//! oversubscribing the machine.
//!
//! Determinism: every sweep point seeds its own RNG (a hardcoded
//! per-point constant or [`simkit::rng::derive_seed`]), and
//! [`Ctx::map`] writes results by item index — so the output is
//! byte-identical at any `--jobs` level; only wall-clock changes.
//!
//! [`Ctx::shared`] replaces the old per-module `static SWEEP` memo
//! globals: experiments that read the same sweep (fig3/4/5, fig9–12,
//! fig14/15, fig16–21) compute it once per `Ctx`, with no process-wide
//! state.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::scale::Scale;

/// A minimal counting semaphore (std has none; the build is offline).
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

/// RAII permit; releases on drop.
struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut n = self.permits.lock().expect("semaphore");
        while *n == 0 {
            n = self.cv.wait(n).expect("semaphore");
        }
        *n -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n = self.0.permits.lock().expect("semaphore");
        *n += 1;
        self.0.cv.notify_one();
    }
}

type SharedSlot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// The execution context handed to every experiment.
pub struct Ctx {
    scale: Scale,
    jobs: usize,
    sem: Semaphore,
    shared: Mutex<simkit::hash::FxHashMap<String, SharedSlot>>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("scale", &self.scale)
            .field("jobs", &self.jobs)
            .finish()
    }
}

impl Ctx {
    /// Creates a context running at `scale` with at most `jobs`
    /// simulations in flight at once (`jobs` is clamped to ≥ 1).
    #[must_use]
    pub fn new(scale: Scale, jobs: usize) -> Self {
        let jobs = jobs.max(1);
        Ctx {
            scale,
            jobs,
            sem: Semaphore::new(jobs),
            // Pre-sized for the experiment catalog: at most one memo
            // slot per figure module ever lands here.
            shared: Mutex::new(simkit::hash::map_with_capacity(32)),
        }
    }

    /// The run's scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The concurrency budget.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one unit of simulation work under a concurrency permit.
    ///
    /// Use this for work that must stay sequential internally (e.g. a
    /// chain of runs sharing one RNG stream) so it still counts against
    /// `--jobs` when experiments run in parallel.
    pub fn compute<U>(&self, f: impl FnOnce() -> U) -> U {
        let _permit = self.sem.acquire();
        f()
    }

    /// Maps `f` over `items` in parallel, returning results in item
    /// order regardless of scheduling.
    ///
    /// Each item is processed under its own permit, so concurrent
    /// `map`s from different experiments interleave fairly within the
    /// global `--jobs` budget. `f` must derive any randomness from the
    /// item itself (per-point seed) — never from shared mutable state —
    /// which is what makes the result independent of `jobs`.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(|it| self.compute(|| f(it))).collect();
        }
        let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= work.len() {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work item")
                        .take()
                        .expect("taken once");
                    let _permit = self.sem.acquire();
                    let result = f(item);
                    drop(_permit);
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot")
                    .expect("worker filled slot")
            })
            .collect()
    }

    /// Computes a value once per context and shares it between
    /// experiments — the replacement for the old `static SWEEP` memos.
    ///
    /// The first caller of `key` runs `init` (which may itself use
    /// [`Ctx::map`] to parallelize); concurrent callers block until the
    /// value is ready, then all receive the same `Arc`. No permits are
    /// held while waiting, so this cannot deadlock the `--jobs` budget.
    ///
    /// # Panics
    ///
    /// Panics if `key` is reused with a different type `T`.
    pub fn shared<T, F>(&self, key: &str, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&Self) -> T,
    {
        let slot: SharedSlot = {
            let mut map = self.shared.lock().expect("shared map");
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        let value = slot.get_or_init(|| Arc::new(init(self)) as Arc<dyn Any + Send + Sync>);
        Arc::clone(value)
            .downcast::<T>()
            .expect("shared key reused with a different type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_item_order() {
        for jobs in [1, 2, 8] {
            let ctx = Ctx::new(Scale::Quick, jobs);
            let out = ctx.map((0u64..40).collect(), |i| i * i);
            assert_eq!(
                out,
                (0u64..40).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn map_of_empty_and_single() {
        let ctx = Ctx::new(Scale::Quick, 4);
        assert_eq!(ctx.map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(ctx.map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_is_clamped_to_one() {
        let ctx = Ctx::new(Scale::Quick, 0);
        assert_eq!(ctx.jobs(), 1);
        assert_eq!(ctx.map(vec![1, 2], |x| x), vec![1, 2]);
    }

    #[test]
    fn concurrency_never_exceeds_jobs() {
        let jobs = 3;
        let ctx = Ctx::new(Scale::Quick, jobs);
        let in_flight = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        ctx.map((0..50).collect::<Vec<u32>>(), |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= jobs as u32);
    }

    #[test]
    fn shared_computes_once() {
        let ctx = Ctx::new(Scale::Quick, 4);
        let calls = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = ctx.shared("the-sweep", |_| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        vec![1u64, 2, 3]
                    });
                    assert_eq!(*v, vec![1, 2, 3]);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shared_keys_are_independent() {
        let ctx = Ctx::new(Scale::Quick, 2);
        let a = ctx.shared("a", |_| 1u32);
        let b = ctx.shared("b", |_| 2u32);
        assert_eq!((*a, *b), (1, 2));
    }

    #[test]
    fn map_results_match_serial_at_any_jobs_level() {
        let serial: Vec<u64> = (0..20)
            .map(|i| simkit::rng::derive_seed(0xabc, "runner-test", i))
            .collect();
        for jobs in [2, 5] {
            let ctx = Ctx::new(Scale::Quick, jobs);
            let par = ctx.map((0..20).collect(), |i| {
                simkit::rng::derive_seed(0xabc, "runner-test", i)
            });
            assert_eq!(par, serial);
        }
    }
}
