//! A std-only scoped worker pool with a deterministic chunked, fallible
//! map.
//!
//! It serves one site: the per-tuple relevance test of Algorithm 4.1
//! (`RelevanceFilter::filter_with` in the `ivm` crate), where each tuple's
//! decision is independent of every other tuple and the prebuilt
//! invariant graphs are shared read-only. The differential engine runs on
//! the calling thread. Everything here is plain `std`: the build container
//! has no network access to crates.io, so like `crates/compat/*` it does
//! without `rayon`.
//!
//! Design rules:
//!
//! * **Scoped, not pooled-forever.** Workers are `std::thread::scope`
//!   threads that borrow the caller's data; they live exactly as long as
//!   one `try_map` call. No channels, no `unsafe`. The only global
//!   state is the machine's thread count ([`available_threads`]), read
//!   once per process and immutable after that.
//! * **Parallel only when the work pays for it.** [`Pool::for_work`] is
//!   the fan-out rule: one worker per [`GRAIN`] tuples of estimated work,
//!   capped at the requested width, never fewer than one. Below two
//!   grains the site runs its sequential code and spawns nothing. The
//!   width depends only on input sizes, so every result stays identical
//!   at every width.
//! * **The caller works too.** Every chunk but the first runs on a
//!   spawned worker; the caller evaluates chunk 0 itself before joining
//!   the workers in input order, so a two-way fan-out costs one spawn,
//!   not two plus an idle caller.
//! * **Deterministic.** Work is split into *contiguous chunks in input
//!   order* and results are reassembled in input order, so the output is
//!   identical for every thread count — `threads = 1` is the oracle the
//!   property tests compare against.
//! * **Deterministic errors too.** [`Pool::try_map`] returns the error of
//!   the *earliest* failing item in input order, regardless of which
//!   worker hit an error first on the wall clock.
//! * **Panic transparent.** The first panicking chunk in input order
//!   re-raises its payload on the calling thread, after every worker has
//!   finished (the `std::thread::scope` contract).
//! * **Observable on request.** [`Pool::try_map_observed`] times each
//!   chunk and its start latency through an [`ivm_obs::Obs`] handle
//!   (`pool.chunk_micros`, `pool.queue_wait_micros`, `pool.chunks` — see
//!   `docs/OBSERVABILITY.md`). With the no-op handle it degenerates to
//!   the plain call: one branch, no clocks read, so the fan-out hot path
//!   costs nothing extra when nobody is watching.
//!
//! # Fan-out example
//!
//! ```
//! use ivm_parallel::{Pool, GRAIN};
//!
//! let pool = Pool::new(4);
//! let items: Vec<i64> = (0..100).collect();
//! let squares: Result<Vec<i64>, ()> = pool.try_map(&items, |x| Ok(x * x));
//! assert_eq!(squares.unwrap()[7], 49); // input order, every width
//!
//! // The grain rule: 100 tuples of work never fan out; four grains do.
//! assert!(Pool::for_work(4, items.len()).is_sequential());
//! assert_eq!(Pool::for_work(4, 4 * GRAIN).threads(), 4);
//! ```

#![warn(missing_docs)]

pub mod model;

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use ivm_obs::names;
/// The metrics handle the `*_observed` calls take, re-exported so callers
/// need no direct `ivm-obs` dependency to pass one.
pub use ivm_obs::Obs;

/// Tuples of estimated work that pay for one worker: [`Pool::for_work`]
/// gives each worker at least this many, so a fan-out starts at two
/// grains. A scoped spawn costs tens of microseconds; a grain of
/// satisfiability work costs several times that.
pub const GRAIN: usize = 1024;

/// Number of hardware threads, with a conservative fallback of 1 when the
/// platform cannot say. Read from the OS once per process — the query can
/// cost tens of microseconds (it may read cgroup files) — and cached.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolve a requested thread count: `0` means "one worker per available
/// core", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Split `0..n` into at most `parts` contiguous ranges whose lengths
/// differ by at most one. Empty ranges are never produced.
fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts; // the first `extra` chunks get one more item
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A worker pool of a fixed width. `Copy`-cheap: holds only the resolved
/// thread count; threads are spawned per call inside a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers; `0` resolves to one per available
    /// core.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: resolve_threads(threads).max(1),
        }
    }

    /// The pool a call site should fan `work` tuples out over: one worker
    /// per [`GRAIN`] tuples, capped at `threads` (`0` = one per available
    /// core), never fewer than one. A site whose pool comes back
    /// sequential runs its sequential code. The width depends only on
    /// `threads` and `work`, never on timing, so results are identical at
    /// every width.
    pub fn for_work(threads: usize, work: usize) -> Self {
        Pool {
            threads: resolve_threads(threads).min(work / GRAIN).max(1),
        }
    }

    /// Worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool never spawns (all work runs on the caller).
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Fan `0..n` out as contiguous index ranges, one per worker, and
    /// collect each range's result **in range order**: the building
    /// block under [`Pool::try_map`].
    ///
    /// Chunk 0 runs on the calling thread while the other chunks run on
    /// spawned workers; the caller then joins the workers in input
    /// order. If chunks panic, the first one in input order re-raises on
    /// the caller once every worker has finished.
    fn map_chunks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let mut ranges = chunk_ranges(n, self.threads).into_iter();
        let Some(head) = ranges.next() else {
            return Vec::new();
        };
        if ranges.len() == 0 {
            return vec![f(head)];
        }
        let f = &f;
        std::thread::scope(|s| {
            let workers: Vec<_> = ranges.map(|range| s.spawn(move || f(range))).collect();
            let mut out = Vec::with_capacity(workers.len() + 1);
            // A panic in chunk 0 unwinds out of this closure; the scope
            // still waits for every worker before re-raising it.
            out.push(f(head));
            for worker in workers {
                match worker.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }

    /// `map_chunks` with the per-chunk instrumentation that
    /// [`Pool::try_map_observed`] describes. With the disabled handle, or
    /// when the call does not fan out, this is exactly `map_chunks`: the
    /// `enabled` branch is taken once per call, not per chunk.
    fn map_chunks_observed<R, F>(&self, n: usize, f: F, obs: &Obs) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if !obs.enabled() || self.threads.min(n) < 2 {
            return self.map_chunks(n, f);
        }
        // ivm-lint: allow(no-ambient-time) — observational timing only, behind obs.enabled(); results are bit-identical with and without it
        let dispatched = Instant::now();
        self.map_chunks(n, |range| {
            // ivm-lint: allow(no-ambient-time) — observational timing only, never influences chunking or results
            let started = Instant::now();
            let wait = started.duration_since(dispatched);
            let out = f(range);
            obs.add(names::POOL_CHUNKS, 1);
            obs.observe(
                names::POOL_QUEUE_WAIT_MICROS,
                wait.as_micros().min(u64::MAX as u128) as u64,
            );
            obs.observe(
                names::POOL_CHUNK_MICROS,
                started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
            out
        })
    }

    /// Apply the fallible `f` to every item: the results in input order,
    /// identical for every pool width, or the error of the earliest
    /// failing item in input order. Each worker short-circuits its own
    /// chunk on the first error.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        self.try_map_observed(items, f, &Obs::disabled())
    }

    /// [`Pool::try_map`] with per-chunk instrumentation: when `obs` has a
    /// recorder installed, each chunk of a fan-out reports its start
    /// latency (`pool.queue_wait_micros` — wall time between fan-out
    /// start and the chunk body beginning to run; near zero for chunk 0,
    /// which the caller runs itself), its body duration
    /// (`pool.chunk_micros`) and a `pool.chunks` count. A call that runs
    /// whole on the caller records nothing.
    ///
    /// Timings are observational only: chunk boundaries, work order and
    /// results are bit-identical with and without a recorder.
    pub fn try_map_observed<T, R, E, F>(&self, items: &[T], f: F, obs: &Obs) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        let chunks = self.map_chunks_observed(
            items.len(),
            |range| {
                let mut out = Vec::with_capacity(range.len());
                for item in &items[range] {
                    out.push(f(item)?);
                }
                Ok(out)
            },
            obs,
        );
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in 0..40usize {
            for parts in 1..10usize {
                let ranges = chunk_ranges(n, parts);
                assert!(ranges.len() <= parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, n, "full coverage for n={n} parts={parts}");
                if n >= parts {
                    let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                    let min = lens.iter().min().unwrap();
                    let max = lens.iter().max().unwrap();
                    assert!(max - min <= 1, "balanced: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn try_map_preserves_order_at_every_width() {
        let items: Vec<i64> = (0..1000).collect();
        let expected: Vec<i64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got: Result<Vec<i64>, ()> = Pool::new(threads).try_map(&items, |x| Ok(x * x));
            assert_eq!(got.unwrap(), expected, "threads={threads}");
        }
    }

    #[test]
    fn try_map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let done: Result<Vec<()>, ()> = Pool::new(4).try_map(&items, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(done.unwrap().len(), 257);
        assert_eq!(hits.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn try_map_returns_earliest_error() {
        let items: Vec<i64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let r: Result<Vec<i64>, i64> =
                Pool::new(threads).try_map(
                    &items,
                    |&x| {
                        if x == 17 || x == 63 {
                            Err(x)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r.unwrap_err(), 17, "threads={threads}");
        }
        let ok: Result<Vec<i64>, ()> = Pool::new(8).try_map(&items, |&x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        assert_eq!(Pool::new(0).threads(), available_threads());
        assert!(Pool::new(1).is_sequential());
    }

    #[test]
    fn width_is_resolved_once() {
        assert_eq!(available_threads(), available_threads());
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn for_work_gives_each_worker_a_grain() {
        assert_eq!(Pool::for_work(8, 0).threads(), 1);
        assert_eq!(Pool::for_work(8, 2 * GRAIN - 1).threads(), 1);
        assert_eq!(Pool::for_work(8, 2 * GRAIN).threads(), 2);
        assert_eq!(Pool::for_work(8, 5 * GRAIN + 7).threads(), 5);
        assert_eq!(Pool::for_work(8, 100 * GRAIN).threads(), 8);
        assert_eq!(Pool::for_work(1, 100 * GRAIN).threads(), 1);
        assert_eq!(Pool::for_work(0, usize::MAX).threads(), available_threads());
    }

    #[test]
    fn caller_runs_chunk_zero_and_workers_the_rest() {
        let caller = std::thread::current().id();
        for threads in [2, 3, 8] {
            let ran_on = Pool::new(threads).map_chunks(8, |_| std::thread::current().id());
            assert_eq!(ran_on[0], caller, "threads={threads}");
            assert!(
                ran_on[1..].iter().all(|id| *id != caller),
                "threads={threads}"
            );
        }
        let single = Pool::new(8).map_chunks(1, |_| std::thread::current().id());
        assert_eq!(single, vec![caller], "one chunk never spawns");
    }

    #[test]
    fn caller_chunk_panic_waits_for_workers_then_propagates() {
        let (finished, done) = std::sync::mpsc::channel();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pool::new(4).map_chunks(4, |range| {
                if range.start == 0 {
                    panic!("chunk 0");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.send(range.start).unwrap();
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 0"));
        let mut seen: Vec<usize> = done.try_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, [1, 2, 3], "no worker outlives the call");
    }

    #[test]
    fn first_panic_in_input_order_wins() {
        // Every chunk but the caller's panics; the second chunk in input
        // order is the one re-raised, whichever worker panicked first.
        for threads in [2, 3, 4] {
            let result = std::panic::catch_unwind(|| {
                Pool::new(threads).map_chunks(4, |range| {
                    if range.start >= 1 {
                        panic!("chunk at {}", range.start);
                    }
                })
            });
            let payload = result.unwrap_err();
            let msg = payload.downcast_ref::<String>().unwrap();
            let second = &chunk_ranges(4, threads)[1];
            assert_eq!(
                *msg,
                format!("chunk at {}", second.start),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u8> = Vec::new();
        let r: Result<Vec<u8>, ()> = Pool::new(8).try_map(&empty, |x| Ok(*x));
        assert!(r.unwrap().is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).try_map(&items, |&x| -> Result<usize, ()> {
                if x == 40 {
                    panic!("boom");
                }
                Ok(x)
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_chunks_observed_matches_plain_and_reports_timings() {
        use std::sync::Arc;
        let pool = Pool::new(3);
        let plain = pool.map_chunks(10, |r| r.len());
        let disabled = pool.map_chunks_observed(10, |r| r.len(), &ivm_obs::Obs::disabled());
        assert_eq!(plain, disabled);
        let rec = Arc::new(ivm_obs::InMemoryRecorder::new());
        let obs = ivm_obs::Obs::new(rec.clone());
        let observed = pool.map_chunks_observed(10, |r| r.len(), &obs);
        assert_eq!(plain, observed);
        assert_eq!(rec.counter(ivm_obs::names::POOL_CHUNKS), 3);
        let chunk = rec.histogram(ivm_obs::names::POOL_CHUNK_MICROS);
        let wait = rec.histogram(ivm_obs::names::POOL_QUEUE_WAIT_MICROS);
        assert_eq!(chunk.count, 3);
        assert_eq!(wait.count, 3);
        // No fan-out, nothing recorded: one item, or a width-1 pool.
        assert_eq!(pool.map_chunks_observed(1, |r| r.len(), &obs), vec![1]);
        Pool::new(1).map_chunks_observed(10, |r| r.len(), &obs);
        assert_eq!(rec.counter(ivm_obs::names::POOL_CHUNKS), 3);
    }

    #[test]
    fn try_map_observed_matches_plain_and_counts_chunks() {
        use std::sync::Arc;
        let items: Vec<i64> = (0..100).collect();
        let pool = Pool::new(4);
        let rec = Arc::new(ivm_obs::InMemoryRecorder::new());
        let obs = ivm_obs::Obs::new(rec.clone());
        let f = |&x: &i64| if x == 60 { Err(x) } else { Ok(x * 2) };
        assert_eq!(
            pool.try_map_observed(&items, f, &obs),
            pool.try_map(&items, f)
        );
        assert_eq!(rec.counter(ivm_obs::names::POOL_CHUNKS), 4);
    }

    #[test]
    fn map_chunks_respects_width() {
        let pool = Pool::new(3);
        let chunks = pool.map_chunks(10, |r| r.len());
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().sum::<usize>(), 10);
    }
}
