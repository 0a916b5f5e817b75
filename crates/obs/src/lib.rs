//! Structured tracing spans and maintenance metrics — std-only, zero
//! dependencies.
//!
//! The paper's efficiency claims (§4 irrelevant-update filtering, §5
//! differential re-evaluation) are about *work avoided*; this crate is
//! how the rest of the repository proves the avoidance happened. Every
//! maintenance layer — the relevance filter, the differential engine,
//! the view manager, the worker pool, the WAL/checkpoint path — emits
//! counters, histogram observations and tracing spans through an
//! [`Obs`] handle. What happens to them is the caller's choice of
//! [`Recorder`]:
//!
//! * nothing at all ([`Obs::disabled`], the default — a single `Option`
//!   check per emission site, no clocks read, no allocation);
//! * aggregation in memory ([`InMemoryRecorder`], for tests and the
//!   shell's `\stats` command);
//! * one JSON object per event appended to a file
//!   ([`JsonLinesRecorder`], for offline analysis).
//!
//! The full metric catalog lives in [`names`] and is documented for
//! humans in `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ivm_obs::{names, InMemoryRecorder, Obs};
//!
//! let recorder = Arc::new(InMemoryRecorder::new());
//! let obs = Obs::new(recorder.clone());
//!
//! {
//!     let _outer = obs.span(names::SPAN_EXECUTE);
//!     let _inner = obs.span(names::SPAN_DIFFERENTIATE);
//!     obs.add(names::DIFF_ROWS_EVALUATED, 3);
//! } // spans close here, innermost first
//!
//! assert_eq!(recorder.counter(names::DIFF_ROWS_EVALUATED), 3);
//! assert_eq!(recorder.span("execute/differentiate").count, 1);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

pub mod names;
mod recorder;

pub use recorder::{
    HistogramSummary, InMemoryRecorder, JsonLinesRecorder, NoopRecorder, Recorder, Snapshot,
    SpanEvent, SpanSummary,
};

thread_local! {
    /// Per-thread stack of open span names; spans opened on a pool worker
    /// nest under whatever that worker opens, not under the caller's
    /// stack (worker spans are root spans of their own thread).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, clonable handle to the configured [`Recorder`], or to
/// nothing.
///
/// Every emission method starts with an `Option` check: with no recorder
/// installed there is no virtual call, no clock read and no allocation,
/// which is what keeps the instrumented hot paths within the repo's
/// "< 2% overhead when disabled" budget (measured by the `obs_overhead`
/// bench).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// A handle that forwards to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Obs {
            inner: Some(recorder),
        }
    }

    /// The no-op handle: every emission is a branch on `None`.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Is a recorder installed?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to a counter. No-ops when disabled or `delta == 0`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.inner {
            if delta > 0 {
                r.add_counter(name, delta);
            }
        }
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.inner {
            r.observe(name, value);
        }
    }

    /// Open a tracing span; it closes (and is recorded) when the returned
    /// guard drops. Spans nest per thread: a span opened while another is
    /// open on the same thread records a `/`-joined path
    /// (`execute/differentiate`). When disabled the guard is inert — no
    /// clock is read.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(r) => {
                let path = SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    let mut path = String::with_capacity(32);
                    for parent in stack.iter() {
                        path.push_str(parent);
                        path.push('/');
                    }
                    path.push_str(name);
                    stack.push(name);
                    path
                });
                SpanGuard {
                    active: Some(ActiveSpan {
                        recorder: r.clone(),
                        name,
                        path,
                        started: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Run `f` with this thread's open spans set aside, so the spans `f`
    /// opens record as roots, as if `f` ran on a thread of its own. The
    /// serving layer runs writes this way: `execute` keeps the paths an
    /// embedded manager records, not `serve/execute`.
    pub fn detached<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Puts the outer spans back, also when `f` unwinds.
        struct Restore(Vec<&'static str>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let outer = std::mem::take(&mut self.0);
                SPAN_STACK.with(|stack| *stack.borrow_mut() = outer);
            }
        }
        if self.inner.is_none() {
            return f();
        }
        let _restore = Restore(SPAN_STACK.with(|stack| std::mem::take(&mut *stack.borrow_mut())));
        f()
    }

    /// Time `f` under a span (convenience for single-expression phases).
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }
}

struct ActiveSpan {
    recorder: Arc<dyn Recorder>,
    name: &'static str,
    path: String,
    started: Instant,
}

/// RAII guard returned by [`Obs::span`]; records the span on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let nanos = span.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards can in principle be dropped out of order; pop our own
            // entry specifically so a stray long-lived guard cannot corrupt
            // sibling paths.
            if let Some(pos) = stack.iter().rposition(|n| *n == span.name) {
                stack.remove(pos);
            }
        });
        span.recorder.record_span(&SpanEvent {
            name: span.name,
            path: span.path,
            nanos,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.add(names::DIFF_ROWS_EVALUATED, 5);
        obs.observe(names::POOL_CHUNK_MICROS, 5);
        let _g = obs.span(names::SPAN_EXECUTE);
        // Nothing to assert beyond "does not panic / allocate a recorder".
    }

    #[test]
    fn counters_accumulate() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        obs.add(names::DIFF_ROWS_EVALUATED, 2);
        obs.add(names::DIFF_ROWS_EVALUATED, 3);
        obs.add(names::DIFF_JOINS_PERFORMED, 0); // zero deltas are skipped
        assert_eq!(rec.counter(names::DIFF_ROWS_EVALUATED), 5);
        assert_eq!(rec.counter(names::DIFF_JOINS_PERFORMED), 0);
        assert!(!rec
            .snapshot()
            .counters
            .contains_key(names::DIFF_JOINS_PERFORMED));
    }

    #[test]
    fn counter_atomicity_under_threads() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let obs = obs.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        obs.add(names::POOL_CHUNKS, 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter(names::POOL_CHUNKS), 8_000);
    }

    /// Regression: `snapshot()` must be a consistent cut across
    /// counters. The writer bumps `rows` strictly before `joins`, so no
    /// valid snapshot can ever show `joins` ahead of `rows`; the old
    /// read-lock snapshot interleaved with in-flight `fetch_add`s and
    /// could.
    #[test]
    fn snapshot_is_a_consistent_cut_across_counters() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        // Materialize both counters before racing so the snapshot always
        // sees both keys.
        obs.add(names::DIFF_ROWS_EVALUATED, 1);
        obs.add(names::DIFF_JOINS_PERFORMED, 1);
        std::thread::scope(|s| {
            let writer = obs.clone();
            s.spawn(move || {
                for _ in 0..2_000 {
                    writer.add(names::DIFF_ROWS_EVALUATED, 1);
                    writer.add(names::DIFF_JOINS_PERFORMED, 1);
                }
            });
            for _ in 0..200 {
                let snap = rec.snapshot();
                let rows = snap.counters[names::DIFF_ROWS_EVALUATED];
                let joins = snap.counters[names::DIFF_JOINS_PERFORMED];
                assert!(
                    rows >= joins,
                    "snapshot saw joins={joins} ahead of rows={rows}"
                );
            }
        });
    }

    #[test]
    fn histogram_summary_tracks_bounds() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        for v in [5u64, 1, 9, 5] {
            obs.observe(names::DIFF_ROW_OUTPUT_TUPLES, v);
        }
        let h = rec.histogram(names::DIFF_ROW_OUTPUT_TUPLES);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 9);
        assert_eq!(h.mean(), 5);
    }

    #[test]
    fn spans_nest_into_paths() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        {
            let _outer = obs.span(names::SPAN_EXECUTE);
            {
                let _inner = obs.span(names::SPAN_FILTER);
            }
            {
                let _inner = obs.span(names::SPAN_DIFFERENTIATE);
            }
        }
        {
            let _again = obs.span(names::SPAN_EXECUTE);
        }
        assert_eq!(rec.span("execute").count, 2);
        assert_eq!(rec.span("execute/filter").count, 1);
        assert_eq!(rec.span("execute/differentiate").count, 1);
        // After everything closed, a new root span is a root path again.
        {
            let _root = obs.span(names::SPAN_CHECKPOINT);
        }
        assert_eq!(rec.span("checkpoint").count, 1);
    }

    #[test]
    fn detached_spans_are_roots_and_the_outer_path_resumes() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        {
            let _outer = obs.span(names::SPAN_SERVE);
            obs.detached(|| {
                let _exec = obs.span(names::SPAN_EXECUTE);
                let _filter = obs.span(names::SPAN_FILTER);
            });
            let _after = obs.span(names::SPAN_FILTER);
        }
        assert_eq!(rec.span("execute").count, 1);
        assert_eq!(rec.span("execute/filter").count, 1);
        assert_eq!(rec.span("serve/execute").count, 0);
        assert_eq!(rec.span("serve/filter").count, 1);
        assert_eq!(rec.span("serve").count, 1);
    }

    #[test]
    fn spans_on_other_threads_are_their_own_roots() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        let _outer = obs.span(names::SPAN_EXECUTE);
        std::thread::scope(|s| {
            let obs = obs.clone();
            s.spawn(move || {
                let _worker = obs.span(names::SPAN_FILTER);
            });
        });
        assert_eq!(rec.span("filter").count, 1, "worker span is a root");
        assert_eq!(rec.span("execute/filter").count, 0);
    }

    #[test]
    fn snapshot_display_is_deterministic() {
        let rec = InMemoryRecorder::new();
        rec.add_counter(names::DIFF_ROWS_EVALUATED, 7);
        rec.observe(names::POOL_CHUNK_MICROS, 40);
        rec.record_span(&SpanEvent {
            name: names::SPAN_EXECUTE,
            path: "execute".into(),
            nanos: 2_000,
        });
        let text = rec.snapshot().to_string();
        assert!(text.contains("diff.rows_evaluated"));
        assert!(text.contains("pool.chunk_micros"));
        assert!(text.contains("execute"));
        let empty = InMemoryRecorder::new().snapshot().to_string();
        assert!(empty.contains("no metrics recorded"));
    }

    #[test]
    fn reset_clears_everything() {
        let rec = InMemoryRecorder::new();
        rec.add_counter(names::WAL_SYNCS, 3);
        rec.observe(names::POOL_CHUNK_MICROS, 1);
        rec.reset();
        assert_eq!(rec.counter(names::WAL_SYNCS), 0);
        assert_eq!(rec.snapshot(), Snapshot::default());
    }

    #[test]
    fn json_lines_recorder_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("ivm-obs-test-{}.jsonl", std::process::id()));
        {
            let rec = JsonLinesRecorder::create(&path).unwrap();
            let obs = Obs::new(Arc::new(rec));
            obs.add(names::WAL_SYNCS, 2);
            obs.observe(names::POOL_CHUNK_MICROS, 17);
            let _g = obs.span(names::SPAN_CHECKPOINT);
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"wal.syncs\",\"delta\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"histogram\",\"name\":\"pool.chunk_micros\",\"value\":17}"
        );
        assert!(lines[2].starts_with("{\"type\":\"span\",\"path\":\"checkpoint\",\"nanos\":"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        recorder::escape_for_test("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in names::ALL_COUNTERS
            .iter()
            .chain(names::ALL_HISTOGRAMS)
            .chain(names::ALL_SPANS)
        {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "bad metric name {name}"
            );
        }
    }
}
