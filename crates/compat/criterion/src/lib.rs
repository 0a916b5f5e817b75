//! A vendored, std-only stand-in for the subset of the `criterion` API this
//! workspace's benches use (`benchmark_group`, `bench_function`,
//! `bench_with_input`, `iter`, `iter_batched`, `BenchmarkId`, `Throughput`,
//! `criterion_group!` / `criterion_main!`).
//!
//! The container this repository builds in has no network access to
//! crates.io, so the real `criterion` crate cannot be fetched. This
//! implementation is a plain wall-clock harness: it warms each benchmark
//! up, times batches (each sized to about a tenth of the budget) until a
//! fixed measurement budget is spent, and prints the mean iteration time,
//! then the median, median absolute deviation and minimum of the
//! per-batch means (plus throughput when configured):
//!
//! ```text
//! group/id: 13.47 µs per iter (4455 iters; batch median 13.20 µs, MAD 0.11 µs, min 12.91 µs)
//! ```
//!
//! `ci/bench_to_json.sh` reads the batch median: the median and minimum
//! are less sensitive than the mean to a batch that a busy host slowed
//! down, and the MAD says how far the batches spread around the median,
//! so two runs whose medians differ by less than it do not differ. There
//! are no plots or baselines — enough to compare differential
//! maintenance against full re-evaluation, not to publish.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group: a function name plus an
/// optional parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark id with a function name and parameter value.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// A benchmark id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_owned(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.name[..], &self.parameter) {
            ("", Some(p)) => write!(f, "{p}"),
            (n, Some(p)) => write!(f, "{n}/{p}"),
            (n, None) => write!(f, "{n}"),
        }
    }
}

/// Throughput annotation for a group; reported alongside timings.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How per-iteration inputs are sized in [`Bencher::iter_batched`].
/// Retained for API compatibility; this harness treats all variants alike.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small setup output.
    SmallInput,
    /// Large setup output.
    LargeInput,
    /// Fresh setup every iteration.
    PerIteration,
}

/// What one benchmark measured.
#[derive(Debug, Clone, Default)]
struct Measurement {
    total: Duration,
    iters: u64,
    /// Mean iteration time of each timed batch.
    batch_means: Vec<Duration>,
}

impl Measurement {
    fn record(&mut self, spent: Duration, batch: u64) {
        self.total += spent;
        self.iters += batch;
        self.batch_means.push(per_iter(spent, batch));
    }

    fn mean(&self) -> Duration {
        per_iter(self.total, self.iters)
    }

    /// Median, median absolute deviation and minimum of the batch means.
    fn median_mad_min(&self) -> (Duration, Duration, Duration) {
        let mut means = self.batch_means.clone();
        means.sort_unstable();
        let mid = median(&means);
        let mut deviations: Vec<Duration> = means.iter().map(|m| m.abs_diff(mid)).collect();
        deviations.sort_unstable();
        (
            mid,
            median(&deviations),
            means.first().copied().unwrap_or_default(),
        )
    }
}

/// Median of sorted durations; zero when there are none.
fn median(sorted: &[Duration]) -> Duration {
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => sorted[mid],
        _ => (sorted[mid - 1] + sorted[mid]) / 2,
    }
}

fn per_iter(spent: Duration, iters: u64) -> Duration {
    Duration::from_nanos((spent.as_nanos() / u128::from(iters.max(1))) as u64)
}

/// Iterations in the next batch: about a tenth of the budget's worth
/// (at most what remains), at least one, at most `cap`.
fn batch_len(budget: Duration, remaining: Duration, est: Duration, cap: u64) -> u64 {
    let target = (budget / 10).min(remaining);
    (target.as_nanos() / est.as_nanos()).clamp(1, u128::from(cap)) as u64
}

/// Times one benchmark's iterations.
pub struct Bencher<'a> {
    measurement_budget: Duration,
    /// Filled in by `iter*`.
    result: &'a mut Option<Measurement>,
}

impl Bencher<'_> {
    /// Time a routine repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + per-iteration cost estimate.
        let warm_start = Instant::now();
        black_box(routine());
        let est = warm_start.elapsed().max(Duration::from_nanos(1));
        let mut remaining = self.measurement_budget;
        let mut m = Measurement::default();
        while remaining > Duration::ZERO {
            let batch = batch_len(self.measurement_budget, remaining, est, 10_000);
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let spent = start.elapsed();
            m.record(spent, batch);
            remaining = remaining.saturating_sub(spent);
        }
        *self.result = Some(m);
    }

    /// Time a routine whose input is rebuilt (untimed) for every batch.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let warm_start = Instant::now();
        black_box(routine(input));
        let est = warm_start.elapsed().max(Duration::from_nanos(1));
        let mut remaining = self.measurement_budget;
        let mut m = Measurement::default();
        while remaining > Duration::ZERO {
            let batch = batch_len(self.measurement_budget, remaining, est, 1_000);
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let spent = start.elapsed();
            m.record(spent, batch);
            remaining = remaining.saturating_sub(spent);
        }
        *self.result = Some(m);
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes measurement by
    /// wall-clock budget, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility (see [`Criterion`] budget).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Set the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let id = id.into();
        let mut result = None;
        let mut bencher = Bencher {
            measurement_budget: self.criterion.measurement_budget,
            result: &mut result,
        };
        f(&mut bencher);
        self.report(&id, result);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let id = id.into();
        let mut result = None;
        let mut bencher = Bencher {
            measurement_budget: self.criterion.measurement_budget,
            result: &mut result,
        };
        f(&mut bencher, input);
        self.report(&id, result);
        self
    }

    fn report(&self, id: &BenchmarkId, result: Option<Measurement>) {
        let Some(m) = result else {
            println!("{}/{id}: no measurement taken", self.name);
            return;
        };
        let mean = m.mean();
        let (median, mad, min) = m.median_mad_min();
        let mut line = format!(
            "{}/{id}: {} per iter ({} iters; batch median {}, MAD {}, min {})",
            self.name,
            format_duration(mean),
            m.iters,
            format_duration(median),
            format_duration(mad),
            format_duration(min)
        );
        if let Some(tp) = self.throughput {
            let per_sec = |units: u64| {
                let secs = mean.as_secs_f64();
                if secs > 0.0 {
                    units as f64 / secs
                } else {
                    f64::INFINITY
                }
            };
            match tp {
                Throughput::Elements(n) => {
                    line.push_str(&format!(", {:.0} elem/s", per_sec(n)));
                }
                Throughput::Bytes(n) => {
                    line.push_str(&format!(", {:.0} B/s", per_sec(n)));
                }
            }
        }
        println!("{line}");
    }

    /// End the group (prints nothing extra; provided for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    measurement_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Overridable so CI smoke runs can keep bench binaries quick.
        let ms = std::env::var("CRITERION_MEASUREMENT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Criterion {
            measurement_budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Accepted for API compatibility; CLI arguments are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Begin a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }

    /// Run a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Bundle benchmark functions into a runnable group, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("diff", 10).to_string(), "diff/10");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
        assert_eq!(BenchmarkId::from("plain").to_string(), "plain");
    }

    #[test]
    fn median_mad_and_min_of_batch_means() {
        let mut m = Measurement::default();
        for (ms, batch) in [(40, 4), (10, 2), (90, 3), (8, 2)] {
            m.record(Duration::from_millis(ms), batch);
        }
        // Batch means 10, 5, 30, 4 ms; mean 148 ms / 11 iterations.
        // Deviations from the 7.5 ms median: 2.5, 2.5, 3.5, 22.5 ms.
        assert_eq!(m.mean(), Duration::from_nanos(148_000_000 / 11));
        assert_eq!(
            m.median_mad_min(),
            (
                Duration::from_micros(7_500),
                Duration::from_millis(3),
                Duration::from_millis(4)
            )
        );
        // Means 4, 5, 6, 10, 30 ms: median 6, deviations 2, 1, 0, 4, 24.
        m.record(Duration::from_millis(6), 1);
        assert_eq!(
            m.median_mad_min(),
            (
                Duration::from_millis(6),
                Duration::from_millis(2),
                Duration::from_millis(4)
            )
        );
        assert_eq!(Measurement::default().median_mad_min().1, Duration::ZERO);
    }

    #[test]
    fn batches_take_a_tenth_of_the_budget() {
        let ms = Duration::from_millis;
        assert_eq!(batch_len(ms(100), ms(100), ms(1), 10_000), 10);
        assert_eq!(batch_len(ms(100), ms(3), ms(1), 10_000), 3);
        assert_eq!(batch_len(ms(100), ms(100), ms(50), 10_000), 1);
        assert_eq!(batch_len(ms(100_000), ms(100_000), ms(1), 1_000), 1_000);
    }

    #[test]
    fn bench_measures_something() {
        std::env::set_var("CRITERION_MEASUREMENT_MS", "5");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        group.throughput(Throughput::Elements(4));
        let mut ran = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        group.bench_with_input(BenchmarkId::new("sum", 3), &3u64, |b, &n| {
            b.iter_batched(
                || (0..n).collect::<Vec<u64>>(),
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert!(ran > 0);
    }
}
