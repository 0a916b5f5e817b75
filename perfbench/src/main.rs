//! End-to-end benchmark of the IVM engine.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as its last line, one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See README.md for the workloads and metrics.

mod embed;
mod gen;
mod probes;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gen::Workload;

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed warm-up before the measured window: the first second or so
/// after set-up runs measurably slower.
const WARMUP_SECONDS: f64 = 1.5;

/// The warm-up and the measured window of a process, both bounded by wall
/// time. The state stays flat (every write deletes as many rows as it
/// inserts), so every operation does the same work wherever it falls.
pub struct Window {
    warm_until: Instant,
    measure: Duration,
    start: Option<Instant>,
    end: Option<Instant>,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Window {
            warm_until: Instant::now() + Duration::from_secs_f64(WARMUP_SECONDS),
            measure: Duration::from_secs_f64(seconds),
            start: None,
            end: None,
        }
    }

    /// For the operation about to start: `Some(false)` during warm-up,
    /// `Some(true)` inside the measured window, `None` once it is over.
    pub fn next(&mut self) -> Option<bool> {
        let now = Instant::now();
        match self.start {
            None if now < self.warm_until => Some(false),
            None => {
                self.start = Some(now);
                Some(true)
            }
            Some(start) if now < start + self.measure => Some(true),
            Some(_) => {
                self.end.get_or_insert(now);
                None
            }
        }
    }

    /// Start and end of the measured window, in nanoseconds since `origin`.
    pub fn bounds(&self, origin: Instant) -> (u64, u64) {
        let start = self.start.unwrap_or(origin);
        (since(origin, start), since(origin, self.end.unwrap_or(start)))
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_secs: Vec<f64>,
    /// Client-observed latency of each measured write, in nanoseconds.
    pub writes: Vec<u64>,
    /// Client-observed latency of each measured read, in nanoseconds.
    pub reads: Vec<u64>,
    /// Start and end of the measured window, in nanoseconds since the origin.
    pub window: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, each also counted in `failed`.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only): name → (value, unit).
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// Sizes and widths the result depends on.
    pub env: Vec<(&'static str, String)>,
    /// Spans the benchmark recorded around its calls (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Measured {
    /// Count a failed operation or gate check; the first few are kept for
    /// the report.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.insert(name, (value, unit));
    }
}

/// Nearest-rank percentile of unsorted samples, in the samples' unit.
pub fn percentile(samples: &[u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Nanoseconds from `origin` to `t`.
pub fn since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One span the benchmark recorded around a call into the program.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of a traced run, written out when the run ends. A
/// span's parent is the innermost span opened with [`Tracer::within`].
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns: since(self.origin, start),
            end_ns: since(self.origin, end),
        });
    }

    /// Time `f` as one span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, op, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    /// Run `f` inside a span that parents every span recorded meanwhile.
    pub fn within(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer)) {
        let start = Instant::now();
        self.record(name, 0, start, start);
        let id = self.spans.len() - 1;
        self.open.push(id);
        f(self);
        self.open.pop();
        self.spans[id].end_ns = since(self.origin, Instant::now());
    }

    /// Per span name: count, total and self time (total minus the part
    /// of the interval covered by child spans).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Scratch space for durable state and span logs, inside the directory the
/// benchmark runs from.
pub fn scratch_dir(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!(
        "{}-seed{}-pid{}",
        workload.name(),
        seed,
        std::process::id()
    ))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_point_small|serve_view_large|embed_batch_join> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let dir = scratch_dir(args.workload, args.seed);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut m = match args.workload {
        Workload::ServePointSmall | Workload::ServeViewLarge => {
            serve::run(args.workload, args.seed, args.seconds, args.trace, &dir)
        }
        Workload::EmbedBatchJoin => embed::run(args.seed, args.seconds, args.trace, &dir),
    };
    m.env.insert(0, ("workload", args.workload.name().to_string()));
    m.env.insert(1, ("seed", args.seed.to_string()));
    m.env.insert(2, ("nproc", ivm_parallel::available_threads().to_string()));
    m.env.insert(
        3,
        ("resolve_threads(0)", ivm_parallel::resolve_threads(0).to_string()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    if std::fs::read_dir(".perfbench_tmp").is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }

    let window_s = m.window.1.saturating_sub(m.window.0) as f64 / 1e9;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, (value, unit)) in &m.layers {
            metrics.push((name, *value, unit));
        }
    } else {
        metrics.push(("setup_s", median_f64(&m.setup_secs), "s"));
        metrics.push(("write_p50_us", percentile(&m.writes, 50.0) / 1e3, "us"));
        metrics.push(("read_p50_us", percentile(&m.reads, 50.0) / 1e3, "us"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    }

    let mut out = std::io::stdout().lock();
    let env: Vec<String> = m.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(out, "# env {}", env.join(" "));
    let _ = writeln!(
        out,
        "# samples writes={} reads={} window_s={window_s:.3} setups={:?}",
        m.writes.len(),
        m.reads.len(),
        m.setup_secs
    );
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "# {name:<36} {value:>14.4} {unit}");
    }
    if let Some(t) = &m.tracer {
        let _ = writeln!(
            out,
            "# {:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_us", "self_us"
        );
        for (name, (count, total, own)) in t.summary() {
            let _ = writeln!(
                out,
                "# {name:<28} {count:>8} {:>14.1} {:>14.1}",
                total as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        let spans = Path::new(".perfbench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(".perfbench_out").and_then(|_| t.write_jsonl(&spans));
        match written {
            Ok(()) => {
                let _ = writeln!(out, "# spans written to {}", spans.display());
            }
            Err(e) => {
                let _ = writeln!(out, "# spans not written: {e}");
            }
        }
    }
    for p in &m.problems {
        let _ = writeln!(out, "# FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
}
