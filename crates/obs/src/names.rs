//! The metric catalog: every counter, histogram and span name emitted by
//! the maintenance layers, as `&'static str` constants.
//!
//! Centralizing the names serves three purposes:
//!
//! 1. Emitting code cannot typo a name — it references a constant.
//! 2. `docs/OBSERVABILITY.md` documents each metric; the CI script
//!    `ci/check_metrics.sh` greps every metric name mentioned there
//!    against this file, so the catalog and the docs cannot drift apart.
//! 3. Consumers (the shell's `\stats`, tests, benches) match on the same
//!    constants instead of string literals.
//!
//! Naming scheme: `layer.metric`, lowercase, dot-separated. Spans use
//! bare phase names; nested spans render as `/`-joined paths (e.g.
//! `execute/differentiate`).

// --- §4 relevance filter ---------------------------------------------

/// Counter: tuples examined by Algorithm 4.1 (inserted + deleted).
pub const FILTER_TUPLES_CHECKED: &str = "filter.tuples_checked";
/// Counter: tuples that passed the Theorem 4.1 test (kept for §5).
pub const FILTER_TUPLES_ADMITTED: &str = "filter.tuples_admitted";
/// Counter: tuples proved irrelevant and dropped before the engine ran.
pub const FILTER_TUPLES_FILTERED: &str = "filter.tuples_filtered";
/// Counter: invariant-graph constructions (one Floyd–Warshall APSP pass
/// per view term and base operand, paid once when the view is registered
/// or recovered).
pub const FILTER_GRAPHS_BUILT: &str = "filter.graphs_built";
/// Histogram (µs): wall time of one invariant-graph construction,
/// dominated by the O(n³) all-pairs-shortest-path pass.
pub const FILTER_APSP_BUILD_MICROS: &str = "filter.apsp_build_micros";

// --- §5 differential engine ------------------------------------------

/// Counter: truth-table rows actually evaluated (≤ 2^k − 1).
pub const DIFF_ROWS_EVALUATED: &str = "diff.rows_evaluated";
/// Counter: truth-table rows pruned before evaluation (empty prefix).
pub const DIFF_ROWS_PRUNED: &str = "diff.rows_pruned";
/// Counter: binary join operations performed across all rows.
pub const DIFF_JOINS_PERFORMED: &str = "diff.joins_performed";
/// Counter: joins skipped by prefix sharing / empty-operand pruning.
pub const DIFF_JOINS_SKIPPED: &str = "diff.joins_skipped";
/// Counter: operand tuple occurrences fed into row evaluations.
pub const DIFF_OPERAND_TUPLES: &str = "diff.operand_tuples";
/// Counter: net inserted tuple occurrences in produced view deltas.
pub const DIFF_OUTPUT_INSERTS: &str = "diff.output_inserts";
/// Counter: net deleted tuple occurrences in produced view deltas.
pub const DIFF_OUTPUT_DELETES: &str = "diff.output_deletes";
/// Histogram (tuples): output cardinality of one truth-table row after
/// the residual condition and final projection.
pub const DIFF_ROW_OUTPUT_TUPLES: &str = "diff.row_output_tuples";
/// Counter: distinct `insert`-tagged entries in tagged-engine row output.
pub const DIFF_TAG_INSERTS: &str = "diff.tag_inserts";
/// Counter: distinct `delete`-tagged entries in tagged-engine row output.
pub const DIFF_TAG_DELETES: &str = "diff.tag_deletes";
/// Counter: distinct `old`-tagged entries in tagged-engine row output
/// (context tuples that cancel out of the final delta).
pub const DIFF_TAG_OLDS: &str = "diff.tag_olds";

// --- join-key indexes -------------------------------------------------

/// Counter: join-key hash indexes built (initial builds at view
/// registration plus rebuilds after recovery).
pub const INDEX_BUILDS: &str = "index.builds";
/// Counter: index probes issued by the differential engine (one per
/// prefix tuple per probe join).
pub const INDEX_PROBES: &str = "index.probes";
/// Counter: index postings visited by probes (including fully-deleted
/// postings skipped during `r − d_r` subtraction).
pub const INDEX_PROBE_ROWS: &str = "index.probe_rows";
/// Counter: tuple occurrences written through index maintenance while
/// applying base-table transactions (changed tuples × indexes touched).
pub const INDEX_MAINTENANCE_ROWS: &str = "index.maintenance_rows";
/// Histogram (bytes): estimated resident size of all join indexes of one
/// touched relation, sampled after each transaction apply.
pub const INDEX_MEMORY_BYTES: &str = "index.memory_bytes";

// --- view manager -----------------------------------------------------

/// Counter: transactions executed through [`ViewManager::execute`]
/// (whether or not any view was touched).
///
/// [`ViewManager::execute`]: https://docs.rs/ivm
pub const MANAGER_TRANSACTIONS: &str = "manager.transactions";
/// Counter: per-view differential maintenance runs.
pub const MANAGER_MAINTENANCE_RUNS: &str = "manager.maintenance_runs";
/// Counter: per-view skips where the filter proved the whole transaction
/// irrelevant.
pub const MANAGER_SKIPPED_BY_FILTER: &str = "manager.skipped_by_filter";
/// Counter: full re-evaluations chosen by the maintenance strategy.
pub const MANAGER_FULL_RECOMPUTES: &str = "manager.full_recomputes";

// --- view dependency DAG ----------------------------------------------

/// Counter: DAG nodes (SPJ views) brought up to date during transaction
/// commits — differential runs plus full
/// recomputes, but not filter-skips.
pub const DAG_NODES_MAINTAINED: &str = "dag.nodes_maintained";
/// Histogram (views): number of DAG nodes maintained together in one
/// topological stratum of one transaction (the fan-out width the parallel
/// pool can exploit).
pub const DAG_STRATUM_WIDTH: &str = "dag.stratum_width";

// --- parallel pool ----------------------------------------------------

/// Counter: chunks dispatched to pool workers.
pub const POOL_CHUNKS: &str = "pool.chunks";
/// Histogram (µs): wall time of one worker's chunk body.
pub const POOL_CHUNK_MICROS: &str = "pool.chunk_micros";
/// Histogram (µs): delay between fan-out start and a chunk beginning to
/// run (spawn latency / queue wait).
pub const POOL_QUEUE_WAIT_MICROS: &str = "pool.queue_wait_micros";

// --- WAL / checkpoint path --------------------------------------------

/// Counter: records appended to the write-ahead log.
pub const WAL_RECORDS_APPENDED: &str = "wal.records_appended";
/// Counter: payload + frame-header bytes appended to the WAL.
pub const WAL_BYTES_APPENDED: &str = "wal.bytes_appended";
/// Counter: explicit `fdatasync` points issued on the WAL.
pub const WAL_SYNCS: &str = "wal.syncs";
/// Counter: WAL compaction passes that actually rewrote the log.
pub const WAL_COMPACTIONS: &str = "wal.compactions";
/// Counter: bytes reclaimed by WAL compaction (savings).
pub const WAL_BYTES_RECLAIMED: &str = "wal.bytes_reclaimed";
/// Counter: checkpoints written.
pub const CHECKPOINTS_WRITTEN: &str = "checkpoint.written";
/// Counter: bytes of checkpoint images written, frame header included
/// (compare one image with `MAX_FRAME_LEN`, the 64 MiB frame limit).
pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes";

// --- serving layer ----------------------------------------------------

/// Counter: requests served over the wire (every decoded frame that
/// produced a response, including error responses).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Counter: malformed frames / undecodable requests observed by server
/// sessions (the `serve-smoke` CI gate asserts this stays zero).
pub const SERVE_PROTOCOL_ERRORS: &str = "serve.protocol_errors";
/// Counter: client sessions accepted.
pub const SERVE_SESSIONS_OPENED: &str = "serve.sessions_opened";
/// Counter: client sessions ended (active sessions = opened − closed).
pub const SERVE_SESSIONS_CLOSED: &str = "serve.sessions_closed";
/// Counter: write transactions applied through the serving layer.
pub const SERVE_TXNS_EXECUTED: &str = "serve.txns_executed";
/// Counter: view tuples returned to clients by query responses.
pub const SERVE_ROWS_RETURNED: &str = "serve.rows_returned";
/// Histogram (µs): server-side service time of one request, from decoded
/// frame to response flushed. Client-observed p50/p99 (queueing + wire
/// included) are computed by the load generator from its own samples.
pub const SERVE_REQUEST_MICROS: &str = "serve.request_micros";
/// Histogram (epochs): staleness of the snapshot a query was served
/// from, measured as `hub epoch − snapshot epoch` at read time.
pub const SERVE_SNAPSHOT_AGE_EPOCHS: &str = "serve.snapshot_age_epochs";

// --- span names -------------------------------------------------------

/// Span: one whole [`ViewManager::execute`] call.
///
/// [`ViewManager::execute`]: https://docs.rs/ivm
pub const SPAN_EXECUTE: &str = "execute";
/// Span: WAL append + sync (the commit point), under `execute`.
pub const SPAN_LOG: &str = "log";
/// Span: §4 relevance filtering of one view's update sets, under
/// `execute`.
pub const SPAN_FILTER: &str = "filter";
/// Span: one §5 differential engine run, under `execute`.
pub const SPAN_DIFFERENTIATE: &str = "differentiate";
/// Span: base-table + view-delta application and listener dispatch,
/// under `execute`.
pub const SPAN_APPLY: &str = "apply";
/// Span: one checkpoint (snapshot write + prune + WAL compaction).
pub const SPAN_CHECKPOINT: &str = "checkpoint";
/// Span: one serving-layer request (decode, dispatch, respond).
pub const SPAN_SERVE: &str = "serve";

/// Every counter name in the catalog (used by tests to keep this module
/// and the docs exhaustive).
pub const ALL_COUNTERS: &[&str] = &[
    FILTER_TUPLES_CHECKED,
    FILTER_TUPLES_ADMITTED,
    FILTER_TUPLES_FILTERED,
    FILTER_GRAPHS_BUILT,
    DIFF_ROWS_EVALUATED,
    DIFF_ROWS_PRUNED,
    DIFF_JOINS_PERFORMED,
    DIFF_JOINS_SKIPPED,
    DIFF_OPERAND_TUPLES,
    DIFF_OUTPUT_INSERTS,
    DIFF_OUTPUT_DELETES,
    DIFF_TAG_INSERTS,
    DIFF_TAG_DELETES,
    DIFF_TAG_OLDS,
    INDEX_BUILDS,
    INDEX_PROBES,
    INDEX_PROBE_ROWS,
    INDEX_MAINTENANCE_ROWS,
    MANAGER_TRANSACTIONS,
    MANAGER_MAINTENANCE_RUNS,
    MANAGER_SKIPPED_BY_FILTER,
    MANAGER_FULL_RECOMPUTES,
    DAG_NODES_MAINTAINED,
    POOL_CHUNKS,
    WAL_RECORDS_APPENDED,
    WAL_BYTES_APPENDED,
    WAL_SYNCS,
    WAL_COMPACTIONS,
    WAL_BYTES_RECLAIMED,
    CHECKPOINTS_WRITTEN,
    CHECKPOINT_BYTES,
    SERVE_REQUESTS,
    SERVE_PROTOCOL_ERRORS,
    SERVE_SESSIONS_OPENED,
    SERVE_SESSIONS_CLOSED,
    SERVE_TXNS_EXECUTED,
    SERVE_ROWS_RETURNED,
];

/// Every histogram name in the catalog.
pub const ALL_HISTOGRAMS: &[&str] = &[
    FILTER_APSP_BUILD_MICROS,
    DIFF_ROW_OUTPUT_TUPLES,
    DAG_STRATUM_WIDTH,
    INDEX_MEMORY_BYTES,
    POOL_CHUNK_MICROS,
    POOL_QUEUE_WAIT_MICROS,
    SERVE_REQUEST_MICROS,
    SERVE_SNAPSHOT_AGE_EPOCHS,
];

/// Every span name in the catalog.
pub const ALL_SPANS: &[&str] = &[
    SPAN_EXECUTE,
    SPAN_LOG,
    SPAN_FILTER,
    SPAN_DIFFERENTIATE,
    SPAN_APPLY,
    SPAN_CHECKPOINT,
    SPAN_SERVE,
];
