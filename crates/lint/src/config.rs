//! Scope configuration: which paths each source rule applies to.
//!
//! The defaults encode the project's rules (documented in
//! `docs/ANALYSIS.md`); tests construct narrower configs by hand. Paths
//! are repo-relative with `/` separators; a scope entry matches a file
//! when it is a prefix of the file's path (so `crates/parallel/src/`
//! covers the whole crate) or equal to it.

/// Path scopes and catalog knowledge driving [`crate::source`].
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Engine hot paths: `no-panic` and `no-unchecked-index` apply here.
    pub hot_paths: Vec<String>,
    /// Sim-deterministic code: `no-ambient-time` applies here.
    pub deterministic: Vec<String>,
    /// The one file allowed to spell metric/span names as literals.
    pub catalog_file: String,
    /// Dotted metric names from the catalog (`filter.tuples_checked`, …).
    pub metric_names: Vec<String>,
    /// Span names from the catalog (`execute`, `checkpoint`, …).
    pub span_names: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_paths: vec![
                // The §5 engine lives in spj.rs; the pool and the WAL are
                // the other two layers every maintenance run crosses.
                "crates/core/src/differential/spj.rs".into(),
                // Join-key indexes sit on both the probe path (every
                // differential join term) and the apply path (maintained
                // per changed tuple).
                "crates/relational/src/index.rs".into(),
                "crates/parallel/src/".into(),
                "crates/storage/src/wal.rs".into(),
                // The serving layer's per-request path: snapshot read
                // and wire decode run once per client operation.
                "crates/core/src/snapshot.rs".into(),
                "crates/serve/src/protocol.rs".into(),
                // The accept/dispatch loop every client session runs
                // through, and the model checker whose verdicts the
                // analyze gate trusts — a panic in either aborts the
                // server or fakes a green gate.
                "crates/serve/src/server.rs".into(),
                "crates/race/src/".into(),
            ],
            deterministic: vec![
                // Everything a simulation run executes must be a pure
                // function of the seed (docs/TESTING.md): the maintenance
                // core, the relational layer, the solver, storage, the
                // pool, and the simulator itself.
                "crates/core/src/".into(),
                "crates/relational/src/".into(),
                "crates/satisfiability/src/".into(),
                "crates/storage/src/".into(),
                "crates/parallel/src/".into(),
                "crates/sim/src/".into(),
                // Exploration statistics and counterexample schedules
                // must be reproducible run-over-run.
                "crates/race/src/".into(),
            ],
            catalog_file: "crates/obs/src/names.rs".into(),
            metric_names: Vec::new(),
            span_names: Vec::new(),
        }
    }
}

impl LintConfig {
    /// True when `path` falls inside one of the `scopes` entries.
    pub fn in_scope(path: &str, scopes: &[String]) -> bool {
        scopes
            .iter()
            .any(|s| path == s || (s.ends_with('/') && path.starts_with(s.as_str())))
    }

    /// Is the file an engine hot path?
    pub fn is_hot_path(&self, path: &str) -> bool {
        Self::in_scope(path, &self.hot_paths)
    }

    /// Is the file in sim-deterministic code?
    pub fn is_deterministic(&self, path: &str) -> bool {
        Self::in_scope(path, &self.deterministic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        let cfg = LintConfig::default();
        assert!(cfg.is_hot_path("crates/parallel/src/lib.rs"));
        assert!(cfg.is_hot_path("crates/core/src/differential/spj.rs"));
        assert!(cfg.is_hot_path("crates/relational/src/index.rs"));
        assert!(!cfg.is_hot_path("crates/relational/src/relation.rs"));
        assert!(cfg.is_hot_path("crates/core/src/snapshot.rs"));
        assert!(cfg.is_hot_path("crates/serve/src/protocol.rs"));
        assert!(!cfg.is_hot_path("crates/core/src/manager.rs"));
        assert!(cfg.is_hot_path("crates/serve/src/server.rs"));
        assert!(cfg.is_hot_path("crates/race/src/explore.rs"));
        assert!(cfg.is_deterministic("crates/race/src/explore.rs"));
        assert!(cfg.is_deterministic("crates/sim/src/rng.rs"));
        assert!(!cfg.is_deterministic("crates/obs/src/lib.rs"));
        assert!(!cfg.is_deterministic("crates/bench/src/lib.rs"));
    }
}
