//! The command interpreter behind `examples/ivm_shell.rs`.
//!
//! Commands (one per line; `#` starts a comment):
//!
//! ```text
//! create <rel> (<attrs>)                     create a base relation
//! load <rel> (<tuple>) [(<tuple>)...]        bulk-load rows
//! view <name> [deferred|ondemand] = from <rels> [where <cond>] [project <attrs>]
//!                                            (operands may be previously defined views)
//! begin / insert <rel> (<tuple>) / delete <rel> (<tuple>) / commit
//! insert|delete outside begin..commit run as single-op transactions
//! show <rel-or-view>                         print contents
//! views                                      dependency DAG with per-node stats
//! stats <view>                               per-view maintenance statistics
//! stats                                      session-wide metrics snapshot
//! refresh <view>                             fold pending changes in
//! check <rel> (<tuple>) against <view>       Theorem 4.1 relevance verdict
//! analyze [<view> | from <body>]             definition-time static analysis
//! verify                                     compare views vs full re-eval
//! open <dir>                                 switch to a durable session
//! checkpoint                                 atomic snapshot of the session
//! wal-stats                                  WAL / checkpoint counters
//! serve <addr>                               serve this session over TCP and attach to it
//! connect <addr>                             attach to a running ivm-serve server
//! disconnect                                 detach (stops the server `serve` started)
//! help
//! ```
//!
//! Every command also accepts a psql-style `\` prefix (`\checkpoint`).
//!
//! While attached to a server (`serve`/`connect`), data commands —
//! `create`, `load`, `view`, `insert`/`delete`/`begin`/`commit`, `show`,
//! `refresh`, `stats` — are routed over the wire (see `docs/SERVING.md`);
//! `show` reads the server's published snapshot, so it only resolves
//! view names. Local-only commands (`open`, `checkpoint`, `analyze`,
//! ...) ask you to `disconnect` first.
//!
//! The shell keeps an [`InMemoryRecorder`] attached to its manager, so
//! `\stats` (no argument) prints the full metric snapshot — every
//! `filter.*`, `diff.*`, `manager.*`, `pool.*` and `wal.*` counter plus
//! the `execute/...` span tree documented in `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use ivm::prelude::*;
use ivm_relational::parser::{parse_condition, parse_schema, parse_tuple};

/// An attached serving session: the wire client, plus the in-process
/// [`ivm_serve::Server`] when this shell started it (`serve` vs
/// `connect`).
struct Remote {
    client: ivm_serve::Client,
    addr: String,
    /// `Some` when `serve` started the server in-process: `disconnect`
    /// then stops it and takes the [`ViewManager`] back.
    server: Option<ivm_serve::Server>,
}

/// An interactive session: a [`ViewManager`] plus an optional open
/// transaction.
pub struct Shell {
    manager: ViewManager,
    /// Session-wide metrics backend; `\stats` prints its snapshot.
    recorder: Arc<InMemoryRecorder>,
    pending: Option<Transaction>,
    /// When attached, data commands route over the wire.
    remote: Option<Remote>,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    /// A fresh session over an empty database.
    pub fn new() -> Self {
        let recorder = Arc::new(InMemoryRecorder::new());
        Shell {
            manager: ViewManager::new().with_recorder(recorder.clone()),
            recorder,
            pending: None,
            remote: None,
        }
    }

    /// Access the underlying manager (e.g. for inspection in tests).
    pub fn manager(&self) -> &ViewManager {
        &self.manager
    }

    /// The session metrics recorder behind `\stats`.
    pub fn recorder(&self) -> &Arc<InMemoryRecorder> {
        &self.recorder
    }

    /// Interpret one command line, returning the text to print.
    pub fn dispatch(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        // psql-style `\checkpoint` etc. are accepted as aliases.
        let line = line.strip_prefix('\\').unwrap_or(line);
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let cmd = cmd.to_ascii_lowercase();
        if self.remote.is_some() {
            return self.dispatch_remote(&cmd, rest);
        }
        match cmd.as_str() {
            "serve" => return self.cmd_serve(rest),
            "connect" => return self.cmd_connect(rest),
            "disconnect" => return Ok("not connected".into()),
            _ => {}
        }
        match cmd.as_str() {
            "create" => self.cmd_create(rest),
            "load" => self.cmd_load(rest),
            "view" => self.cmd_view(rest),
            "begin" => {
                if self.pending.is_some() {
                    return Ok("already in a transaction".into());
                }
                self.pending = Some(Transaction::new());
                Ok("transaction started".into())
            }
            "insert" => self.cmd_change(rest, true),
            "delete" => self.cmd_change(rest, false),
            "commit" => match self.pending.take() {
                None => Ok("no open transaction".into()),
                Some(txn) => {
                    self.manager.execute(&txn)?;
                    Ok(format!("committed {} change(s)", txn.size()))
                }
            },
            "show" => self.cmd_show(rest),
            "views" => self.cmd_views(),
            "stats" => {
                if rest.is_empty() {
                    Ok(self.recorder.snapshot().to_string())
                } else {
                    self.cmd_stats(rest)
                }
            }
            "refresh" => {
                self.manager.refresh(rest)?;
                Ok(format!("view {rest} refreshed"))
            }
            "check" => self.cmd_check(rest),
            "analyze" => self.cmd_analyze(rest),
            "dump" => self.dump_script(),
            "save" => {
                let script = self.dump_script()?;
                std::fs::write(rest, script)
                    .map_err(|e| parse_err(format!("cannot write {rest}: {e}")))?;
                Ok(format!("saved to {rest}"))
            }
            "source" => {
                let script = std::fs::read_to_string(rest)
                    .map_err(|e| parse_err(format!("cannot read {rest}: {e}")))?;
                let mut executed = 0;
                for line in script.lines() {
                    let out = self.dispatch(line)?;
                    if !out.is_empty() {
                        executed += 1;
                    }
                }
                Ok(format!("sourced {rest}: {executed} command(s)"))
            }
            "verify" => {
                self.manager.verify_consistency()?;
                Ok("all views consistent with full re-evaluation ✓".into())
            }
            "open" => self.cmd_open(rest),
            "checkpoint" => {
                let seq = self.manager.checkpoint()?;
                Ok(format!("checkpoint {seq} written"))
            }
            "wal-stats" => self.cmd_wal_stats(),
            "help" => Ok(HELP.trim().to_string()),
            "quit" | "exit" => Ok("bye".into()),
            other => Ok(format!("unknown command {other:?} — try `help`")),
        }
    }

    fn cmd_create(&mut self, rest: &str) -> Result<String> {
        let (name, schema_text) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err("usage: create <rel> (<attrs>)"))?;
        let schema = parse_schema(schema_text)?;
        self.manager.create_relation(name, schema.clone())?;
        Ok(format!("created {name} {schema}"))
    }

    fn cmd_load(&mut self, rest: &str) -> Result<String> {
        let (name, tuples_text) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err("usage: load <rel> (<tuple>) [(<tuple>)...]"))?;
        let mut rows = Vec::new();
        for part in split_tuples(tuples_text)? {
            rows.push(parse_tuple(&part)?);
        }
        let n = rows.len();
        self.manager.load(name, rows)?;
        Ok(format!("loaded {n} row(s) into {name}"))
    }

    fn cmd_view(&mut self, rest: &str) -> Result<String> {
        // view <name> [deferred|ondemand] = from R, S [where …] [project …]
        let (head, body) = rest
            .split_once('=')
            .ok_or_else(|| parse_err("usage: view <name> [deferred|ondemand] = from ..."))?;
        let mut head_parts = head.split_whitespace();
        let name = head_parts
            .next()
            .ok_or_else(|| parse_err("view needs a name"))?;
        let policy = match head_parts.next() {
            None => RefreshPolicy::Immediate,
            Some(p) if p.eq_ignore_ascii_case("deferred") => RefreshPolicy::Deferred,
            Some(p) if p.eq_ignore_ascii_case("ondemand") => RefreshPolicy::OnDemand,
            Some(p) => return Err(parse_err(format!("unknown policy {p:?}"))),
        };
        let expr = parse_view_body(body)?;
        // Definition-time static analysis (Frontend B of `ivm-lint`): a
        // statically-unsatisfiable condition means the materialization is
        // empty for every database instance — registering it is a bug in
        // the definition, so the shell refuses outright. Softer findings
        // (dead disjuncts, redundant atoms) register fine but warn.
        let analysis = ivm_lint::analyze_view(name, &expr, self.manager.database());
        if !analysis.satisfiable {
            return Err(parse_err(format!(
                "view {name} rejected: condition is statically unsatisfiable \
                 (empty for every database instance)\n{analysis}"
            )));
        }
        self.manager.register_view(name, expr.clone(), policy)?;
        let mut out = format!("registered {name} := {expr}");
        if !analysis.is_clean() {
            out.push_str(&format!(
                "\nwarning: definition-time findings (run `\\analyze {name}`):\n{}",
                analysis.to_string().trim_end()
            ));
        }
        Ok(out)
    }

    /// `analyze` — definition-time static analysis of view definitions
    /// (Frontend B of `ivm-lint`). Three forms:
    ///
    /// * `analyze` — every registered view, plus the structural DAG
    ///   analysis of the whole definition set (strata, reachability)
    /// * `analyze <view>` — one registered view
    /// * `analyze from …` — an ad-hoc candidate definition, without
    ///   registering it (the only way to inspect the full report of an
    ///   unsatisfiable definition, since `view` refuses to register one)
    fn cmd_analyze(&self, rest: &str) -> Result<String> {
        if rest.to_ascii_lowercase().starts_with("from") {
            let expr = parse_view_body(rest)?;
            let r = ivm_lint::analyze_view("<candidate>", &expr, self.manager.database());
            return Ok(r.to_string().trim_end().to_string());
        }
        let names: Vec<&str> = if rest.is_empty() {
            self.manager.view_names().collect()
        } else {
            if !self.manager.view_names().any(|n| n == rest) {
                return Err(parse_err(format!("unknown view `{rest}`")));
            }
            vec![rest]
        };
        if names.is_empty() {
            return Ok("no views registered — try `analyze from R where ...`".into());
        }
        let mut out = String::new();
        let mut findings = 0;
        let mut defs: Vec<(String, SpjExpr)> = Vec::new();
        for name in names {
            let Ok(expr) = self.manager.view_expr(name) else {
                // Tree views have no SPJ definition to analyze.
                out.push_str(&format!("view {name}: tree view, skipped\n"));
                continue;
            };
            let r = ivm_lint::analyze_view(name, &expr, self.manager.database());
            findings += r.to_report().findings.len();
            out.push_str(&r.to_string());
            defs.push((name.to_owned(), expr));
        }
        // Whole-set structural analysis: how the definitions stack into a
        // DAG. The registry is acyclic by construction, so this reports
        // strata, never cycles.
        if rest.is_empty() && !defs.is_empty() {
            let dag = ivm_lint::analyze_dag(
                defs.iter().map(|(n, e)| (n.as_str(), e)),
                self.manager.database(),
            );
            findings += dag.to_report().findings.len();
            out.push_str(&dag.to_string());
        }
        out.push_str(&format!("{findings} definition-time finding(s)"));
        Ok(out)
    }

    /// `views` — the dependency DAG, stratum by stratum: every node, its
    /// operands and dependents, and per-node maintenance statistics from
    /// the last run.
    fn cmd_views(&self) -> Result<String> {
        use std::fmt::Write as _;
        let dag = self.manager.dag();
        let views: std::collections::BTreeSet<&str> = dag.iter().map(|n| n.name.as_str()).collect();
        if dag.is_empty() {
            return Ok("no views registered".into());
        }
        let mut out = String::new();
        let mut cur = usize::MAX;
        for node in &dag {
            if node.stratum != cur {
                cur = node.stratum;
                writeln!(out, "stratum {cur}:").expect("write to string");
            }
            let definition = match node.tree {
                None => node.expr.to_string(),
                Some(_) => render_terms(&node.terms),
            };
            writeln!(
                out,
                "  {} := {definition} [{}, {} row(s)]",
                node.name,
                policy_name(node.policy),
                node.rows
            )
            .expect("write to string");
            let mut ops: Vec<String> = Vec::new();
            for op in node.terms.iter().flat_map(|(_, t)| &t.relations) {
                let shown = if views.contains(op.as_str()) {
                    format!("{op} (view)")
                } else {
                    op.clone()
                };
                if !ops.contains(&shown) {
                    ops.push(shown);
                }
            }
            let feeds = if node.dependents.is_empty() {
                String::new()
            } else {
                format!("; feeds {}", node.dependents.join(", "))
            };
            writeln!(
                out,
                "      operands {}{feeds}; {} run(s), {} full, last Δ {} tuple(s), {} row(s) evaluated",
                ops.join(", "),
                node.stats.maintenance_runs,
                node.stats.full_recomputes,
                node.stats.last_delta_tuples,
                node.stats.last_rows_evaluated,
            )
            .expect("write to string");
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_change(&mut self, rest: &str, is_insert: bool) -> Result<String> {
        let (name, tuple_text) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err("usage: insert|delete <rel> (<tuple>)"))?;
        let tuple = parse_tuple(tuple_text)?;
        match &mut self.pending {
            Some(txn) => {
                if is_insert {
                    txn.insert(name, tuple)?;
                } else {
                    txn.delete(name, tuple)?;
                }
                Ok("queued".into())
            }
            None => {
                let mut txn = Transaction::new();
                if is_insert {
                    txn.insert(name, tuple)?;
                } else {
                    txn.delete(name, tuple)?;
                }
                self.manager.execute(&txn)?;
                Ok("applied".into())
            }
        }
    }

    fn cmd_show(&mut self, rest: &str) -> Result<String> {
        if self.manager.view_names().any(|v| v == rest) {
            let contents = self.manager.query(rest)?;
            return Ok(format!("{contents}"));
        }
        Ok(format!("{}", self.manager.database().relation(rest)?))
    }

    fn cmd_stats(&self, rest: &str) -> Result<String> {
        let s = self.manager.stats(rest)?;
        Ok(format!(
            "txns seen {}, maintenance runs {}, skipped by filter {}, full recomputes {}\n\
             filter: {} checked / {} relevant / {} irrelevant\n\
             engine: {}",
            s.transactions_seen,
            s.maintenance_runs,
            s.skipped_by_filter,
            s.full_recomputes,
            s.filter.checked,
            s.filter.relevant,
            s.filter.irrelevant,
            s.diff,
        ))
    }

    fn cmd_open(&mut self, rest: &str) -> Result<String> {
        if rest.is_empty() {
            return Err(parse_err("usage: open <dir>"));
        }
        if self.pending.is_some() {
            return Err(parse_err("commit or discard the open transaction first"));
        }
        self.manager = ViewManager::open(rest)?.with_recorder(self.recorder.clone());
        let report = self.manager.recovery_report().cloned().unwrap_or_default();
        let mut out = format!("opened {rest}");
        match report.checkpoint_seq {
            Some(seq) => out.push_str(&format!(
                ": checkpoint {seq} (lsn {}) restored",
                report.checkpoint_lsn
            )),
            None => out.push_str(": no checkpoint"),
        }
        out.push_str(&format!(
            ", {} WAL record(s) replayed",
            report.wal_records_replayed
        ));
        if report.checkpoints_skipped > 0 {
            out.push_str(&format!(
                ", {} corrupt checkpoint(s) skipped",
                report.checkpoints_skipped
            ));
        }
        if let Some(why) = &report.wal_truncated {
            out.push_str(&format!("\nWAL tail truncated: {why}"));
        }
        Ok(out)
    }

    fn cmd_wal_stats(&self) -> Result<String> {
        let Some(status) = self.manager.durability_status() else {
            return Ok("in-memory session — no WAL (use `open <dir>`)".into());
        };
        // The headline size is re-read from the live file: cumulative
        // append counters keep growing across checkpoints, while
        // compaction shrinks the file, so the two diverge the moment a
        // checkpoint truncates the log.
        Ok(format!(
            "dir {}\nwal file: {} byte(s), next lsn {}\n\
             appended since open: {} record(s), {} byte(s), {} sync(s)\n\
             compaction: {} pass(es), {} byte(s) reclaimed\n\
             {} txn(s) since last checkpoint",
            status.dir.display(),
            status.wal_file_bytes,
            status.next_lsn,
            status.wal.records_appended,
            status.wal.bytes_appended,
            status.wal.syncs,
            status.wal.compactions,
            status.wal.bytes_reclaimed,
            status.txns_since_checkpoint,
        ))
    }

    fn cmd_check(&self, rest: &str) -> Result<String> {
        // check <rel> (<tuple>) against <view>
        let lower = rest.to_ascii_lowercase();
        let pos = lower
            .find(" against ")
            .ok_or_else(|| parse_err("usage: check <rel> (<tuple>) against <view>"))?;
        let (lhs, view_name) = (rest[..pos].trim(), rest[pos + 9..].trim());
        let (rel, tuple_text) = lhs
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err("usage: check <rel> (<tuple>) against <view>"))?;
        let tuple = parse_tuple(tuple_text)?;
        let v = self.manager.view_expr(view_name)?;
        let filter = RelevanceFilter::new(&v, self.manager.database(), rel)?;
        if filter.is_relevant(&tuple)? {
            Ok(format!(
                "{tuple} is RELEVANT to {view_name} (may affect it in some state)"
            ))
        } else {
            Ok(format!(
                "{tuple} is IRRELEVANT to {view_name} (provably, in every database state)"
            ))
        }
    }

    /// `serve <addr>` — move this session's [`ViewManager`] into an
    /// in-process [`ivm_serve::Server`] and attach the shell to it over
    /// TCP. Other clients (another shell's `connect`, `ivm-serve load`)
    /// can attach concurrently; `disconnect` stops the server and takes
    /// the session back.
    fn cmd_serve(&mut self, rest: &str) -> Result<String> {
        if rest.is_empty() {
            return Err(parse_err("usage: serve <host:port> (port 0 for ephemeral)"));
        }
        if self.pending.is_some() {
            return Err(parse_err("commit or discard the open transaction first"));
        }
        let manager = std::mem::take(&mut self.manager);
        let server = match ivm_serve::Server::start(manager, rest) {
            Ok(s) => s,
            Err(e) => return Err(remote_err(e)),
        };
        let addr = server.addr().to_string();
        let client = ivm_serve::Client::connect(addr.as_str()).map_err(remote_err)?;
        self.remote = Some(Remote {
            client,
            addr: addr.clone(),
            server: Some(server),
        });
        Ok(format!(
            "serving on {addr}; shell attached (disconnect to stop)"
        ))
    }

    /// `connect <addr>` — attach to an already-running `ivm-serve`
    /// server. The local session is untouched; `disconnect` detaches and
    /// leaves the server running.
    fn cmd_connect(&mut self, rest: &str) -> Result<String> {
        if rest.is_empty() {
            return Err(parse_err("usage: connect <host:port>"));
        }
        let client = ivm_serve::Client::connect(rest).map_err(remote_err)?;
        self.remote = Some(Remote {
            client,
            addr: rest.to_string(),
            server: None,
        });
        Ok(format!("connected to {rest}"))
    }

    /// Command interpretation while attached to a server: data commands
    /// route over the wire, everything else is local-only.
    fn dispatch_remote(&mut self, cmd: &str, rest: &str) -> Result<String> {
        match cmd {
            "disconnect" => return self.cmd_disconnect(),
            "serve" | "connect" => {
                let addr = self
                    .remote
                    .as_ref()
                    .map(|r| r.addr.clone())
                    .unwrap_or_default();
                return Err(parse_err(format!(
                    "already attached to {addr} — disconnect first"
                )));
            }
            "help" => return Ok(HELP.trim().to_string()),
            "quit" | "exit" => return Ok("bye (still attached — server keeps running)".into()),
            _ => {}
        }
        let Some(remote) = self.remote.as_mut() else {
            return Err(parse_err("not connected"));
        };
        let client = &mut remote.client;
        let out = match cmd {
            "create" => {
                let (name, schema_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| parse_err("usage: create <rel> (<attrs>)"))?;
                let schema = parse_schema(schema_text)?;
                client
                    .create_relation(name, schema.clone())
                    .map(|()| format!("created {name} {schema} (remote)"))
            }
            "load" => {
                let (name, tuples_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| parse_err("usage: load <rel> (<tuple>) [(<tuple>)...]"))?;
                let mut txn = Transaction::new();
                let mut n = 0usize;
                for part in split_tuples(tuples_text)? {
                    txn.insert(name, parse_tuple(&part)?)?;
                    n += 1;
                }
                client
                    .execute(txn)
                    .map(|_| format!("loaded {n} row(s) into {name} (remote)"))
            }
            "view" => {
                let (head, body) = rest.split_once('=').ok_or_else(|| {
                    parse_err("usage: view <name> [deferred|ondemand] = from ...")
                })?;
                let mut head_parts = head.split_whitespace();
                let name = head_parts
                    .next()
                    .ok_or_else(|| parse_err("view needs a name"))?;
                let policy = match head_parts.next() {
                    None => RefreshPolicy::Immediate,
                    Some(p) if p.eq_ignore_ascii_case("deferred") => RefreshPolicy::Deferred,
                    Some(p) if p.eq_ignore_ascii_case("ondemand") => RefreshPolicy::OnDemand,
                    Some(p) => return Err(parse_err(format!("unknown policy {p:?}"))),
                };
                let expr = parse_view_body(body)?;
                client
                    .register_view(name, expr.clone(), policy)
                    .map(|()| format!("registered {name} := {expr} (remote)"))
            }
            "begin" => {
                if self.pending.is_some() {
                    return Ok("already in a transaction".into());
                }
                self.pending = Some(Transaction::new());
                return Ok("transaction started".into());
            }
            "insert" | "delete" => {
                let is_insert = cmd == "insert";
                let (name, tuple_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| parse_err("usage: insert|delete <rel> (<tuple>)"))?;
                let tuple = parse_tuple(tuple_text)?;
                if let Some(txn) = &mut self.pending {
                    if is_insert {
                        txn.insert(name, tuple)?;
                    } else {
                        txn.delete(name, tuple)?;
                    }
                    return Ok("queued".into());
                }
                let mut txn = Transaction::new();
                if is_insert {
                    txn.insert(name, tuple)?;
                } else {
                    txn.delete(name, tuple)?;
                }
                client.execute(txn).map(|_| "applied (remote)".to_string())
            }
            "commit" => match self.pending.take() {
                None => return Ok("no open transaction".into()),
                Some(txn) => {
                    let size = txn.size();
                    client
                        .execute(txn)
                        .map(|_| format!("committed {size} change(s) (remote)"))
                }
            },
            "show" => client
                .query(rest)
                .map(|(epoch, rows)| format!("{rows}-- snapshot epoch {epoch}")),
            "views" => client.list_views().map(|names| names.join("\n")),
            "refresh" => client
                .refresh(rest)
                .map(|()| format!("view {rest} refreshed (remote)")),
            "stats" if rest.is_empty() => client.stats(),
            "epoch" => client.epoch().map(|e| format!("publication epoch {e}")),
            "digest" => client
                .digest()
                .map(|(e, d)| format!("epoch {e} digest {d:#018x}")),
            "ping" => client.ping().map(|()| "pong".to_string()),
            other => {
                return Ok(format!(
                    "command {other:?} is local-only — `disconnect` first"
                ))
            }
        };
        out.map_err(remote_err)
    }

    /// `disconnect` — detach; if this shell's `serve` started the
    /// server, stop it and restore the session (the served state becomes
    /// the local state again).
    fn cmd_disconnect(&mut self) -> Result<String> {
        let Some(remote) = self.remote.take() else {
            return Ok("not connected".into());
        };
        self.pending = None;
        match remote.server {
            Some(server) => {
                drop(remote.client);
                // Stop without waiting for a client-side Shutdown.
                let manager = server.stop().map_err(remote_err)?;
                self.manager = manager.with_recorder(self.recorder.clone());
                Ok(format!(
                    "server on {} stopped; session restored locally",
                    remote.addr
                ))
            }
            None => Ok(format!(
                "disconnected from {} (server keeps running)",
                remote.addr
            )),
        }
    }
}

fn remote_err(e: ivm_serve::ServeError) -> IvmError {
    parse_err(format!("serving layer: {e}"))
}

impl Shell {
    /// Render the session (base relations + SPJ view definitions) as a
    /// replayable command script — `source`-ing the output into a fresh
    /// shell reproduces the database and re-materializes every view.
    /// Deferred views lose their pending backlog (they re-materialize
    /// fresh, i.e. fully refreshed); tree views have no textual syntax and
    /// are skipped with a comment, and so are the views stacked on them.
    pub fn dump_script(&self) -> Result<String> {
        use std::fmt::Write as _;
        let mut out = String::from("# ivm shell session dump\n");
        let db = self.manager.database();
        for name in db.relation_names() {
            let rel = db.relation(name)?;
            let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_str()).collect();
            writeln!(out, "create {name} ({})", attrs.join(", ")).expect("write to string");
            let rows = rel.sorted();
            if rows.is_empty() {
                continue;
            }
            // Chunked loads keep the lines readable.
            for chunk in rows.chunks(8) {
                let rendered: Vec<String> = chunk.iter().map(|(t, _)| render_tuple(t)).collect();
                writeln!(out, "load {name} {}", rendered.join(" ")).expect("write to string");
            }
        }
        // Views replay in topological (stratum-major) order so a stacked
        // view's operands are always registered before it.
        let dag = self.manager.dag();
        let mut skipped: Vec<&str> = Vec::new();
        for node in &dag {
            let name = node.name.as_str();
            if node.tree.is_some() {
                writeln!(out, "# tree view {name} skipped (no textual syntax)")
                    .expect("write to string");
                skipped.push(name);
                continue;
            }
            if let Some(up) = node
                .depends_on
                .iter()
                .find(|u| skipped.contains(&u.as_str()))
            {
                writeln!(out, "# view {name} skipped (stacked on skipped view {up})")
                    .expect("write to string");
                skipped.push(name);
                continue;
            }
            let expr = &node.expr;
            let policy = match node.policy {
                RefreshPolicy::Immediate => "",
                RefreshPolicy::Deferred => " deferred",
                RefreshPolicy::OnDemand => " ondemand",
            };
            let mut line = format!("view {name}{policy} = from {}", expr.relations.join(", "));
            if !expr.condition.is_trivially_true() {
                line.push_str(&format!(" where {}", render_condition(&expr.condition)));
            }
            if let Some(attrs) = &expr.projection {
                let names: Vec<&str> = attrs.iter().map(|a| a.as_str()).collect();
                line.push_str(&format!(" project {}", names.join(", ")));
            }
            writeln!(out, "{line}").expect("write to string");
        }
        Ok(out)
    }
}

/// Parse a view body — `from R, S [where <cond>] [project <attrs>]` —
/// into an [`SpjExpr`]. Shared by `view` (registration) and `analyze`
/// (ad-hoc candidate analysis).
fn parse_view_body(body: &str) -> Result<SpjExpr> {
    let body = body.trim();
    let lower = body.to_ascii_lowercase();
    if !lower.starts_with("from ") {
        return Err(parse_err("view body must start with `from`"));
    }
    let after_from = &body[5..];
    let lower_after = after_from.to_ascii_lowercase();
    let where_pos = lower_after.find(" where ");
    let project_pos = lower_after.find(" project ");
    let rel_end = [where_pos, project_pos]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(after_from.len());
    let relations: Vec<String> = after_from[..rel_end]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let condition = match where_pos {
        None => Condition::always_true(),
        Some(pos) => {
            let start = pos + " where ".len();
            let end = match project_pos {
                Some(p) if p > pos => p,
                _ => after_from.len(),
            };
            parse_condition(&after_from[start..end])?
        }
    };
    let projection = match project_pos {
        None => None,
        Some(pos) => {
            let start = pos + " project ".len();
            let schema = parse_schema(&after_from[start..])?;
            Some(schema.attrs().to_vec())
        }
    };
    Ok(SpjExpr::new(relations, condition, projection))
}

/// Render a tuple in the shell's literal syntax (strings always quoted).
fn render_tuple(t: &Tuple) -> String {
    let fields: Vec<String> = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("\"{s}\""),
        })
        .collect();
    format!("({})", fields.join(", "))
}

/// Render a refresh policy in the shell's surface syntax.
fn policy_name(p: RefreshPolicy) -> &'static str {
    match p {
        RefreshPolicy::Immediate => "immediate",
        RefreshPolicy::Deferred => "deferred",
        RefreshPolicy::OnDemand => "ondemand",
    }
}

/// Render a tree view's signed terms, `tree + 2·t₁ − t₂ …`.
fn render_terms(terms: &[(i64, SpjExpr)]) -> String {
    let mut out = String::from("tree");
    for (c, term) in terms {
        let sign = if *c < 0 { '−' } else { '+' };
        match c.unsigned_abs() {
            1 => out.push_str(&format!(" {sign} {term}")),
            n => out.push_str(&format!(" {sign} {n}·{term}")),
        }
    }
    out
}

/// Render a condition in the shell's `and`/`or` surface syntax.
fn render_condition(cond: &Condition) -> String {
    cond.disjuncts
        .iter()
        .map(|c| {
            c.atoms
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" and ")
        })
        .collect::<Vec<_>>()
        .join(" or ")
}

fn parse_err(msg: impl Into<String>) -> IvmError {
    IvmError::Relational(ivm_relational::error::RelError::Parse(msg.into()))
}

/// Split `"(1,2) (3,4)"` into tuple literals.
fn split_tuples(text: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for ch in text.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth -= 1;
                cur.push(ch);
                if depth == 0 {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ if depth > 0 => cur.push(ch),
            _ => {}
        }
    }
    if depth != 0 || out.is_empty() {
        return Err(parse_err(format!("malformed tuple list: {text:?}")));
    }
    Ok(out)
}

/// Help text shown by the `help` command.
pub const HELP: &str = r#"
create <rel> (<attrs>)                        create a base relation
load <rel> (<tuple>) [(<tuple>)...]           bulk-load rows
view <name> [deferred|ondemand] = from <rels> [where <cond>] [project <attrs>]
begin / insert <rel> (<t>) / delete <rel> (<t>) / commit
show <rel-or-view> | stats [<view>] | refresh <view>
views                                         dependency DAG with per-node maintenance stats
stats without a view prints the session-wide metrics snapshot
check <rel> (<tuple>) against <view>          Theorem 4.1 relevance verdict
analyze [<view> | from <body>]                definition-time static analysis
dump | save <file> | source <file>            persist / replay a session
open <dir>                                    switch to a durable (WAL-backed) session
checkpoint                                    write an atomic snapshot of the session
wal-stats                                     WAL / checkpoint counters
serve <addr> | connect <addr> | disconnect    serve this session over TCP / attach to a server
while attached: data commands route remotely; also views, epoch, digest, ping
verify | help | quit
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, script: &[&str]) -> Vec<String> {
        script
            .iter()
            .map(|line| {
                shell
                    .dispatch(line)
                    .unwrap_or_else(|e| format!("error: {e}"))
            })
            .collect()
    }

    fn seeded() -> Shell {
        let mut s = Shell::new();
        run(
            &mut s,
            &[
                "create R (A, B)",
                "create S (B, C)",
                "load R (1,10) (2,20)",
                "load S (10,100) (20,200)",
            ],
        );
        s
    }

    #[test]
    fn create_and_load() {
        let s = seeded();
        assert_eq!(
            s.manager().database().relation("R").unwrap().total_count(),
            2
        );
        assert_eq!(
            s.manager().database().relation("S").unwrap().total_count(),
            2
        );
    }

    #[test]
    fn view_definition_and_maintenance() {
        let mut s = seeded();
        let out = s
            .dispatch("view v = from R, S where A < 10 project A, C")
            .unwrap();
        assert!(out.contains("registered v"));
        s.dispatch("insert R (3, 10)").unwrap();
        let shown = s.dispatch("show v").unwrap();
        assert!(shown.contains("(3, 100)"), "{shown}");
        assert!(s.dispatch("verify").unwrap().contains('✓'));
    }

    #[test]
    fn transactions_queue_until_commit() {
        let mut s = seeded();
        s.dispatch("view v = from R, S project A, C").unwrap();
        s.dispatch("begin").unwrap();
        s.dispatch("insert R (5, 10)").unwrap();
        assert!(
            !s.dispatch("show v").unwrap().contains("(5, 100)"),
            "not yet committed"
        );
        let out = s.dispatch("commit").unwrap();
        assert!(out.contains("committed 1"));
        assert!(s.dispatch("show v").unwrap().contains("(5, 100)"));
    }

    #[test]
    fn relevance_check_command() {
        let mut s = seeded();
        s.dispatch("view v = from R, S where A < 10").unwrap();
        let out = s.dispatch("check R (99, 10) against v").unwrap();
        assert!(out.contains("IRRELEVANT"), "{out}");
        let out = s.dispatch("check R (5, 10) against v").unwrap();
        assert!(out.contains("RELEVANT"), "{out}");
    }

    #[test]
    fn deferred_view_and_refresh() {
        let mut s = seeded();
        s.dispatch("view d deferred = from R project B").unwrap();
        s.dispatch("insert R (7, 70)").unwrap();
        assert!(!s.dispatch("show d").unwrap().contains("70"));
        s.dispatch("refresh d").unwrap();
        assert!(s.dispatch("show d").unwrap().contains("70"));
    }

    #[test]
    fn stats_command_reports_filtering() {
        let mut s = seeded();
        s.dispatch("view v = from R, S where A < 10").unwrap();
        s.dispatch("insert R (50, 10)").unwrap(); // irrelevant
        let out = s.dispatch("stats v").unwrap();
        assert!(out.contains("1 irrelevant"), "{out}");
        assert!(out.contains("skipped by filter 1"), "{out}");
    }

    #[test]
    fn stacked_view_over_view() {
        let mut s = seeded();
        s.dispatch("view base = from R, S where A < 10").unwrap();
        let out = s
            .dispatch("view top = from base where C > 50 project A")
            .unwrap();
        assert!(out.contains("registered top"), "{out}");
        s.dispatch("insert R (3, 20)").unwrap(); // joins S(20,200), C=200>50
        assert!(s.dispatch("show top").unwrap().contains("(3)"));
        assert!(s.dispatch("verify").unwrap().contains('✓'));
    }

    #[test]
    fn views_command_renders_the_dag() {
        let mut s = seeded();
        assert_eq!(s.dispatch("views").unwrap(), "no views registered");
        s.dispatch("view base = from R, S where A < 10").unwrap();
        s.dispatch("view top = from base project A").unwrap();
        s.dispatch("insert R (3, 20)").unwrap();
        let out = s.dispatch("\\views").unwrap();
        assert!(out.contains("stratum 0:"), "{out}");
        assert!(out.contains("stratum 1:"), "{out}");
        assert!(out.contains("feeds top"), "{out}");
        assert!(out.contains("base (view)"), "{out}");
        assert!(out.contains("run(s)"), "{out}");
    }

    #[test]
    fn views_and_dump_show_a_tree_view_as_signed_terms() {
        let mut s = seeded();
        let tree = Expr::base("R").difference(Expr::base("R").select(Atom::lt_const("A", 2)));
        s.manager.register_tree_view("t", tree).unwrap();
        s.dispatch("view top = from t, S project A, C").unwrap();
        let out = s.dispatch("views").unwrap();
        assert!(out.contains("t := tree + σ[true](R) − σ["), "{out}");
        assert!(out.contains("t (view), S"), "{out}");
        let script = s.dispatch("dump").unwrap();
        assert!(script.contains("# tree view t skipped"), "{script}");
        assert!(
            script.contains("# view top skipped (stacked on skipped view t)"),
            "{script}"
        );
        // The rest replays cleanly.
        let mut replay = Shell::new();
        for line in script.lines() {
            replay.dispatch(line).unwrap();
        }
        assert_eq!(
            replay.dispatch("show R").unwrap(),
            s.dispatch("show R").unwrap()
        );
    }

    #[test]
    fn analyze_reports_dag_structure() {
        let mut s = seeded();
        s.dispatch("view base = from R, S where A < 10").unwrap();
        s.dispatch("view top = from base project A").unwrap();
        s.dispatch("view pa = from R where A < 5 project A")
            .unwrap();
        s.dispatch("view pb = from R where A < 5 project B")
            .unwrap();
        let out = s.dispatch("analyze").unwrap();
        assert!(out.contains("dependency DAG"), "{out}");
        assert!(out.contains("acyclic"), "{out}");
        // Per-view analysis of one view skips the DAG section.
        let one = s.dispatch("analyze top").unwrap();
        assert!(!one.contains("dependency DAG"), "{one}");
    }

    #[test]
    fn dump_replays_stacked_views_in_dependency_order() {
        let mut s = seeded();
        // Register so that name order disagrees with dependency order.
        s.dispatch("view z_base = from R, S where A < 10").unwrap();
        s.dispatch("view a_top = from z_base project A").unwrap();
        s.dispatch("insert R (3, 20)").unwrap();
        let script = s.dispatch("dump").unwrap();
        let base_pos = script.find("view z_base").unwrap();
        let top_pos = script.find("view a_top").unwrap();
        assert!(base_pos < top_pos, "{script}");
        // The dump replays into an equivalent session.
        let mut replay = Shell::new();
        for line in script.lines() {
            replay.dispatch(line).unwrap();
        }
        assert_eq!(
            replay.dispatch("show a_top").unwrap(),
            s.dispatch("show a_top").unwrap()
        );
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = seeded();
        assert!(s.dispatch("create R (X)").is_err(), "duplicate relation");
        assert!(s.dispatch("view v = select nonsense").is_err());
        assert!(s.dispatch("show nothere").is_err());
        // The shell keeps working afterwards.
        assert!(s.dispatch("show R").unwrap().contains("(1, 10)"));
    }

    #[test]
    fn unknown_and_empty_commands() {
        let mut s = Shell::new();
        assert!(s
            .dispatch("frobnicate")
            .unwrap()
            .contains("unknown command"));
        assert_eq!(s.dispatch("").unwrap(), "");
        assert_eq!(s.dispatch("# a comment").unwrap(), "");
        assert!(s.dispatch("help").unwrap().contains("create"));
    }

    #[test]
    fn string_payload_columns() {
        let mut s = Shell::new();
        run(
            &mut s,
            &[
                "create P (ID, NAME)",
                "load P (1, widget) (2, \"left handed wrench\")",
            ],
        );
        let out = s.dispatch("show P").unwrap();
        assert!(out.contains("widget"));
        assert!(out.contains("left handed wrench"));
    }

    #[test]
    fn durability_commands() {
        let dir = ivm_storage::temp::scratch_dir("shell-durability");
        let dir_str = dir.to_str().unwrap().to_string();

        let mut s = Shell::new();
        assert!(s.dispatch("wal-stats").unwrap().contains("in-memory"));
        assert!(s.dispatch("checkpoint").is_err(), "no durable state yet");

        let out = s.dispatch(&format!("\\open {dir_str}")).unwrap();
        assert!(out.contains("no checkpoint"), "{out}");
        run(&mut s, &["create R (A, B)", "load R (1,10) (2,20)"]);
        assert!(s.dispatch("\\checkpoint").unwrap().contains("checkpoint 1"));
        s.dispatch("insert R (3, 30)").unwrap();
        let stats = s.dispatch("\\wal-stats").unwrap();
        assert!(stats.contains("sync"), "{stats}");

        // A fresh shell opening the same directory recovers everything.
        let mut fresh = Shell::new();
        let out = fresh.dispatch(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("checkpoint 1"), "{out}");
        assert!(fresh.dispatch("show R").unwrap().contains("(3, 30)"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_without_view_prints_metrics_snapshot() {
        let mut s = seeded();
        s.dispatch("view v = from R, S where A < 10").unwrap();
        s.dispatch("insert R (3, 10)").unwrap(); // relevant: engine runs
        s.dispatch("insert R (50, 10)").unwrap(); // irrelevant: filtered
        let out = s.dispatch("\\stats").unwrap();
        assert!(out.contains("manager.transactions"), "{out}");
        assert!(out.contains("diff.rows_evaluated"), "{out}");
        assert!(out.contains("filter.tuples_filtered"), "{out}");
        assert!(out.contains("execute"), "{out}");
    }

    #[test]
    fn wal_stats_reports_live_file_size_after_compaction() {
        let dir = ivm_storage::temp::scratch_dir("shell-wal-stats");
        let dir_str = dir.to_str().unwrap().to_string();

        let mut s = Shell::new();
        s.dispatch(&format!("open {dir_str}")).unwrap();
        run(&mut s, &["create R (A, B)", "load R (1,10) (2,20)"]);
        for i in 0..10 {
            s.dispatch(&format!("insert R ({}, {})", 100 + i, i))
                .unwrap();
        }
        // Two checkpoints: the second prunes to the retained pair and
        // compacts the WAL behind the older image, shrinking the file.
        s.dispatch("checkpoint").unwrap();
        for i in 0..5 {
            s.dispatch(&format!("insert R ({}, {})", 200 + i, i))
                .unwrap();
        }
        s.dispatch("checkpoint").unwrap();

        let status = s.manager().durability_status().unwrap();
        assert!(status.wal.compactions >= 1, "compaction must have run");
        let on_disk = std::fs::metadata(dir.join(ivm_storage::WAL_FILE))
            .unwrap()
            .len();
        assert_eq!(status.wal_file_bytes, on_disk);
        assert!(
            status.wal.bytes_appended > on_disk,
            "cumulative appends ({}) must exceed the compacted live file ({on_disk})",
            status.wal.bytes_appended,
        );

        // The report's headline is the live size, not the cumulative count.
        let out = s.dispatch("\\wal-stats").unwrap();
        assert!(
            out.contains(&format!("wal file: {on_disk} byte(s)")),
            "{out}"
        );
        assert!(out.contains("reclaimed"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsatisfiable_view_is_rejected_at_create_time() {
        let mut s = seeded();
        let err = s
            .dispatch("view dead = from R, S where A < 5 and A > 10")
            .unwrap_err()
            .to_string();
        assert!(err.contains("statically unsatisfiable"), "{err}");
        assert!(err.contains("always-irrelevant"), "{err}");
        // Nothing was registered; the shell keeps working.
        assert!(s.manager().view_names().next().is_none());
        assert!(s.dispatch("show R").unwrap().contains("(1, 10)"));
    }

    #[test]
    fn redundant_predicate_warns_but_registers() {
        let mut s = seeded();
        let out = s
            .dispatch("view v = from R, S where A < 5 and A < 10")
            .unwrap();
        assert!(out.contains("registered v"), "{out}");
        assert!(out.contains("redundant"), "{out}");
        assert!(s.dispatch("verify").unwrap().contains('✓'));
    }

    #[test]
    fn analyze_command_reports_all_views() {
        let mut s = seeded();
        s.dispatch("view clean = from R, S where A < 10").unwrap();
        s.dispatch("view dup = from R where A < 5 and A < 10")
            .unwrap();
        let out = s.dispatch("\\analyze").unwrap();
        assert!(out.contains("view clean"), "{out}");
        assert!(out.contains("view dup"), "{out}");
        assert!(out.contains("1 definition-time finding(s)"), "{out}");
        let one = s.dispatch("analyze clean").unwrap();
        assert!(one.contains("clean: no definition-time findings"), "{one}");
    }

    #[test]
    fn analyze_adhoc_prints_unsat_and_always_irrelevant() {
        let mut s = seeded();
        let out = s
            .dispatch("analyze from R, S where A < 5 and A > 10 and C > 0")
            .unwrap();
        assert!(out.contains("UNSATISFIABLE"), "{out}");
        assert!(out.contains("always-irrelevant"), "{out}");
        assert!(out.contains("`R`"), "{out}");
    }

    #[test]
    fn split_tuples_nested_and_errors() {
        assert_eq!(split_tuples("(1,2) (3,4)").unwrap().len(), 2);
        assert!(split_tuples("(1,2").is_err());
        assert!(split_tuples("nothing").is_err());
    }

    #[test]
    fn serve_routes_commands_remotely_and_disconnect_restores() {
        let mut s = seeded();
        s.dispatch("view v = from R, S where A < 10 project A, C")
            .unwrap();

        let out = s.dispatch("serve 127.0.0.1:0").unwrap();
        assert!(out.contains("serving on"), "{out}");

        // Data commands now go over the wire.
        assert_eq!(s.dispatch("insert R (3, 10)").unwrap(), "applied (remote)");
        let shown = s.dispatch("show v").unwrap();
        assert!(shown.contains("(3, 100)"), "{shown}");
        assert!(shown.contains("snapshot epoch"), "{shown}");
        assert!(s.dispatch("views").unwrap().contains('v'));
        assert!(s.dispatch("ping").unwrap().contains("pong"));
        assert!(s.dispatch("epoch").unwrap().contains("publication epoch"));
        let stats = s.dispatch("stats").unwrap();
        assert!(stats.contains("serve.requests"), "{stats}");

        // Transactions queue locally and commit as one wire transaction.
        s.dispatch("begin").unwrap();
        s.dispatch("insert R (4, 20)").unwrap();
        s.dispatch("insert R (5, 10)").unwrap();
        let out = s.dispatch("commit").unwrap();
        assert!(out.contains("committed 2"), "{out}");

        // DDL over the wire.
        s.dispatch("create T (X, Y)").unwrap();
        s.dispatch("load T (1, 11) (2, 5)").unwrap();
        s.dispatch("view t_hi = from T where Y > 10").unwrap();
        assert!(s.dispatch("show t_hi").unwrap().contains("(1, 11)"));

        // Local-only commands refuse politely; a second serve refuses.
        assert!(s.dispatch("analyze").unwrap().contains("local-only"));
        assert!(s.dispatch("serve 127.0.0.1:0").is_err());

        // Server errors are surfaced, session stays usable.
        assert!(s.dispatch("show no_such_view").is_err());
        assert!(s.dispatch("ping").unwrap().contains("pong"));

        let out = s.dispatch("disconnect").unwrap();
        assert!(out.contains("session restored"), "{out}");
        // The served writes are in the restored local session.
        assert!(s.dispatch("show v").unwrap().contains("(3, 100)"));
        assert!(s.dispatch("show t_hi").unwrap().contains("(1, 11)"));
        assert!(s.dispatch("verify").unwrap().contains('✓'));
    }

    #[test]
    fn connect_attaches_to_external_server_and_leaves_it_running() {
        let mut backend = ViewManager::new();
        ivm_serve::scenario::install(&mut backend).unwrap();
        let server = ivm_serve::Server::start(backend, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        let mut s = Shell::new();
        assert_eq!(s.dispatch("disconnect").unwrap(), "not connected");
        let out = s.dispatch(&format!("connect {addr}")).unwrap();
        assert!(out.contains("connected"), "{out}");
        s.dispatch("insert orders (1, 7, 80)").unwrap();
        assert!(s
            .dispatch("show big_orders")
            .unwrap()
            .contains("(1, 7, 80)"));
        let out = s.dispatch("disconnect").unwrap();
        assert!(out.contains("keeps running"), "{out}");

        // The server survived the detach.
        let mut probe = ivm_serve::Client::connect(addr.as_str()).unwrap();
        probe.ping().unwrap();
        server.stop().unwrap();
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;

    #[test]
    fn dump_and_replay_roundtrip() {
        let mut original = Shell::new();
        for line in [
            "create R (A, B)",
            "create S (B, C)",
            "load R (1,10) (2,20)",
            "load S (10,100) (20,200)",
            "view v = from R, S where A < 10 and C > 50 project A, C",
            "view d deferred = from R project B",
            "insert R (3, 10)",
        ] {
            original.dispatch(line).unwrap();
        }
        let script = original.dump_script().unwrap();

        let mut replayed = Shell::new();
        for line in script.lines() {
            replayed.dispatch(line).unwrap();
        }
        // Base relations identical.
        for name in ["R", "S"] {
            assert_eq!(
                original.manager().database().relation(name).unwrap(),
                replayed.manager().database().relation(name).unwrap(),
                "{name}"
            );
        }
        // The immediate view's contents agree; the deferred view in the
        // replay is freshly materialized (i.e. fully refreshed).
        assert_eq!(
            original.manager().view_contents("v").unwrap(),
            replayed.manager().view_contents("v").unwrap()
        );
        assert!(replayed
            .manager()
            .view_contents("d")
            .unwrap()
            .contains(&Tuple::from([10])));
    }

    #[test]
    fn dump_quotes_string_payloads() {
        let mut s = Shell::new();
        s.dispatch("create P (ID, NAME)").unwrap();
        s.dispatch("load P (1, \"two words\")").unwrap();
        let script = s.dump_script().unwrap();
        assert!(script.contains("\"two words\""), "{script}");
        let mut replayed = Shell::new();
        for line in script.lines() {
            replayed.dispatch(line).unwrap();
        }
        assert_eq!(
            s.manager().database().relation("P").unwrap(),
            replayed.manager().database().relation("P").unwrap()
        );
    }

    #[test]
    fn save_and_source_via_files() {
        let dir = std::env::temp_dir().join(format!("ivm_shell_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.ivm");
        let path_str = path.to_str().unwrap();

        let mut s = Shell::new();
        s.dispatch("create R (A)").unwrap();
        s.dispatch("load R (1) (2) (3)").unwrap();
        let out = s.dispatch(&format!("save {path_str}")).unwrap();
        assert!(out.contains("saved"));

        let mut fresh = Shell::new();
        let out = fresh.dispatch(&format!("source {path_str}")).unwrap();
        assert!(out.contains("sourced"), "{out}");
        assert_eq!(
            fresh
                .manager()
                .database()
                .relation("R")
                .unwrap()
                .total_count(),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
