//! Durable view managers: WAL logging, checkpoints and crash recovery.
//!
//! The storage crate (`ivm-storage`) knows how to frame, checksum and lay
//! out bytes; this module knows what the bytes *mean*. A durable
//! [`ViewManager`] keeps a storage directory with
//!
//! ```text
//! <dir>/wal.log                      append-only write-ahead log
//! <dir>/checkpoint-<seq>.ckpt        full system images, newest wins
//! ```
//!
//! and follows two invariants:
//!
//! 1. **Log before apply.** Every mutation (transaction or DDL) is
//!    appended to the WAL and synced before in-memory state changes. The
//!    sync is the commit point.
//! 2. **Checkpoints are differential restart points, not re-evaluations.**
//!    A checkpoint stores each view's counted materialization verbatim;
//!    recovery reinstalls it as the view's contents and rolls the WAL
//!    tail forward through [`ViewManager::execute`] — the
//!    same relevance-filtered differential path used online. Recovery never
//!    re-evaluates a view from its definition (checked by the
//!    recovery-equivalence property test via
//!    [`crate::manager::MaintenanceStats::full_recomputes`]).
//!
//! A checkpoint neither copies nor decodes the database. The image
//! ([`CheckpointData`]) borrows the live database, view contents and
//! pending deltas and is encoded straight from them. WAL compaction learns
//! the fallback image's LSN from [`checkpoint::verified_lsn`], a frame and
//! checksum check that never decodes the image, and copies the kept WAL
//! frames verbatim.
//!
//! Maintenance statistics are deliberately ephemeral: counters describe a
//! process lifetime, not the database, and restart at zero after recovery.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ivm_obs::{names, Obs};
use ivm_relational::schema::Schema;
use ivm_relational::transaction::Transaction;

use ivm_storage::checkpoint::{self, CheckpointData, StoredView, StoredViewKind};
use ivm_storage::{StorageError, Wal, WalRecord, WalStats, WAL_FILE};

use crate::error::Result;
use crate::manager::{ManagedView, RefreshPolicy, ViewManager};

/// How much durability a manager provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// No logging at all. [`ViewManager::open`] with this policy recovers
    /// existing state and then behaves like an in-memory manager (useful
    /// for read-only inspection of a storage directory).
    None,
    /// Log every mutation to the WAL with a sync per transaction;
    /// checkpoints only when [`ViewManager::checkpoint`] is called.
    #[default]
    WalOnly,
    /// Like [`DurabilityPolicy::WalOnly`], plus an automatic checkpoint
    /// after every `n` logged transactions.
    WalWithCheckpointEvery(u64),
}

/// What recovery found and did, kept for introspection (shell, examples,
/// tests).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored, if any existed.
    pub checkpoint_seq: Option<u64>,
    /// LSN recorded in that checkpoint (0 without one); replay started
    /// strictly after it.
    pub checkpoint_lsn: u64,
    /// Corrupt checkpoints skipped while searching for a valid one.
    pub checkpoints_skipped: usize,
    /// WAL records rolled forward through the maintenance engine.
    pub wal_records_replayed: usize,
    /// Rendering of the corruption that ended the WAL's valid prefix, if
    /// the log did not end cleanly. The file was truncated at that point.
    pub wal_truncated: Option<String>,
}

/// Live durability machinery of an open manager.
#[derive(Debug)]
pub(crate) struct DurabilityState {
    dir: PathBuf,
    wal: Wal,
    policy: DurabilityPolicy,
    txns_since_checkpoint: u64,
    report: RecoveryReport,
}

impl DurabilityState {
    /// Path of the live WAL file (the corruption target for injected
    /// torn-write/bit-flip faults).
    pub(crate) fn wal_path(&self) -> &Path {
        self.wal.path()
    }
}

/// A point-in-time snapshot of WAL/checkpoint counters, surfaced by the
/// shell's `\wal-stats`.
#[derive(Debug, Clone)]
pub struct DurabilityStatus {
    /// Storage directory backing this manager.
    pub dir: PathBuf,
    /// Append/sync counters for the current WAL handle.
    pub wal: WalStats,
    /// LSN the next logged record will receive.
    pub next_lsn: u64,
    /// Current WAL file length in bytes as tracked by the open handle
    /// (includes unsynced buffered frames).
    pub wal_len_bytes: u64,
    /// WAL file length in bytes re-read from the filesystem at the moment
    /// this status was taken (what `ls -l` would show). Unlike the
    /// cumulative [`WalStats::bytes_appended`], this *shrinks* after a
    /// checkpoint compacts the log; it is the number the shell's
    /// `\wal-stats` reports as the live size. Falls back to the handle's
    /// tracked length if the metadata read fails.
    pub wal_file_bytes: u64,
    /// Transactions logged since the last checkpoint.
    pub txns_since_checkpoint: u64,
}

/// Emit the difference between two [`WalStats`] snapshots as `wal.*`
/// counters. [`Obs::add`] drops zero deltas, so quiet fields cost nothing.
fn emit_wal_delta(obs: &Obs, before: WalStats, after: WalStats) {
    if !obs.enabled() {
        return;
    }
    obs.add(
        names::WAL_RECORDS_APPENDED,
        after.records_appended - before.records_appended,
    );
    obs.add(
        names::WAL_BYTES_APPENDED,
        after.bytes_appended - before.bytes_appended,
    );
    obs.add(names::WAL_SYNCS, after.syncs - before.syncs);
    obs.add(
        names::WAL_COMPACTIONS,
        after.compactions - before.compactions,
    );
    obs.add(
        names::WAL_BYTES_RECLAIMED,
        after.bytes_reclaimed - before.bytes_reclaimed,
    );
}

fn policy_from_u8(byte: u8) -> Result<RefreshPolicy> {
    RefreshPolicy::from_byte(byte)
        .ok_or_else(|| StorageError::Corrupt(format!("bad refresh-policy byte {byte:#04x}")).into())
}

/// Reinstall one checkpointed view. `view_schemas` holds every stored
/// view's scheme, so a tree view compiles over leaves installed after it.
fn install_stored_view(
    mgr: &mut ViewManager,
    stored: StoredView<'static>,
    view_schemas: &HashMap<String, Schema>,
) -> Result<()> {
    if mgr.views.contains_key(&stored.name) {
        return Err(
            StorageError::Corrupt(format!("checkpoint stores view {} twice", stored.name)).into(),
        );
    }
    // The same terms, checks and §4 filters as registration builds.
    let view = match stored.kind {
        StoredViewKind::Spj {
            expr,
            policy,
            pending,
        } => {
            let terms = mgr.build_terms(vec![(1, expr)])?;
            let policy = policy_from_u8(policy)?;
            let mut view = ManagedView::new(stored.data.into_owned(), terms, None, policy);
            view.pending = pending
                .into_iter()
                .map(|(rel, delta)| (rel, delta.into_owned()))
                .collect();
            view
        }
        StoredViewKind::Tree { expr } => {
            let defs = mgr.compile_tree(&expr, |leaf| view_schemas.get(leaf).cloned())?;
            let terms = mgr.build_terms(defs)?;
            ManagedView::new(
                stored.data.into_owned(),
                terms,
                Some(expr),
                RefreshPolicy::Immediate,
            )
        }
    };
    // Dependency edges and strata are rebuilt from the terms once every
    // view is in (`rebuild_dag` in `open_with_policy`).
    mgr.views.insert(stored.name, view);
    Ok(())
}

impl ViewManager {
    /// Open (or create) a durable manager over storage directory `dir`
    /// with the default [`DurabilityPolicy::WalOnly`] policy.
    ///
    /// Recovery protocol: load the newest checkpoint that passes its
    /// checksum (falling back over corrupt ones), reinstall every view from
    /// its stored materialization, then roll the WAL tail — records with
    /// LSNs above the checkpoint's — forward through the differential
    /// maintenance engine. A torn or corrupt WAL tail is truncated at the
    /// first bad frame; everything before it is kept.
    ///
    /// ```
    /// use ivm::prelude::*;
    ///
    /// let dir = ivm_storage::temp::scratch_dir("open-doc");
    /// {
    ///     let mut m = ViewManager::open(&dir).unwrap();
    ///     m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    ///     let mut txn = Transaction::new();
    ///     txn.insert("R", [1]).unwrap();
    ///     m.execute(&txn).unwrap(); // synced to the WAL before applying
    /// }
    /// // A fresh open replays the log: nothing was lost.
    /// let m = ViewManager::open(&dir).unwrap();
    /// assert!(m.database().relation("R").unwrap().contains(&Tuple::from([1])));
    /// assert_eq!(m.recovery_report().unwrap().wal_records_replayed, 2);
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_policy(dir, DurabilityPolicy::default())
    }

    /// [`ViewManager::open`] with an explicit durability policy.
    pub fn open_with_policy(dir: impl AsRef<Path>, policy: DurabilityPolicy) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("create storage dir {}", dir.display()), e))?;

        let mut mgr = ViewManager::new();
        let mut report = RecoveryReport::default();

        if let Some((seq, data, skipped)) = checkpoint::latest_checkpoint(&dir)? {
            report.checkpoint_seq = Some(seq);
            report.checkpoint_lsn = data.last_lsn;
            report.checkpoints_skipped = skipped.len();
            mgr.db = data.db.into_owned();
            let view_schemas: HashMap<String, Schema> = data
                .views
                .iter()
                .map(|v| (v.name.clone(), v.data.schema().clone()))
                .collect();
            for stored in data.views {
                install_stored_view(&mut mgr, stored, &view_schemas)?;
            }
            // Dependency edges and strata are derived state: rebuild them
            // from the restored definitions before any replay.
            mgr.rebuild_dag();
            // Checkpoints persist relation *data* only; join-key indexes
            // are derived state and must be rebuilt from the restored view
            // terms. (WAL-replayed registrations below re-derive through
            // registration on their own.)
            let exprs: Vec<_> = mgr
                .views
                .values()
                .flat_map(|mv| mv.terms.iter().map(|t| t.expr.clone()))
                .collect();
            for expr in &exprs {
                mgr.derive_indexes_for(expr)?;
            }
        }

        let wal_path = dir.join(WAL_FILE);
        let scan = Wal::scan(&wal_path)?;
        if let Some(err) = &scan.truncated_by {
            report.wal_truncated = Some(err.to_string());
        }
        let wal_last_lsn = scan.last_lsn();
        for (lsn, record) in scan.records {
            if lsn <= report.checkpoint_lsn {
                continue; // already reflected in the checkpoint
            }
            match record {
                WalRecord::Txn(txn) => {
                    mgr.execute(&txn)?;
                }
                WalRecord::CreateRelation { name, schema } => mgr.create_relation(name, schema)?,
                WalRecord::RegisterView { name, expr, policy } => {
                    mgr.register_view(name, expr, policy_from_u8(policy)?)?
                }
                WalRecord::RegisterTreeView { name, expr } => mgr.register_tree_view(name, expr)?,
            }
            report.wal_records_replayed += 1;
        }
        if scan.truncated_by.is_some() {
            Wal::truncate_to(&wal_path, scan.valid_len)?;
        }

        if policy != DurabilityPolicy::None {
            let next_lsn = wal_last_lsn
                .map(|lsn| lsn + 1)
                .unwrap_or(1)
                .max(report.checkpoint_lsn + 1);
            let wal = Wal::open(&wal_path, scan.valid_len, next_lsn)?;
            mgr.durability = Some(Box::new(DurabilityState {
                dir,
                wal,
                policy,
                txns_since_checkpoint: 0,
                report,
            }));
        }
        Ok(mgr)
    }

    /// Persist a full system image — database, every view's counted
    /// materialization and pending deltas, and the last logged LSN —
    /// atomically (write-to-temp then rename). Returns the checkpoint
    /// sequence number. Older checkpoints beyond the newest two are
    /// pruned.
    ///
    /// Errors with [`StorageError::NoDurableState`] on a manager that was
    /// not opened with [`ViewManager::open`].
    ///
    /// ```
    /// use ivm::prelude::*;
    ///
    /// let dir = ivm_storage::temp::scratch_dir("checkpoint-doc");
    /// let mut m = ViewManager::open(&dir).unwrap();
    /// m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    /// m.load("R", [[1], [2]]).unwrap();
    /// let seq = m.checkpoint().unwrap();
    /// assert_eq!(seq, 1);
    /// // Recovery now restores the image instead of replaying the log.
    /// let recovered = ViewManager::open(&dir).unwrap();
    /// assert_eq!(recovered.recovery_report().unwrap().checkpoint_seq, Some(1));
    /// assert_eq!(recovered.recovery_report().unwrap().wal_records_replayed, 0);
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn checkpoint(&mut self) -> Result<u64> {
        let obs = self.recorder.clone();
        let _ckpt_span = obs.span(names::SPAN_CHECKPOINT);
        let Some(state) = self.durability.as_mut() else {
            return Err(StorageError::NoDurableState(
                "checkpoint() requires a manager opened with ViewManager::open".into(),
            )
            .into());
        };
        crate::manager::fire_failpoint(
            &self.failpoints,
            ivm_storage::fault::FP_CHECKPOINT_BEFORE,
            Some(state.wal.path()),
        )?;
        let wal_before = state.wal.stats();
        // Never let a checkpoint claim an LSN that is not yet durable.
        state.wal.sync()?;
        let last_lsn = state.wal.next_lsn() - 1;

        let mut views = Vec::with_capacity(self.views.len());
        for (name, mv) in &self.views {
            let kind = match &mv.tree {
                Some(expr) => StoredViewKind::Tree { expr: expr.clone() },
                None => StoredViewKind::Spj {
                    expr: mv.terms[0].expr.clone(),
                    policy: mv.policy.to_byte(),
                    pending: mv
                        .pending
                        .iter()
                        .map(|(rel, delta)| (rel.clone(), Cow::Borrowed(delta)))
                        .collect(),
                },
            };
            views.push(StoredView {
                name: name.clone(),
                kind,
                data: Cow::Borrowed(&mv.contents),
            });
        }
        let data = CheckpointData {
            last_lsn,
            db: Cow::Borrowed(&self.db),
            views,
        };
        let seq = checkpoint::list_checkpoints(&state.dir)?
            .first()
            .map(|newest| newest + 1)
            .unwrap_or(1);
        let image = checkpoint::write_checkpoint(&state.dir, seq, &data)?;
        if obs.enabled() {
            if let Ok(meta) = std::fs::metadata(&image) {
                obs.add(names::CHECKPOINT_BYTES, meta.len());
            }
        }
        // The image is on disk but old checkpoints are not yet pruned and
        // the WAL is not yet compacted. A crash here must leave recovery
        // free to pick either the new image or an older one — both replay
        // to the same state.
        crate::manager::fire_failpoint(
            &self.failpoints,
            ivm_storage::fault::FP_CHECKPOINT_MID,
            Some(state.wal.path()),
        )?;
        checkpoint::prune_checkpoints(&state.dir, 2)?;

        // Compact the WAL behind the retained checkpoints. Recovery falls
        // back at most to the *oldest* retained image, so records at or
        // below that image's LSN can never be replayed again and are safe
        // to drop. With fewer than two retained checkpoints there is no
        // fallback image yet, so the log is kept whole; and a checkpoint
        // whose frame fails its check must not license dropping anything.
        let retained = checkpoint::list_checkpoints(&state.dir)?;
        if retained.len() >= 2 {
            let oldest_seq = *retained.last().expect("retained is non-empty");
            match checkpoint::verified_lsn(checkpoint::checkpoint_path(&state.dir, oldest_seq)) {
                Ok(oldest_lsn) => {
                    state.wal.compact_through(oldest_lsn)?;
                }
                Err(e) if e.is_corruption() => {}
                Err(e) => return Err(e.into()),
            }
        }

        state.txns_since_checkpoint = 0;
        emit_wal_delta(&obs, wal_before, state.wal.stats());
        obs.add(names::CHECKPOINTS_WRITTEN, 1);
        Ok(seq)
    }

    /// What recovery found when this manager was opened. `None` for
    /// in-memory managers.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_deref().map(|s| &s.report)
    }

    /// Current WAL/checkpoint counters. `None` for in-memory managers.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durability.as_deref().map(|s| DurabilityStatus {
            dir: s.dir.clone(),
            wal: s.wal.stats(),
            next_lsn: s.wal.next_lsn(),
            wal_len_bytes: s.wal.len_bytes(),
            wal_file_bytes: std::fs::metadata(s.wal.path())
                .map(|m| m.len())
                .unwrap_or_else(|_| s.wal.len_bytes()),
            txns_since_checkpoint: s.txns_since_checkpoint,
        })
    }

    /// Append one DDL record and sync (the commit point for DDL).
    pub(crate) fn log_record(&mut self, record: WalRecord) -> Result<()> {
        let obs = self.recorder.clone();
        if let Some(state) = self.durability.as_mut() {
            let before = state.wal.stats();
            state.wal.append(&record)?;
            state.wal.sync()?;
            emit_wal_delta(&obs, before, state.wal.stats());
        }
        Ok(())
    }

    /// Append a transaction record and sync (the commit point for data).
    pub(crate) fn log_txn(&mut self, txn: &Transaction) -> Result<()> {
        let obs = self.recorder.clone();
        if let Some(state) = self.durability.as_mut() {
            let before = state.wal.stats();
            state.wal.append_txn(txn)?;
            state.wal.sync()?;
            state.txns_since_checkpoint += 1;
            emit_wal_delta(&obs, before, state.wal.stats());
        }
        Ok(())
    }

    /// Checkpoint if the policy says one is due.
    pub(crate) fn maybe_checkpoint(&mut self) -> Result<()> {
        let due = matches!(
            self.durability.as_deref(),
            Some(DurabilityState {
                policy: DurabilityPolicy::WalWithCheckpointEvery(n),
                txns_since_checkpoint,
                ..
            }) if *n > 0 && *txns_since_checkpoint >= *n
        );
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }
}
