//! Snapshot publication: concurrent readers over maintained views.
//!
//! The paper's economics assume a view is *read* far more often than its
//! operands are updated — maintenance cost is paid at write time so that
//! queries are cheap. This module supplies the serving half of that
//! bargain: the [`crate::manager::ViewManager`] (the writer) publishes an
//! immutable [`ViewSnapshot`] of every registered view at each commit
//! point, and any number of reader threads retrieve the latest snapshot
//! without ever observing a half-applied transaction.
//!
//! # Design
//!
//! The hub keeps the current snapshot as an `Arc<ViewSnapshot>` behind
//! one reader-writer lock, and `Arc` reference counting decides when a
//! superseded snapshot is freed:
//!
//! * **Publish** (writer): build the next [`ViewSnapshot`] from the
//!   `Arc<Relation>` each view already stores — publication copies no
//!   rows, and a view the commit did not change keeps the very pointer
//!   the previous snapshot holds — then take the write lock, number the
//!   snapshot one past the current epoch, wrap it in an `Arc` and swap it
//!   in. Numbering under the lock keeps epochs one apart even if two
//!   threads publish at once. The superseded `Arc` is dropped after the
//!   lock is released, so no snapshot is ever freed inside the critical
//!   section.
//! * **Read**: take the read lock and clone the current `Arc`. A reader
//!   holding an old snapshot keeps it alive by its own reference; the
//!   last holder to drop it frees it.
//!
//! Neither side holds the lock for longer than a pointer operation: a
//! reader only clones an `Arc` under it, a write only swaps one. Nobody
//! holds it while encoding a response or maintaining a view, so a reader
//! waits on a write for at most one swap, and a write waits on readers
//! for at most the clones already in flight.
//!
//! Because a published snapshot shares each view's `Arc`, the one copy
//! left on the write path is copy-on-write inside the view itself:
//! the manager applies a view delta through [`Arc::make_mut`], which copies a view's relation when the hub (or a
//! reader) still holds the version about to change — once per changed
//! view per commit while the hub is armed, and never for an empty delta.
//!
//! The hub is *lazily armed* — until
//! [`crate::manager::ViewManager::snapshots`] is first called, commits
//! skip publication entirely and non-serving managers pay a single atomic
//! load per transaction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::RwLock;

use ivm_relational::relation::Relation;
use ivm_relational::value::Value;

/// An immutable, consistent image of every registered view as of one
/// commit point. Cheap to hold: views unchanged since the previous
/// snapshot share their `Arc<Relation>` with it.
#[derive(Clone)]
pub struct ViewSnapshot {
    epoch: u64,
    views: BTreeMap<String, Arc<Relation>>,
}

impl ViewSnapshot {
    /// The publication epoch: `0` is the pre-arming empty snapshot, and
    /// each subsequent publication (one per commit once armed) adds one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Contents of one view at this snapshot, if registered.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.views.get(name).map(Arc::as_ref)
    }

    /// View names in this snapshot, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// Number of views captured.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the snapshot captures no views at all.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Iterate `(name, contents)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.views.iter().map(|(n, r)| (n.as_str(), r.as_ref()))
    }

    /// Stable FNV-1a digest of the whole snapshot (see [`digest_views`]).
    /// Two snapshots digest equal iff every view has identical contents —
    /// the isolation tests compare this against digests derived from the
    /// simulation oracle's expected state at each committed prefix.
    pub fn digest(&self) -> u64 {
        digest_views(self.iter())
    }
}

/// FNV-1a, 64-bit — the same construction the deterministic-simulation
/// harness uses for whole-engine state digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Stable digest of a sequence of named relations. Callers must supply
/// the views in a canonical (name-sorted) order — [`ViewSnapshot::iter`]
/// already does — so the same logical state always digests identically.
/// Tuples are folded in sorted tuple order with their counts, never in
/// raw hash order.
pub fn digest_views<'a>(views: impl IntoIterator<Item = (&'a str, &'a Relation)>) -> u64 {
    let mut h = Fnv::new();
    for (name, rel) in views {
        h.write(name.as_bytes());
        h.write(&[0xFD]);
        for attr in rel.schema().attrs() {
            h.write(attr.as_str().as_bytes());
            h.write(&[0xFF]);
        }
        let mut rows: Vec<_> = rel.iter().collect();
        rows.sort_unstable();
        for (tuple, count) in rows {
            for v in tuple.values() {
                match v {
                    Value::Int(i) => {
                        h.write(&[0x01]);
                        h.write_u64(*i as u64);
                    }
                    Value::Str(s) => {
                        h.write(&[0x02]);
                        h.write(s.as_bytes());
                        h.write(&[0x00]);
                    }
                }
            }
            h.write(&[0xFE]);
            h.write_u64(count);
        }
    }
    h.0
}

struct Shared {
    /// The current snapshot. Readers hold the read lock only to clone the
    /// `Arc`; a publish holds the write lock only to swap it.
    current: RwLock<Arc<ViewSnapshot>>,
    /// Publication only happens once a reader has asked for the hub.
    armed: AtomicBool,
}

/// The publication side of the snapshot scheme. Cloneable; all clones
/// share one current snapshot. The [`crate::manager::ViewManager`] owns
/// one and publishes through it at every commit once armed; anyone
/// holding a clone can spawn readers with [`SnapshotHub::reader`].
#[derive(Clone)]
pub struct SnapshotHub {
    shared: Arc<Shared>,
}

impl SnapshotHub {
    /// A hub whose current snapshot is empty at epoch `0`, not yet armed.
    pub fn new() -> Self {
        let initial = Arc::new(ViewSnapshot {
            epoch: 0,
            views: BTreeMap::new(),
        });
        SnapshotHub {
            shared: Arc::new(Shared {
                current: RwLock::new(initial),
                armed: AtomicBool::new(false),
            }),
        }
    }

    /// Whether publication is live (see
    /// [`crate::manager::ViewManager::snapshots`]).
    pub fn is_armed(&self) -> bool {
        self.shared.armed.load(SeqCst)
    }

    /// Switch publication on. Idempotent; called by the manager the first
    /// time a serving handle is requested.
    pub(crate) fn arm(&self) {
        self.shared.armed.store(true, SeqCst);
    }

    /// The epoch of the most recent publication (`0` before the first).
    pub fn epoch(&self) -> u64 {
        self.shared.current.read().epoch
    }

    /// Publish a new snapshot of `views`, sharing each view's `Arc`
    /// rather than copying the relation behind it. Called at each commit
    /// point.
    pub(crate) fn publish<'a>(
        &self,
        views: impl IntoIterator<Item = (&'a str, &'a Arc<Relation>)>,
    ) {
        let views: BTreeMap<String, Arc<Relation>> = views
            .into_iter()
            .map(|(name, rel)| (name.to_owned(), Arc::clone(rel)))
            .collect();
        let superseded = {
            let mut current = self.shared.current.write();
            let epoch = current.epoch.wrapping_add(1);
            std::mem::replace(&mut *current, Arc::new(ViewSnapshot { epoch, views }))
        };
        // Freed (if no reader still holds it) outside the lock.
        drop(superseded);
    }

    /// A reader handle for a serving thread.
    pub fn reader(&self) -> SnapshotHandle {
        SnapshotHandle { hub: self.clone() }
    }

    /// The most recently published snapshot: one read-lock acquisition
    /// and one `Arc` clone.
    pub fn latest(&self) -> Arc<ViewSnapshot> {
        Arc::clone(&self.shared.current.read())
    }
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

/// A reader: hands out the latest published [`ViewSnapshot`]. `Send`, so
/// it can move into the serving thread.
pub struct SnapshotHandle {
    hub: SnapshotHub,
}

impl SnapshotHandle {
    /// The most recently published snapshot (see [`SnapshotHub::latest`]).
    pub fn latest(&self) -> Arc<ViewSnapshot> {
        self.hub.latest()
    }

    /// Epoch of the most recent publication.
    pub fn epoch(&self) -> u64 {
        self.hub.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::schema::Schema;
    use ivm_relational::tuple::Tuple;

    fn rel(rows: &[i64]) -> Relation {
        let mut r = Relation::empty(Schema::new(["A"]).unwrap());
        for &v in rows {
            r.insert(Tuple::from([v]), 1).unwrap();
        }
        r
    }

    #[test]
    fn empty_hub_serves_epoch_zero() {
        let hub = SnapshotHub::new();
        let snap = hub.latest();
        assert_eq!(snap.epoch(), 0);
        assert!(snap.is_empty());
        assert!(!hub.is_armed());
    }

    #[test]
    fn publish_advances_epoch_and_contents() {
        let hub = SnapshotHub::new();
        hub.arm();
        let r1 = Arc::new(rel(&[1, 2]));
        hub.publish([("v", &r1)]);
        let snap = hub.latest();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.get("v").unwrap().len(), 2);
        assert!(snap.get("w").is_none());
        let r2 = Arc::new(rel(&[1, 2, 3]));
        hub.publish([("v", &r2)]);
        assert_eq!(hub.latest().get("v").unwrap().len(), 3);
        assert_eq!(hub.epoch(), 2);
    }

    #[test]
    fn unchanged_views_share_the_relation_allocation() {
        let hub = SnapshotHub::new();
        hub.arm();
        let r1 = Arc::new(rel(&[1]));
        let r2 = Arc::new(rel(&[2]));
        hub.publish([("a", &r1), ("b", &r2)]);
        let before = hub.latest();
        // Publish again with only `b` replaced: `a` must be the same
        // allocation, `b` a fresh one.
        let r2b = Arc::new(rel(&[2, 3]));
        hub.publish([("a", &r1), ("b", &r2b)]);
        let after = hub.latest();
        assert!(std::ptr::eq(
            before.get("a").unwrap(),
            after.get("a").unwrap()
        ));
        assert!(!std::ptr::eq(
            before.get("b").unwrap(),
            after.get("b").unwrap()
        ));
        assert_eq!(after.get("b").unwrap().len(), 2);
    }

    #[test]
    fn old_snapshots_stay_readable_after_supersession() {
        let hub = SnapshotHub::new();
        hub.arm();
        let r1 = Arc::new(rel(&[1]));
        hub.publish([("v", &r1)]);
        let pinned = hub.latest();
        for i in 0..50 {
            let r = Arc::new(rel(&(0..=i).collect::<Vec<_>>()));
            hub.publish([("v", &r)]);
        }
        // The epoch-1 snapshot must still be intact.
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.get("v").unwrap().len(), 1);
        assert_eq!(hub.latest().epoch(), 51);
    }

    #[test]
    fn superseded_snapshots_are_released() {
        let hub = SnapshotHub::new();
        hub.arm();
        let r1 = Arc::new(rel(&[1]));
        hub.publish([("v", &r1)]);
        assert_eq!(hub.epoch(), hub.latest().epoch());
        hub.publish([("v", &Arc::new(rel(&[2])))]);
        assert_eq!(hub.epoch(), hub.latest().epoch());
        // No reader held the epoch-1 snapshot: only the test's own handle
        // on `r1` is left.
        assert_eq!(Arc::strong_count(&r1), 1);

        hub.publish([("v", &r1)]);
        assert_eq!(hub.epoch(), hub.latest().epoch());
        let held = hub.latest();
        hub.publish([("v", &Arc::new(rel(&[3])))]);
        assert_eq!(hub.epoch(), hub.latest().epoch());
        assert_eq!(Arc::strong_count(&r1), 2, "a held snapshot keeps r1");
        drop(held);
        assert_eq!(Arc::strong_count(&r1), 1);
    }

    #[test]
    fn digest_is_order_insensitive_to_source_and_content_sensitive() {
        let a = rel(&[1, 2]);
        let b = rel(&[3]);
        let d1 = digest_views([("a", &a), ("b", &b)]);
        let d2 = digest_views([("a", &rel(&[1, 2])), ("b", &rel(&[3]))]);
        assert_eq!(d1, d2, "same logical state digests equal");
        let d3 = digest_views([("a", &rel(&[1, 2])), ("b", &rel(&[4]))]);
        assert_ne!(d1, d3, "different contents digest differently");
        let d4 = digest_views([("a", &a)]);
        assert_ne!(d1, d4, "missing view digests differently");
    }

    #[test]
    fn concurrent_readers_see_only_published_states() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let hub = SnapshotHub::new();
        hub.arm();
        hub.publish([("v", &Arc::new(rel(&[])))]);
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = hub.reader();
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut last_epoch = 0;
                let mut observed = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let snap = h.latest();
                    // Epochs are monotone per reader, and the invariant
                    // len(v) == epoch - 1 holds for every published state.
                    assert!(snap.epoch() >= last_epoch);
                    last_epoch = snap.epoch();
                    let len = snap.get("v").map(Relation::len).unwrap_or(0);
                    assert_eq!(len as u64 + 1, snap.epoch(), "torn snapshot");
                    observed += 1;
                }
                observed
            }));
        }
        for i in 0..500u64 {
            let rows: Vec<i64> = (0..=i as i64).collect();
            hub.publish([("v", &Arc::new(rel(&rows)))]);
        }
        stop.store(true, Ordering::SeqCst);
        for j in joins {
            assert!(j.join().unwrap() > 0);
        }
        assert_eq!(hub.latest().epoch(), 501);
    }
}
