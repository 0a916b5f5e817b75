//! Lock-free snapshot publication: concurrent readers over maintained views.
//!
//! The paper's economics assume a view is *read* far more often than its
//! operands are updated — maintenance cost is paid at write time so that
//! queries are cheap. This module supplies the serving half of that
//! bargain: a single-writer, many-reader publication scheme in which the
//! [`crate::manager::ViewManager`] (the writer) publishes an immutable
//! [`ViewSnapshot`] of every registered view at each commit point, and any
//! number of reader threads retrieve the latest snapshot without ever
//! blocking the writer or observing a half-applied transaction.
//!
//! # Design
//!
//! The hub keeps the current snapshot behind an atomic pointer and
//! reclaims superseded snapshots with *epoch-based reclamation* — the
//! std-only equivalent of an `arc-swap`/crossbeam-epoch pairing:
//!
//! * **Publish** (writer): build the next [`ViewSnapshot`] from the
//!   `Arc<Relation>` each view already stores — publication copies no
//!   rows, and a view the commit did not change keeps the very pointer
//!   the previous snapshot holds — swap it in, bump the global epoch, and
//!   move the superseded snapshot onto a retire list tagged with the new
//!   epoch.
//! * **Pin** (reader): announce the current epoch in a per-reader slot,
//!   load the pointer, take a strong reference, and un-announce. The pin
//!   window is three atomic operations long.
//! * **Reclaim** (writer): a retired snapshot is released only once every
//!   announced reader epoch has advanced past its retire epoch. A reader
//!   that announced epoch `e` before the writer's swap is the only kind
//!   that can still hold the superseded pointer, and its announcement
//!   (`e` < retire epoch) blocks release until it un-pins.
//!
//! Because a published snapshot shares each view's `Arc`, the one copy
//! left on the write path is copy-on-write inside the view itself:
//! [`crate::view::MaterializedView::apply`] goes through
//! [`Arc::make_mut`], which copies a view's relation when the hub (or a
//! reader) still holds the version about to change — once per changed
//! view per commit while the hub is armed, and never for an empty delta.
//!
//! Readers therefore never take a lock the writer contends on: the write
//! path is an atomic swap plus a scan of reader slots, and a stalled
//! reader delays only memory reclamation, never publication. The hub is
//! *lazily armed* — until [`crate::manager::ViewManager::snapshots`] is
//! first called, commits skip publication entirely and non-serving
//! managers pay a single atomic load per transaction.
//!
//! Reader slots are nodes in a lock-free Treiber list. Registration
//! reuses a released slot or pushes a new node; nodes are freed only when
//! the hub itself drops, so a slot pointer held by a
//! [`SnapshotHandle`] stays valid for the handle's whole life.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;

use ivm_relational::relation::Relation;
use ivm_relational::value::Value;

/// Slot value meaning "this reader is not currently pinned".
const IDLE: u64 = u64::MAX;

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

/// One reader's registration: an announce word the writer scans before
/// reclaiming, threaded into a lock-free list that lives as long as the
/// hub. `in_use` is false once the owning handle drops; the node is then
/// recycled by the next registration instead of freed.
struct Slot {
    announced: AtomicU64,
    in_use: AtomicBool,
    next: AtomicPtr<Slot>,
}

/// Writer-private bookkeeping. Only [`SnapshotHub::publish`] (called by
/// the single maintaining thread) and `Drop` touch this; readers never
/// acquire the mutex, so it is not on any reader/writer contention path.
struct WriterState {
    /// Superseded snapshots awaiting quiescence: `(retire_epoch, ptr)`
    /// where `ptr` owns one strong count transferred from `current`.
    retired: Vec<(u64, *const ViewSnapshot)>,
}

// SAFETY: the raw pointers in `retired` are `Arc`-owned allocations whose
// strong counts are manipulated only under the enclosing mutex; moving
// the vector between threads moves ownership of those counts with it.
unsafe impl Send for WriterState {}

struct Shared {
    /// The current snapshot as `Arc::into_raw`; holds one strong count.
    current: AtomicPtr<ViewSnapshot>,
    /// Global publication epoch; equals the current snapshot's epoch.
    epoch: AtomicU64,
    /// Publication only happens once a reader has asked for the hub.
    armed: AtomicBool,
    /// Head of the reader-slot list.
    readers: AtomicPtr<Slot>,
    writer: Mutex<WriterState>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // No readers exist once the last hub/handle clone (and thus this
        // `Shared`) drops, so the strong count `current` holds (minted by
        // `Arc::into_raw` at construction or publish) can be released.
        // SAFETY: see above — we own the count and nobody else can read
        // the pointer anymore.
        unsafe { drop(Arc::from_raw(self.current.load(SeqCst))) };
        let retired = std::mem::take(&mut self.writer.get_mut().retired);
        for (_, ptr) in retired {
            // SAFETY: each retired entry owns the strong count that
            // `current` held before the snapshot was superseded.
            unsafe { Arc::decrement_strong_count(ptr) };
        }
        let mut node = self.readers.load(SeqCst);
        while !node.is_null() {
            // SAFETY: slot nodes are `Box::into_raw` allocations pushed by
            // `register`; they are only freed here, after every handle
            // (which keeps `Shared` alive via its `Arc`) is gone.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next.load(SeqCst);
        }
    }
}

/// The publication side of the snapshot scheme. Cloneable; all clones
/// share one epoch, one current snapshot and one reader registry. The
/// [`crate::manager::ViewManager`] owns one and publishes through it at
/// every commit once armed; anyone holding a clone can spawn readers
/// with [`SnapshotHub::reader`].
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
                current: AtomicPtr::new(Arc::into_raw(initial) as *mut ViewSnapshot),
                epoch: AtomicU64::new(0),
                armed: AtomicBool::new(false),
                readers: AtomicPtr::new(std::ptr::null_mut()),
                writer: Mutex::new(WriterState {
                    retired: Vec::new(),
                }),
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
        self.shared.epoch.load(SeqCst)
    }

    /// Publish a new snapshot of `views`, sharing each view's `Arc`
    /// rather than copying the relation behind it. Called by the single
    /// maintaining thread at each commit point.
    pub(crate) fn publish<'a>(
        &self,
        views: impl IntoIterator<Item = (&'a str, &'a Arc<Relation>)>,
    ) {
        let map: BTreeMap<String, Arc<Relation>> = views
            .into_iter()
            .map(|(name, rel)| (name.to_owned(), Arc::clone(rel)))
            .collect();
        let mut w = self.shared.writer.lock();
        let next_epoch = self.shared.epoch.load(SeqCst).wrapping_add(1);
        let snap = Arc::new(ViewSnapshot {
            epoch: next_epoch,
            views: map,
        });
        let old = self
            .shared
            .current
            .swap(Arc::into_raw(snap) as *mut ViewSnapshot, SeqCst);
        self.shared.epoch.store(next_epoch, SeqCst);
        w.retired.push((next_epoch, old as *const ViewSnapshot));
        self.reclaim(&mut w);
    }

    /// Release every retired snapshot whose retire epoch all currently
    /// announced readers have advanced past. A reader still holding a
    /// superseded pointer necessarily announced an epoch below that
    /// snapshot's retire epoch before the swap (see module docs), so it
    /// holds reclamation back until it un-pins.
    fn reclaim(&self, w: &mut WriterState) {
        if w.retired.is_empty() {
            return;
        }
        let mut min_announced = IDLE;
        let mut node = self.shared.readers.load(SeqCst);
        while !node.is_null() {
            // SAFETY: slot nodes are freed only when `Shared` drops; the
            // hub's own `Arc` keeps `Shared` alive here.
            let slot = unsafe { &*node };
            min_announced = min_announced.min(slot.announced.load(SeqCst));
            node = slot.next.load(SeqCst);
        }
        w.retired.retain(|&(retire_epoch, ptr)| {
            if min_announced >= retire_epoch {
                // Every reader that could still be taking a reference
                // announced an epoch < `retire_epoch` and would have kept
                // `min_announced` below it, so none remains mid-pin.
                // SAFETY: this entry owns the strong count `current` held
                // before the swap; releasing it is the writer's right.
                unsafe { Arc::decrement_strong_count(ptr) };
                false
            } else {
                true
            }
        });
    }

    /// Register a reader. The handle is `Send` (move it into the serving
    /// thread) but deliberately not `Sync`: one handle per thread.
    pub fn reader(&self) -> SnapshotHandle {
        // Recycle a released slot if one exists.
        let mut node = self.shared.readers.load(SeqCst);
        while !node.is_null() {
            // SAFETY: slot nodes live until `Shared` drops (kept alive by
            // our `Arc`).
            let slot = unsafe { &*node };
            if slot
                .in_use
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
            {
                slot.announced.store(IDLE, SeqCst);
                return SnapshotHandle {
                    shared: Arc::clone(&self.shared),
                    slot: node,
                };
            }
            node = slot.next.load(SeqCst);
        }
        // None free: push a fresh node (Treiber stack).
        let fresh = Box::into_raw(Box::new(Slot {
            announced: AtomicU64::new(IDLE),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        loop {
            let head = self.shared.readers.load(SeqCst);
            // SAFETY: `fresh` is the valid allocation made above and not
            // yet visible to any other thread.
            unsafe { &*fresh }.next.store(head, SeqCst);
            if self
                .shared
                .readers
                .compare_exchange(head, fresh, SeqCst, SeqCst)
                .is_ok()
            {
                return SnapshotHandle {
                    shared: Arc::clone(&self.shared),
                    slot: fresh,
                };
            }
        }
    }

    /// Current snapshot via a throwaway reader registration — for callers
    /// that need one snapshot, not a serving loop.
    pub fn latest(&self) -> Arc<ViewSnapshot> {
        self.reader().latest()
    }
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

/// A registered reader: hands out the latest published [`ViewSnapshot`]
/// wait-free with respect to the writer. Dropping the handle releases its
/// slot for reuse.
pub struct SnapshotHandle {
    shared: Arc<Shared>,
    slot: *const Slot,
}

// SAFETY: the slot pointer targets a node that outlives `shared` — which
// the handle keeps alive — and the handle is the slot's unique owner
// (`in_use` was won by CAS), so moving it to another thread is sound.
unsafe impl Send for SnapshotHandle {}

impl SnapshotHandle {
    /// The most recently published snapshot. Three atomic operations of
    /// pin window; never blocks on the writer, and the writer never
    /// blocks on this.
    pub fn latest(&self) -> Arc<ViewSnapshot> {
        // SAFETY: slot nodes live until `Shared` drops, and `self.shared`
        // keeps it alive.
        let slot = unsafe { &*self.slot };
        let e = self.shared.epoch.load(SeqCst);
        slot.announced.store(e, SeqCst);
        let ptr = self.shared.current.load(SeqCst);
        // We announced epoch `e` before loading `ptr`. If `ptr` is
        // retired at some epoch `k`, the writer's swap preceded the bump
        // to `k`; had the swap also preceded our load we would have read
        // the newer pointer instead. So our announce — with `e < k` —
        // was visible before any reclaim scan that could free `ptr`.
        // SAFETY: per the argument above, the reclaim scan sees our
        // announce and keeps `ptr` alive until the un-announce below,
        // which happens only after the count is raised.
        unsafe { Arc::increment_strong_count(ptr) };
        slot.announced.store(IDLE, SeqCst);
        // SAFETY: the increment above minted a strong count we own.
        unsafe { Arc::from_raw(ptr) }
    }

    /// Epoch of the most recent publication, without pinning.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(SeqCst)
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        // SAFETY: the node outlives the handle (kept alive by `shared`).
        let slot = unsafe { &*self.slot };
        slot.announced.store(IDLE, SeqCst);
        slot.in_use.store(false, SeqCst);
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
    fn slots_are_recycled_across_handle_lifetimes() {
        let hub = SnapshotHub::new();
        let h1 = hub.reader();
        let first_slot = h1.slot;
        drop(h1);
        let h2 = hub.reader();
        assert!(std::ptr::eq(first_slot, h2.slot));
        // A second live handle gets a different slot.
        let h3 = hub.reader();
        assert!(!std::ptr::eq(h2.slot, h3.slot));
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
