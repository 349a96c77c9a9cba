//! The Arc-swapped snapshot store: publication point of the serving layer.

use ecfd_session::Snapshot;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Holds the currently published [`Snapshot`] behind one swappable `Arc`.
///
/// The store is the *only* synchronisation point between the writer and the
/// readers, and the lock inside it is held exactly as long as it takes to
/// clone or replace one pointer — never across a scan, a decode or any other
/// query work. A reader that obtained its `Arc<Snapshot>` proceeds entirely
/// lock-free: every byte it will touch is immutable.
///
/// Epochs are strictly monotonic: [`SnapshotStore::publish`] refuses to move
/// backwards (a stale writer republishing an old epoch is a no-op), so
/// `current().epoch()` never decreases between two reads.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotStore {
    /// Creates a store publishing `initial` as the first epoch.
    pub fn new(initial: Snapshot) -> Self {
        SnapshotStore {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Arc<Snapshot>> {
        self.current.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Arc<Snapshot>> {
        self.current.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The currently published snapshot. Two pointer operations under a read
    /// lock; the returned handle stays valid (and unchanged) for as long as
    /// the caller keeps it, regardless of later publications.
    pub fn current(&self) -> Arc<Snapshot> {
        self.read().clone()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.read().epoch()
    }

    /// Publishes a new snapshot, returning its epoch. Publishing an epoch at
    /// or below the current one is ignored (the newer state wins) and returns
    /// the retained epoch.
    ///
    /// The snapshot that loses — normally the previous epoch — is released
    /// after the lock: if the store was its last holder, dropping it frees
    /// the chunks, report and evidence the new epoch does not share, and no
    /// reader should wait on that.
    pub fn publish(&self, snapshot: impl Into<Arc<Snapshot>>) -> u64 {
        let mut incoming = snapshot.into();
        let mut slot = self.write();
        if incoming.epoch() > slot.epoch() {
            std::mem::swap(&mut *slot, &mut incoming);
        }
        let epoch = slot.epoch();
        drop(slot);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Relation, Schema, Tuple};
    use ecfd_session::Session;

    fn snapshot_at(extra_rows: usize) -> (Session, Snapshot) {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let mut rows = vec![
            Tuple::from_iter(["Albany", "718"]),
            Tuple::from_iter(["NYC", "212"]),
        ];
        rows.extend((0..extra_rows).map(|i| Tuple::from_iter(["Troy", &format!("5{i:02}")])));
        let data = Relation::with_tuples(schema, rows).unwrap();
        let mut session = Session::new();
        session.load(data).unwrap();
        session
            .register_text("cust: [CT] -> [AC] | [], { {Albany} || {518} }")
            .unwrap();
        let snap = session.snapshot().unwrap();
        (session, snap)
    }

    #[test]
    fn publish_is_monotonic_and_current_is_stable() {
        let (mut session, first) = snapshot_at(0);
        let store = SnapshotStore::new(first);
        let held = store.current();
        let e0 = store.epoch();

        session
            .apply(&ecfd_relation::Delta::insert_only(vec![Tuple::from_iter(
                ["LI", "516"],
            )]))
            .unwrap();
        let second = session.snapshot().unwrap();
        let e1 = store.publish(second.clone());
        assert!(e1 > e0);
        assert_eq!(store.current().num_rows(), 3);
        // Republishing the old epoch is a no-op.
        assert_eq!(store.publish(second), e1);
        // The handle taken before the publish still reads epoch 0 state.
        assert_eq!(held.epoch(), e0);
        assert_eq!(held.num_rows(), 2);
    }
}
