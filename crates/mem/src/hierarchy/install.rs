//! [`MemoryHierarchy::install`]: the state a stream of data accesses leaves
//! in cleared caches, written into the hierarchy's own caches without
//! latencies, statistics or the private lookups that must miss.
//!
//! The install steps through the protocol of [`MemoryHierarchy::access`]
//! on the same caches, relying on three facts about data accesses from
//! cleared caches:
//!
//! - **The directory is exact.**  A core is a sharer of an L3 line iff its
//!   L2 holds the line: an access sets the bit as it fills the L2, and every
//!   way a private copy leaves (L2 eviction, a remote write, an L3 eviction)
//!   clears the bit, resets the mask or drops the entry.  So the home L3 set
//!   is consulted first, and an access by a non-sharer misses both private
//!   levels without looking.  A lookup that misses changes no recency, so
//!   skipping it leaves the state `access` leaves.
//! - **L1D ⊆ L2, with equal states.**  Both levels fill with one state, and
//!   downgrades, upgrades and invalidations change both.  So a dirty L1D
//!   victim's data is already in its L2 copy (the timed path asserts this
//!   in debug builds), and an L2 victim's own state says whether a dirty
//!   copy is written back.
//! - **The instruction caches stay empty.**

use super::MemoryHierarchy;
use crate::cache::LineState;
use crate::shared_cache::{DirEntry, Slot};

impl MemoryHierarchy {
    /// Replaces the hierarchy's contents with the state a cleared hierarchy
    /// reaches after the data accesses `accesses` — `(core, byte address,
    /// is_write)`, in order — and clears the statistics.  The result has
    /// the [`canonical_state`](Self::canonical_state) of
    /// [`clear`](Self::clear), one [`access`](Self::access) per element and
    /// [`reset_stats`](Self::reset_stats), and so behaves identically from
    /// then on.
    ///
    /// # Panics
    ///
    /// Panics if an access names a core the hierarchy does not have.
    pub fn install(&mut self, accesses: impl IntoIterator<Item = (usize, u64, bool)>) {
        self.clear();
        let cores = self.cores.len();
        for (core, addr, is_write) in accesses {
            assert!(core < cores, "access by core {core} of a {cores}-core hierarchy");
            self.install_access(core, addr >> self.line_shift, is_write);
        }
        self.reset_stats();
    }

    /// One data access by `core` to `line`: [`access`](Self::access)'s
    /// effect on the caches and the directory.
    fn install_access(&mut self, core: usize, line: u64, is_write: bool) {
        let bit = 1u64 << core;
        let home = self.home_socket(line);
        let found = self.sockets[home].peek_slot(line);
        if let Some((slot, entry)) = found {
            if entry.sharers & bit != 0
                && self.install_private_hit(core, line, is_write, home, slot)
            {
                return;
            }
        }
        match found {
            Some((slot, entry)) => {
                self.sockets[home].touch(slot);
                match entry.owner {
                    // Dirty data moves from the owner's caches.  The owner
                    // is not the requester: an owner is a sharer.
                    Some(owner) => {
                        let owner = owner as usize;
                        if is_write {
                            self.drop_private(owner, line);
                        } else {
                            self.cores[owner].l1d.set_state(line, LineState::Shared);
                            self.cores[owner].l2.set_state(line, LineState::Shared);
                        }
                        let e = self.sockets[home].entry_mut(slot);
                        e.dirty = true;
                        if is_write {
                            e.sharers = bit;
                            e.owner = Some(core as u32);
                        } else {
                            e.sharers |= bit;
                            e.owner = None;
                        }
                    }
                    None if is_write => self.install_upgrade(core, line, home, slot),
                    None => self.sockets[home].entry_mut(slot).sharers |= bit,
                }
            }
            None => {
                let owner = is_write.then_some(core as u32);
                let entry = DirEntry { dirty: false, sharers: bit, owner };
                if let Some(victim) = self.sockets[home].fill(line, entry) {
                    // Inclusion: the victim leaves every private cache.
                    self.drop_sharers(victim.sharers, victim.line);
                }
            }
        }
        let state = if is_write { LineState::Modified } else { LineState::Shared };
        self.install_fill_l2(core, line, state);
        // The L1D victim's L2 copy already holds its state: nothing to merge.
        self.cores[core].l1d.fill(line, state);
    }

    /// An access by a sharer of `line` (at `slot` of its home L3 `home`),
    /// serviced by its own L1D or L2.  Returns `false` if neither holds the
    /// line.
    fn install_private_hit(
        &mut self,
        core: usize,
        line: u64,
        is_write: bool,
        home: usize,
        slot: Slot,
    ) -> bool {
        let caches = &mut self.cores[core];
        if let Some(state) = caches.l1d.lookup(line) {
            if is_write && state == LineState::Shared {
                self.install_upgrade(core, line, home, slot);
                self.cores[core].l1d.set_state(line, LineState::Modified);
                self.cores[core].l2.set_state(line, LineState::Modified);
            }
            return true;
        }
        let Some(mut state) = caches.l2.lookup(line) else {
            return false;
        };
        if is_write && state == LineState::Shared {
            self.install_upgrade(core, line, home, slot);
            self.cores[core].l2.set_state(line, LineState::Modified);
            state = LineState::Modified;
        }
        self.cores[core].l1d.fill(line, state);
        true
    }

    /// A write by `core` to `line` (at `slot` of its home L3 `home`) that
    /// no one owns: every other private copy goes and `core` becomes the
    /// owner.
    fn install_upgrade(&mut self, core: usize, line: u64, home: usize, slot: Slot) {
        let bit = 1u64 << core;
        let others = self.sockets[home].entry_mut(slot).sharers & !bit;
        self.drop_sharers(others, line);
        let e = self.sockets[home].entry_mut(slot);
        e.sharers = bit;
        e.owner = Some(core as u32);
    }

    /// Drops `line` from the L1D and L2 of every core in `mask`.
    fn drop_sharers(&mut self, mut mask: u64, line: u64) {
        while mask != 0 {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if core < self.cores.len() {
                self.drop_private(core, line);
            }
        }
    }

    fn drop_private(&mut self, core: usize, line: u64) {
        self.cores[core].l1d.invalidate(line);
        self.cores[core].l2.invalidate(line);
    }

    /// Fills `core`'s L2; the victim leaves the L1D too, and its directory
    /// entry drops `core` (and records the write-back of a dirty copy).
    fn install_fill_l2(&mut self, core: usize, line: u64, state: LineState) {
        let Some(victim) = self.cores[core].l2.fill(line, state) else {
            return;
        };
        self.cores[core].l1d.invalidate(victim.line);
        let home = self.home_socket(victim.line);
        self.sockets[home].update(victim.line, |e| {
            e.dirty |= victim.dirty;
            e.sharers &= !(1 << core);
            if e.owner == Some(core as u32) {
                e.owner = None;
            }
        });
    }
}
