//! Mutable per-entity state of a simulation run: OSC/MDC pipelines, file and
//! directory metadata, readahead and statahead machines, extent locks.

use crate::ops::DirId;
use crate::stripe::Layout;
use simcore::hash::FxBuildHasher;
use simcore::resources::Window;
use simcore::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Per (client, OST) object-storage-client state.
#[derive(Debug)]
pub struct OscState {
    /// Bulk RPC concurrency window (`osc.max_rpcs_in_flight`).
    pub window: Window,
    /// Dirty bytes currently buffered against this OSC.
    pub dirty_bytes: u64,
    /// Pending writeback completions `(end, bytes)`.
    pub wb_pending: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Cumulative time writers stalled on the dirty limit.
    pub dirty_stall: Duration,
}

impl OscState {
    /// Create with the given RPC window capacity.
    pub fn new(max_rpcs: usize) -> Self {
        OscState {
            window: Window::new(max_rpcs.max(1)),
            dirty_bytes: 0,
            wb_pending: BinaryHeap::new(),
            dirty_stall: Duration::ZERO,
        }
    }

    /// Retire writebacks that completed at or before `now`.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&Reverse((end, bytes))) = self.wb_pending.peek() {
            if end <= now {
                self.wb_pending.pop();
                self.dirty_bytes = self.dirty_bytes.saturating_sub(bytes);
            } else {
                break;
            }
        }
    }

    /// Earliest instant at which `need` bytes of headroom exist under `cap`,
    /// starting from `now`. Returns `None` if draining everything still
    /// cannot make room (need > cap with no pending data to retire).
    pub fn drain_until_room(&mut self, now: SimTime, need: u64, cap: u64) -> Option<SimTime> {
        self.advance(now);
        let mut t = now;
        while self.dirty_bytes + need > cap {
            match self.wb_pending.pop() {
                Some(Reverse((end, bytes))) => {
                    self.dirty_bytes = self.dirty_bytes.saturating_sub(bytes);
                    t = t.max(end);
                }
                None => {
                    // Nothing left to drain; admit anyway (single op larger
                    // than the cap must still make progress).
                    return if need > cap { Some(t) } else { None };
                }
            }
        }
        Some(t)
    }
}

/// Per-client metadata-client state.
#[derive(Debug)]
pub struct MdcState {
    /// Non-modifying metadata RPC window (`mdc.max_rpcs_in_flight`).
    pub rpc_window: Window,
    /// Modifying metadata RPC window (`mdc.max_mod_rpcs_in_flight`).
    pub mod_window: Window,
}

impl MdcState {
    /// Create with the given window capacities.
    pub fn new(max_rpcs: usize, max_mod_rpcs: usize) -> Self {
        MdcState {
            rpc_window: Window::new(max_rpcs.max(1)),
            mod_window: Window::new(max_mod_rpcs.max(1)),
        }
    }
}

/// Dirty extents of one (client, file, object) stream awaiting writeback.
///
/// Ranges are kept coalesced: Lustre's writeback sorts and merges adjacent
/// dirty pages, so random small writes that eventually fill a region flush
/// as large sequential RPCs — the mechanism that makes `osc.max_dirty_mb`
/// and `osc.max_pages_per_rpc` powerful for random-write workloads.
#[derive(Debug, Clone, Default)]
pub struct DirtyRanges {
    /// start -> len, non-overlapping, non-adjacent (always coalesced).
    ranges: BTreeMap<u64, u64>,
    /// OST holding the object.
    pub ost: u32,
}

impl DirtyRanges {
    /// Create an empty set for an object on `ost`.
    pub fn new(ost: u32) -> Self {
        DirtyRanges {
            ranges: BTreeMap::new(),
            ost,
        }
    }

    /// Insert `[start, start+len)`, merging with any adjacent or overlapping
    /// ranges. Returns the merged run containing the insertion.
    pub fn insert(&mut self, start: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            return (start, 0);
        }
        let mut new_start = start;
        let mut new_end = start + len;
        // Merge with a predecessor that touches or overlaps.
        if let Some((&ps, &pl)) = self.ranges.range(..=start).next_back() {
            if ps + pl >= new_start {
                new_start = ps;
                new_end = new_end.max(ps + pl);
                self.ranges.remove(&ps);
            }
        }
        // Merge with successors that touch or overlap.
        while let Some((&ns, &nl)) = self.ranges.range(new_start..).next() {
            if ns <= new_end {
                new_end = new_end.max(ns + nl);
                self.ranges.remove(&ns);
            } else {
                break;
            }
        }
        self.ranges.insert(new_start, new_end - new_start);
        (new_start, new_end - new_start)
    }

    /// Remove and return the run starting at `start` (must exist).
    pub fn take(&mut self, start: u64) -> Option<(u64, u64)> {
        self.ranges.remove(&start).map(|len| (start, len))
    }

    /// Iterate `(start, len)` over runs in offset order.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &l)| (s, l))
    }

    /// Remove all runs, appending them in offset order to a caller-provided
    /// buffer so flush paths on the engine's hot loop can reuse one
    /// allocation across ops.
    pub fn drain_all_into(&mut self, out: &mut Vec<(u64, u64)>) {
        out.extend(self.ranges.iter().map(|(&s, &l)| (s, l)));
        self.ranges.clear();
    }

    /// Whether no dirty data remains.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Per (client, file) readahead state machine.
#[derive(Debug, Clone, Default)]
pub struct RaState {
    /// Next expected sequential offset.
    pub expect: u64,
    /// Current window size in bytes (0 = not streaming).
    pub window: u64,
    /// Whether whole-file readahead already fired.
    pub whole_done: bool,
}

/// Per (client, directory) statahead state machine.
///
/// Mirrors Lustre's behaviour: the statahead thread starts after a short
/// sequential run and prefetches up to `statahead_max` entries *per scan*;
/// once the budget is consumed, subsequent stats fall back to synchronous
/// RPCs until a new scan re-activates it. This is why the default of 32 is
/// inadequate for 400-entry directories and why the paper's Tuning Agent
/// raises it (Fig. 10).
#[derive(Debug, Clone, Default)]
pub struct SaState {
    /// Next expected entry index (creation order).
    pub expect_index: u32,
    /// Length of the current sequential stat run.
    pub run: u32,
    /// Whether the statahead thread is active for this directory.
    pub active: bool,
    /// Entries already prefetched in this activation (budget consumed).
    pub consumed: u32,
}

/// File metadata within a run.
#[derive(Debug, Clone)]
pub struct FileState {
    /// Stripe layout fixed at creation.
    pub layout: Layout,
    /// Current size in bytes (high-water mark of writes).
    pub size: u64,
    /// Parent directory.
    pub dir: DirId,
    /// Creation-order index within the parent directory.
    pub create_index: u32,
    /// Latest writeback completion across all clients (fsync/unlink waits).
    pub last_wb_end: SimTime,
    /// Whether the file currently exists.
    pub exists: bool,
}

/// Directory metadata within a run.
#[derive(Debug, Clone, Default)]
pub struct DirState {
    /// Number of entries created so far.
    pub entries: u32,
}

/// Extent-lock table for one file: maps lock-region index to holding client.
///
/// Regions are fixed-size slices of *file* offset space (an approximation of
/// per-object extent locks that keeps cross-client write conflicts visible).
#[derive(Debug, Default)]
pub struct LockTable {
    // determinism audit (D002): point lookups per lock region, visited in
    // ascending region order by `acquire` — never iterated as a map
    holders: HashMap<u64, u32, FxBuildHasher>,
}

/// Lock region granularity (16 MiB of file offset space).
pub const LOCK_REGION_BYTES: u64 = 16 << 20;

impl LockTable {
    /// Acquire regions covering `[offset, offset+len)` for `client`.
    /// Returns the number of revocations (regions held by another client).
    pub fn acquire(&mut self, client: u32, offset: u64, len: u64) -> u32 {
        if len == 0 {
            return 0;
        }
        let first = offset / LOCK_REGION_BYTES;
        let last = (offset + len - 1) / LOCK_REGION_BYTES;
        let mut revocations = 0;
        for region in first..=last {
            match self.holders.get_mut(&region) {
                Some(holder) if *holder != client => {
                    *holder = client;
                    revocations += 1;
                }
                Some(_) => {}
                None => {
                    self.holders.insert(region, client);
                }
            }
        }
        revocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osc_advance_retires_completed() {
        let mut o = OscState::new(8);
        o.dirty_bytes = 300;
        o.wb_pending.push(Reverse((SimTime::from_secs(1), 100)));
        o.wb_pending.push(Reverse((SimTime::from_secs(3), 200)));
        o.advance(SimTime::from_secs(2));
        assert_eq!(o.dirty_bytes, 200);
        o.advance(SimTime::from_secs(3));
        assert_eq!(o.dirty_bytes, 0);
    }

    #[test]
    fn drain_until_room_waits_for_completions() {
        let mut o = OscState::new(8);
        o.dirty_bytes = 100;
        o.wb_pending.push(Reverse((SimTime::from_secs(5), 60)));
        // cap 120, need 50: must retire the 60-byte writeback at t=5.
        let t = o.drain_until_room(SimTime::from_secs(1), 50, 120).unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(o.dirty_bytes, 40);
    }

    #[test]
    fn drain_until_room_immediate_when_fits() {
        let mut o = OscState::new(8);
        o.dirty_bytes = 10;
        let t = o.drain_until_room(SimTime::from_secs(1), 5, 100).unwrap();
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn drain_oversized_single_op_proceeds() {
        let mut o = OscState::new(8);
        // need > cap with nothing pending: must not deadlock.
        let t = o.drain_until_room(SimTime::from_secs(2), 500, 100).unwrap();
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn lock_table_conflict_counting() {
        let mut l = LockTable::default();
        assert_eq!(l.acquire(0, 0, 1000), 0); // fresh grant
        assert_eq!(l.acquire(0, 0, 1000), 0); // same client, no conflict
        assert_eq!(l.acquire(1, 0, 1000), 1); // stolen
        assert_eq!(l.acquire(0, 0, 1000), 1); // stolen back
    }

    #[test]
    fn lock_spanning_regions() {
        let mut l = LockTable::default();
        // Extent spanning two regions: two grants, then two revocations.
        let len = LOCK_REGION_BYTES + 10;
        assert_eq!(l.acquire(0, 0, len), 0);
        assert_eq!(l.acquire(1, 0, len), 2);
        assert_eq!(l.acquire(2, 0, 0), 0); // empty extent
    }

    #[test]
    fn ra_state_default_not_streaming() {
        let ra = RaState::default();
        assert_eq!(ra.window, 0);
        assert!(!ra.whole_done);
    }

    /// Every run, drained in offset order.
    fn drain(d: &mut DirtyRanges) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        d.drain_all_into(&mut out);
        out
    }

    #[test]
    fn dirty_ranges_coalesce_adjacent() {
        let mut d = DirtyRanges::new(0);
        d.insert(0, 100);
        let (s, l) = d.insert(100, 50); // adjacent: merges
        assert_eq!((s, l), (0, 150));
        assert_eq!(drain(&mut d), vec![(0, 150)]);
    }

    #[test]
    fn dirty_ranges_random_fill_becomes_one_run() {
        // Random permutation of 16 chunks coalesces to one 16-chunk run.
        let mut d = DirtyRanges::new(0);
        let order = [5u64, 12, 0, 7, 3, 15, 9, 1, 14, 6, 11, 2, 8, 13, 4, 10];
        for &i in &order {
            d.insert(i * 64, 64);
        }
        assert_eq!(drain(&mut d), vec![(0, 16 * 64)]);
    }

    #[test]
    fn dirty_ranges_disjoint_stay_separate() {
        let mut d = DirtyRanges::new(0);
        d.insert(0, 10);
        d.insert(100, 10);
        assert_eq!(drain(&mut d), vec![(0, 10), (100, 10)]);
        assert!(d.is_empty());
    }

    #[test]
    fn dirty_ranges_overlap_merges() {
        let mut d = DirtyRanges::new(0);
        d.insert(0, 100);
        assert_eq!(d.insert(50, 100), (0, 150)); // overlaps
        d.insert(200, 10);
        d.insert(140, 70); // bridges [0,150) and [200,210)
        assert_eq!(drain(&mut d), vec![(0, 210)]);
    }

    #[test]
    fn dirty_ranges_drain_into_appends_in_offset_order() {
        let mut d = DirtyRanges::new(0);
        d.insert(100, 10);
        d.insert(0, 10);
        let mut buf = vec![(7u64, 7u64)]; // pre-existing contents survive
        d.drain_all_into(&mut buf);
        assert_eq!(buf, vec![(7, 7), (0, 10), (100, 10)]);
        assert!(d.is_empty());
    }

    #[test]
    fn dirty_ranges_take() {
        let mut d = DirtyRanges::new(0);
        d.insert(10, 5);
        assert_eq!(d.take(10), Some((10, 5)));
        assert_eq!(d.take(10), None);
    }

    #[test]
    fn dirty_ranges_zero_len_noop() {
        let mut d = DirtyRanges::new(0);
        d.insert(5, 0);
        assert!(d.is_empty());
    }
}
