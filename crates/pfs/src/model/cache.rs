//! Client page cache: an LRU-approximating cache over fixed-size chunks with
//! a byte budget.
//!
//! Models `llite.max_cached_mb`. Data is tracked at [`CHUNK_BYTES`]
//! granularity: an 8 KiB file is one chunk and a 128 MiB IOR block is 2048
//! chunks. Eviction uses the second-chance (clock) algorithm over chunks, so
//! every operation is amortised O(1) even under heavy cache pressure.
//!
//! The layout is sized for large transfers. Residency lives in blocks of 32
//! chunks, each a pair of `u32` bitmasks (resident, referenced), and the
//! clock is a queue of runs of consecutive chunks. A range insert or range
//! read touches one map entry per block word instead of one per chunk: a
//! 16 MiB transfer is 8 lookups, not 256. The behaviour is still per chunk,
//! exactly:
//!
//! - a word whose new chunks fit in the remaining budget cannot evict, so
//!   setting its bits at once equals inserting its chunks one by one;
//! - any other word is inserted chunk by chunk, each insert followed by
//!   eviction down to the budget;
//! - a read inserts nothing before its next chunk that readahead covers,
//!   so a word is classified at once up to that chunk, which is inserted
//!   before the rest of the word is classified;
//! - eviction pops one chunk at a time off the front run.
//!
//! So hits, victims and byte counts match a cache keyed by single chunks
//! with a queue of chunk keys, stale keys after [`PageCache::invalidate_file`]
//! included. The unit tests keep that per-chunk cache as a reference model
//! and compare the two step by step.

use crate::ops::FileId;
use simcore::hash::FxBuildHasher;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Cache tracking granularity (64 KiB).
pub const CHUNK_BYTES: u64 = 64 * 1024;

/// Chunks per residency block: one bit each in a `u32` word.
const BLOCK_CHUNKS: u64 = 32;

/// Chunk index within a file for a byte offset.
pub fn chunk_of(offset: u64) -> u64 {
    offset / CHUNK_BYTES
}

/// Chunk range covering `[offset, offset+len)`; empty input maps to an empty
/// range.
pub fn chunks_covering(offset: u64, len: u64) -> Range<u64> {
    if len == 0 {
        return 0..0;
    }
    chunk_of(offset)..(chunk_of(offset + len - 1) + 1)
}

/// Residency of one block of [`BLOCK_CHUNKS`] chunks. A referenced bit is
/// only ever set for a resident chunk, and a block with no resident chunk
/// is removed from the map.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    resident: u32,
    referenced: u32,
}

/// Clock entries for chunks `start..start + len` of `file`, oldest first.
#[derive(Debug, Clone, Copy)]
struct Run {
    file: FileId,
    len: u32,
    start: u64,
}

/// Second-chance page cache with a byte budget.
#[derive(Debug)]
pub struct PageCache {
    budget_bytes: u64,
    used_bytes: u64,
    blocks: HashMap<(FileId, u64), Block, FxBuildHasher>,
    /// Per file, the block indices it has inserted since its last
    /// invalidation. Eviction leaves spans as they are, so a span always
    /// covers the file's resident blocks, and a file with no span has
    /// none.
    spans: HashMap<FileId, Range<u64>, FxBuildHasher>,
    clock: VecDeque<Run>,
}

/// Bit of `chunk` within its block word.
fn bit(chunk: u64) -> u32 {
    1 << (chunk % BLOCK_CHUNKS)
}

/// `len` set bits from bit `lo` up (`1 <= len <= 32 - lo`).
fn span(lo: u32, len: u32) -> u32 {
    (u32::MAX >> (32 - len)) << lo
}

/// Append chunks `start..start + len` of `file` to the clock, extending the
/// last run when they continue it.
fn push_run(clock: &mut VecDeque<Run>, file: FileId, start: u64, len: u32) {
    if let Some(back) = clock.back_mut() {
        if back.file == file && back.start + u64::from(back.len) == start {
            if let Some(joined) = back.len.checked_add(len) {
                back.len = joined;
                return;
            }
        }
    }
    clock.push_back(Run { file, len, start });
}

/// Append `chunk` to `misses`, extending the last run when it continues it.
fn push_miss(misses: &mut Vec<Range<u64>>, chunk: u64) {
    match misses.last_mut() {
        Some(run) if run.end == chunk => run.end += 1,
        _ => misses.push(chunk..chunk + 1),
    }
}

impl PageCache {
    /// Create a cache with the given budget in bytes.
    pub fn new(budget_bytes: u64) -> Self {
        PageCache {
            budget_bytes,
            used_bytes: 0,
            blocks: HashMap::default(),
            spans: HashMap::default(),
            clock: VecDeque::new(),
        }
    }

    /// Widen `file`'s span to cover `blocks`.
    fn widen(&mut self, file: FileId, blocks: Range<u64>) {
        self.spans
            .entry(file)
            .and_modify(|s| {
                s.start = s.start.min(blocks.start);
                s.end = s.end.max(blocks.end);
            })
            .or_insert(blocks);
    }

    /// Whether `chunk` is resident, without touching recency.
    pub fn contains(&self, file: FileId, chunk: u64) -> bool {
        self.blocks
            .get(&(file, chunk / BLOCK_CHUNKS))
            .is_some_and(|b| b.resident & bit(chunk) != 0)
    }

    /// Read `chunks` of `file` in ascending order, as if probing one chunk
    /// at a time, and return the number of hits. A resident chunk is a hit
    /// and gets its referenced bit set. A chunk that is not resident is
    /// offered to `readahead`; when that returns true the chunk is a hit
    /// and is inserted right then (readahead data lands in the cache), which
    /// may evict chunks the read has not reached yet. Every other chunk is
    /// a miss, appended to `misses` as a run of consecutive chunks.
    ///
    /// One map lookup classifies a block word up to its first chunk that
    /// readahead covers: no insert happens before that chunk, so residency
    /// cannot change under the probes. The rest of the word is classified
    /// afresh after that chunk's insert.
    pub fn read(
        &mut self,
        file: FileId,
        chunks: Range<u64>,
        mut readahead: impl FnMut(u64) -> bool,
        misses: &mut Vec<Range<u64>>,
    ) -> u64 {
        let mut hits = 0u64;
        let mut chunk = chunks.start;
        while chunk < chunks.end {
            let block = chunk / BLOCK_CHUNKS;
            let base = block * BLOCK_CHUNKS;
            let word_end = chunks.end.min(base + BLOCK_CHUNKS);
            let mut word = span((chunk - base) as u32, (word_end - chunk) as u32);
            let b = self.blocks.get_mut(&(file, block));
            let resident = b.as_ref().map_or(0, |b| b.resident) & word;
            let mut holes = word & !resident;
            let mut ra_chunk = None;
            while holes != 0 {
                let c = base + u64::from(holes.trailing_zeros());
                if readahead(c) {
                    word &= bit(c) - 1;
                    ra_chunk = Some(c);
                    break;
                }
                push_miss(misses, c);
                holes &= holes - 1;
            }
            let hit = resident & word;
            if let Some(b) = b {
                b.referenced |= hit;
            }
            hits += u64::from(hit.count_ones());
            chunk = match ra_chunk {
                Some(c) => {
                    hits += 1;
                    self.widen(file, block..block + 1);
                    self.insert_chunk(file, c);
                    c + 1
                }
                None => word_end,
            };
        }
        hits
    }

    /// Insert `chunks` of `file` in ascending order, as if one chunk at a
    /// time: a resident chunk gets its referenced bit set, a new one joins
    /// the back of the clock, and the cache evicts cold chunks whenever it
    /// goes over budget.
    pub fn insert(&mut self, file: FileId, chunks: Range<u64>) {
        if chunks.is_empty() {
            return;
        }
        self.widen(
            file,
            chunks.start / BLOCK_CHUNKS..(chunks.end - 1) / BLOCK_CHUNKS + 1,
        );
        let mut chunk = chunks.start;
        while chunk < chunks.end {
            let block = chunk / BLOCK_CHUNKS;
            let base = block * BLOCK_CHUNKS;
            let word_end = chunks.end.min(base + BLOCK_CHUNKS);
            let word = span((chunk - base) as u32, (word_end - chunk) as u32);
            let b = self.blocks.entry((file, block)).or_default();
            let fresh = word & !b.resident;
            let fresh_bytes = u64::from(fresh.count_ones()) * CHUNK_BYTES;
            if self.used_bytes + fresh_bytes <= self.budget_bytes {
                b.referenced |= word & b.resident;
                b.resident |= fresh;
                self.used_bytes += fresh_bytes;
                let mut rest = fresh;
                while rest != 0 {
                    let lo = rest.trailing_zeros();
                    let len = (rest >> lo).trailing_ones();
                    push_run(&mut self.clock, file, base + u64::from(lo), len);
                    rest &= !span(lo, len);
                }
            } else {
                for c in chunk..word_end {
                    self.insert_chunk(file, c);
                }
            }
            chunk = word_end;
        }
    }

    fn insert_chunk(&mut self, file: FileId, chunk: u64) {
        let b = self.blocks.entry((file, chunk / BLOCK_CHUNKS)).or_default();
        if b.resident & bit(chunk) != 0 {
            b.referenced |= bit(chunk);
            return;
        }
        b.resident |= bit(chunk);
        push_run(&mut self.clock, file, chunk, 1);
        self.used_bytes += CHUNK_BYTES;
        self.evict_to_budget();
    }

    /// Drop all chunks of `file` (unlink / remount hygiene). Clock entries
    /// are cleaned lazily during eviction.
    ///
    /// Removes the file's blocks by key across its span, which covers every
    /// block the file holds.
    pub fn invalidate_file(&mut self, file: FileId) {
        let Some(range) = self.spans.remove(&file) else {
            return;
        };
        let mut removed = 0u64;
        for block in range {
            if let Some(b) = self.blocks.remove(&(file, block)) {
                removed += u64::from(b.resident.count_ones());
            }
        }
        self.used_bytes -= removed * CHUNK_BYTES;
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.budget_bytes {
            // Every resident chunk keeps a clock entry: inserting one pushes
            // it, and popping it either recycles or evicts the chunk.
            let front = self
                .clock
                .front_mut()
                .expect("an over-budget cache holds a resident chunk, so its clock is not empty");
            let (file, chunk) = (front.file, front.start);
            front.start += 1;
            front.len -= 1;
            if front.len == 0 {
                self.clock.pop_front();
            }
            let key = (file, chunk / BLOCK_CHUNKS);
            match self.blocks.get_mut(&key) {
                Some(b) if b.referenced & bit(chunk) != 0 => {
                    // Second chance: clear the bit and recycle.
                    b.referenced &= !bit(chunk);
                    push_run(&mut self.clock, file, chunk, 1);
                }
                Some(b) if b.resident & bit(chunk) != 0 => {
                    b.resident &= !bit(chunk);
                    if b.resident == 0 {
                        self.blocks.remove(&key);
                    }
                    self.used_bytes -= CHUNK_BYTES;
                }
                // Stale clock entry from invalidate_file: skip.
                _ => {}
            }
        }
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cache as it was kept one chunk per key: a map of chunk →
    /// referenced bit plus a queue of chunk keys. `PageCache` must match it
    /// step for step.
    #[derive(Debug)]
    struct ChunkCache {
        budget_bytes: u64,
        used_bytes: u64,
        entries: HashMap<(FileId, u64), bool, FxBuildHasher>,
        clock: VecDeque<(FileId, u64)>,
    }

    impl ChunkCache {
        fn new(budget_bytes: u64) -> Self {
            ChunkCache {
                budget_bytes,
                used_bytes: 0,
                entries: HashMap::default(),
                clock: VecDeque::new(),
            }
        }

        fn probe(&mut self, file: FileId, chunk: u64) -> bool {
            match self.entries.get_mut(&(file, chunk)) {
                Some(referenced) => {
                    *referenced = true;
                    true
                }
                None => false,
            }
        }

        fn contains(&self, file: FileId, chunk: u64) -> bool {
            self.entries.contains_key(&(file, chunk))
        }

        fn insert(&mut self, file: FileId, chunk: u64) {
            let key = (file, chunk);
            match self.entries.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() = true;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(false);
                    self.clock.push_back(key);
                    self.used_bytes += CHUNK_BYTES;
                    self.evict_to_budget();
                }
            }
        }

        fn invalidate_file(&mut self, file: FileId) {
            let before = self.entries.len();
            // detlint::allow(D002): removal by key predicate — the surviving
            // set is independent of visitation order
            self.entries.retain(|(f, _), _| *f != file);
            let removed = before - self.entries.len();
            self.used_bytes = self.used_bytes.saturating_sub(removed as u64 * CHUNK_BYTES);
        }

        fn evict_to_budget(&mut self) {
            while self.used_bytes > self.budget_bytes {
                match self.clock.pop_front() {
                    Some(key) => match self.entries.get_mut(&key) {
                        Some(referenced) if *referenced => {
                            *referenced = false;
                            self.clock.push_back(key);
                        }
                        Some(_) => {
                            self.entries.remove(&key);
                            self.used_bytes -= CHUNK_BYTES;
                        }
                        None => {}
                    },
                    None => {
                        // Clock exhausted: resync and rebuild in sorted
                        // order. Unreachable while every resident chunk
                        // keeps a clock entry, which `PageCache` asserts.
                        self.used_bytes = self.entries.len() as u64 * CHUNK_BYTES;
                        if self.clock.is_empty() && !self.entries.is_empty() {
                            let mut keys: Vec<(FileId, u64)> =
                                self.entries.keys().copied().collect();
                            keys.sort_unstable();
                            self.clock.extend(keys);
                        }
                        if self.entries.is_empty() {
                            break;
                        }
                    }
                }
            }
        }

        /// Resident chunks with their referenced bits, sorted.
        fn state(&self) -> Vec<(FileId, u64, bool)> {
            let mut s: Vec<_> = self.entries.iter().map(|(&(f, c), &r)| (f, c, r)).collect();
            s.sort_unstable();
            s
        }
    }

    /// Whether `chunk` is resident, setting its referenced bit if so: a
    /// one-chunk read with no readahead.
    fn probe(c: &mut PageCache, file: FileId, chunk: u64) -> bool {
        c.read(file, chunk..chunk + 1, |_| false, &mut Vec::new()) == 1
    }

    /// Resident chunks with their referenced bits, sorted.
    fn state(c: &PageCache) -> Vec<(FileId, u64, bool)> {
        let mut s = Vec::new();
        for (&(f, block), b) in &c.blocks {
            assert_ne!(b.resident, 0, "empty block kept in the map");
            assert_eq!(b.referenced & !b.resident, 0, "referenced but not resident");
            for i in 0..BLOCK_CHUNKS {
                if b.resident & bit(i) != 0 {
                    s.push((f, block * BLOCK_CHUNKS + i, b.referenced & bit(i) != 0));
                }
            }
        }
        s.sort_unstable();
        s
    }

    /// One cache operation: (kind, file, first chunk, chunk count, ready
    /// mask). A read treats chunk `c` as readahead-ready when bit
    /// `(c - first) % 64` of the mask is set; the masks run from none to
    /// dense, so a readahead hole can come early, late or not at all in a
    /// block word.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u64, u64, u64)>> {
        let ready = prop_oneof![
            Just(0u64),
            0..u64::MAX,
            (0..u64::MAX).prop_map(|m| m & m.rotate_left(17) & m.rotate_left(41)),
        ];
        proptest::collection::vec((0u8..12, 0u32..4, 0u64..160, 1u64..80, ready), 1..400)
    }

    /// `ChunkCache` walking a read one chunk at a time, as the engine did:
    /// probe, else take a readahead entry and insert, else miss. Returns
    /// the hits; `asked` records each chunk offered to readahead and
    /// `missed` each miss.
    fn reference_read(
        cache: &mut ChunkCache,
        file: FileId,
        chunks: Range<u64>,
        ready: &mut Vec<u64>,
        asked: &mut Vec<u64>,
        missed: &mut Vec<u64>,
    ) -> u64 {
        let mut hits = 0;
        for c in chunks {
            if cache.probe(file, c) {
                hits += 1;
                continue;
            }
            asked.push(c);
            if let Some(i) = ready.iter().position(|&r| r == c) {
                ready.swap_remove(i);
                hits += 1;
                cache.insert(file, c);
            } else {
                missed.push(c);
            }
        }
        hits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random range inserts, single-chunk inserts, probes, `contains`,
        /// range reads with readahead-ready chunks and invalidations under
        /// budgets from zero to a few hundred chunks: eviction, second
        /// chances, stale clock keys, re-insertion after invalidation and
        /// readahead inserts that evict chunks a read has yet to reach all
        /// run. Probe and read results (hits, miss runs, the chunks offered
        /// to readahead), bytes and per-chunk residency and referenced bits
        /// equal the per-chunk reference after every step.
        #[test]
        fn block_cache_matches_per_chunk_reference(
            budget in 0u64..300,
            ops in arb_ops(),
        ) {
            let mut fast = PageCache::new(budget * CHUNK_BYTES);
            let mut reference = ChunkCache::new(budget * CHUNK_BYTES);
            for (step, (kind, file, start, len, mask)) in ops.into_iter().enumerate() {
                let file = FileId(file);
                match kind {
                    10 | 11 => {
                        let chunks = start..start + len;
                        let ready: Vec<u64> =
                            chunks.clone().filter(|c| mask >> ((c - start) % 64) & 1 == 1).collect();
                        let (mut fast_ready, mut fast_asked, mut fast_misses) =
                            (ready.clone(), Vec::new(), Vec::new());
                        let fast_hits = fast.read(
                            file,
                            chunks.clone(),
                            |c| {
                                fast_asked.push(c);
                                let i = fast_ready.iter().position(|&r| r == c);
                                i.map(|i| fast_ready.swap_remove(i)).is_some()
                            },
                            &mut fast_misses,
                        );
                        let (mut ref_ready, mut ref_asked, mut ref_missed) =
                            (ready, Vec::new(), Vec::new());
                        let ref_hits = reference_read(
                            &mut reference,
                            file,
                            chunks,
                            &mut ref_ready,
                            &mut ref_asked,
                            &mut ref_missed,
                        );
                        prop_assert_eq!(fast_hits, ref_hits, "read hits at step {}", step);
                        let fast_missed: Vec<u64> =
                            fast_misses.iter().flat_map(|r| r.clone()).collect();
                        prop_assert_eq!(&fast_missed, &ref_missed, "misses at step {}", step);
                        prop_assert!(
                            fast_misses.iter().all(|r| r.start < r.end)
                                && fast_misses.windows(2).all(|w| w[0].end < w[1].start),
                            "miss runs {:?} not maximal at step {}",
                            fast_misses,
                            step
                        );
                        prop_assert_eq!(&fast_asked, &ref_asked, "readahead queries at step {}", step);
                    }
                    0..=3 => {
                        fast.insert(file, start..start + len);
                        for c in start..start + len {
                            reference.insert(file, c);
                        }
                    }
                    4 | 5 => {
                        fast.insert(file, start..start + 1);
                        reference.insert(file, start);
                    }
                    6 | 7 => prop_assert_eq!(
                        probe(&mut fast, file, start),
                        reference.probe(file, start),
                        "probe at step {}",
                        step
                    ),
                    8 => prop_assert_eq!(
                        fast.contains(file, start),
                        reference.contains(file, start),
                        "contains at step {}",
                        step
                    ),
                    _ => {
                        fast.invalidate_file(file);
                        reference.invalidate_file(file);
                    }
                }
                prop_assert_eq!(fast.used_bytes(), reference.used_bytes, "bytes at step {}", step);
                prop_assert!(fast.used_bytes() <= fast.budget_bytes);
                prop_assert_eq!(state(&fast), reference.state(), "residency at step {}", step);
            }
        }
    }

    #[test]
    fn chunk_mapping() {
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(CHUNK_BYTES - 1), 0);
        assert_eq!(chunk_of(CHUNK_BYTES), 1);
        assert_eq!(chunks_covering(0, 1), 0..1);
        assert_eq!(chunks_covering(0, CHUNK_BYTES), 0..1);
        assert_eq!(chunks_covering(0, CHUNK_BYTES + 1), 0..2);
        assert_eq!(chunks_covering(CHUNK_BYTES, CHUNK_BYTES), 1..2);
        assert_eq!(chunks_covering(10, 0), 0..0);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        let f = FileId(1);
        assert!(!probe(&mut c, f, 0));
        c.insert(f, 0..1);
        assert!(probe(&mut c, f, 0));
        assert!(!probe(&mut c, f, 1));
    }

    #[test]
    fn second_chance_protects_referenced() {
        let mut c = PageCache::new(2 * CHUNK_BYTES);
        let f = FileId(1);
        c.insert(f, 0..2);
        // Touch 0 so 1 becomes the victim.
        assert!(probe(&mut c, f, 0));
        c.insert(f, 2..3); // evicts 1
        assert!(c.contains(f, 0));
        assert!(!c.contains(f, 1));
        assert!(c.contains(f, 2));
        assert_eq!(c.used_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        let f = FileId(1);
        c.insert(f, 0..1);
        c.insert(f, 0..1);
        assert_eq!(c.used_bytes(), CHUNK_BYTES);
    }

    #[test]
    fn range_insert_spans_blocks_as_one_run() {
        let mut c = PageCache::new(1 << 30);
        let f = FileId(1);
        c.insert(f, 30..100);
        c.insert(f, 100..101);
        assert_eq!(c.used_bytes(), 71 * CHUNK_BYTES);
        assert_eq!(c.blocks.len(), 4);
        assert_eq!(c.clock.len(), 1);
        assert!(!c.contains(f, 29) && c.contains(f, 30) && c.contains(f, 100));
    }

    #[test]
    fn invalidate_file_frees_bytes() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        c.insert(FileId(1), 0..2);
        c.insert(FileId(2), 0..1);
        c.invalidate_file(FileId(1));
        assert_eq!(c.used_bytes(), CHUNK_BYTES);
        assert!(!c.contains(FileId(1), 0));
        assert!(c.contains(FileId(2), 0));
    }

    #[test]
    fn invalidate_file_removes_dense_and_sparse_spans() {
        let mut c = PageCache::new(1 << 30);
        for f in 1..=20 {
            c.insert(FileId(f), 0..1);
        }
        let others_resident = |c: &PageCache| (1..=20).all(|f| c.contains(FileId(f), 0));
        // Two adjacent blocks among 22.
        let dense = FileId(0);
        c.insert(dense, 0..64);
        c.invalidate_file(dense);
        assert_eq!(c.used_bytes(), 20 * CHUNK_BYTES);
        assert!(!c.contains(dense, 0) && !c.contains(dense, 63));
        assert!(others_resident(&c) && !c.spans.contains_key(&dense));
        // Blocks 0 and 1000: a span wider than the map, with a gap of
        // blocks the file never held.
        let sparse = FileId(21);
        c.insert(sparse, 0..1);
        c.insert(sparse, 32 * 1000..32 * 1000 + 1);
        c.invalidate_file(sparse);
        assert_eq!(c.used_bytes(), 20 * CHUNK_BYTES);
        assert!(!c.contains(sparse, 0) && !c.contains(sparse, 32 * 1000));
        assert!(others_resident(&c) && c.blocks.len() == 20);
        // A file with no span holds nothing to remove.
        c.invalidate_file(sparse);
        assert_eq!(c.used_bytes(), 20 * CHUNK_BYTES);
    }

    #[test]
    fn eviction_skips_stale_clock_entries() {
        let mut c = PageCache::new(2 * CHUNK_BYTES);
        c.insert(FileId(1), 0..2);
        c.invalidate_file(FileId(1));
        // Clock still holds stale keys; inserting past budget must not panic
        // and must keep accounting consistent.
        c.insert(FileId(2), 0..3);
        assert_eq!(c.used_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let mut c = PageCache::new(0);
        c.insert(FileId(1), 0..1);
        assert!(!c.contains(FileId(1), 0));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.blocks.is_empty());
    }

    #[test]
    fn heavy_pressure_stays_bounded() {
        // Sanity check for the amortised O(1) claim: a million inserts into a
        // tiny cache must finish quickly and keep size at the budget.
        let mut c = PageCache::new(16 * CHUNK_BYTES);
        for i in 0..1_000_000u64 {
            c.insert(FileId((i % 7) as u32), i..i + 1);
        }
        assert_eq!(c.used_bytes(), 16 * CHUNK_BYTES);
    }
}
