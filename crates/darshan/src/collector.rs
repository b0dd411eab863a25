//! Runtime collector: turns the simulator's operation records into Darshan
//! counters, exactly as `libdarshan` instruments an application.

use crate::counters::{read_size_bucket, write_size_bucket, Counter, FCounter};
use crate::log::{DarshanLog, FileRecord, JobHeader};
use pfs::ops::{FileId, Module};
use pfs::trace::{OpClass, OpRecord, TraceSink};
use std::collections::HashMap;

/// Accumulating trace sink. Use [`Collector::finish`] to obtain the log.
#[derive(Debug)]
pub struct Collector {
    exe: String,
    nprocs: u32,
    /// One record per (rank, file, module), in first-touch order.
    records: Vec<FileRecord>,
    // determinism audit (D002): point lookups only; `finish` orders the
    // records by sorting their unique keys
    /// Index into `records` of each (rank, file, module).
    index: HashMap<(u32, FileId, Module), u32>,
    /// Per rank, the index of the record it touched last (`u32::MAX`
    /// before its first). A rank's consecutive ops mostly hit one record,
    /// so this slot answers them without a hash lookup.
    last: Vec<u32>,
    last_end: f64,
}

impl Collector {
    /// Create a collector for a job with `nprocs` ranks.
    pub fn new(exe: impl Into<String>, nprocs: u32) -> Self {
        Collector {
            exe: exe.into(),
            nprocs,
            records: Vec::new(),
            index: HashMap::new(),
            last: Vec::new(),
            last_end: 0.0,
        }
    }

    fn entry(&mut self, rank: u32, file: FileId, module: Module) -> &mut FileRecord {
        let slot = rank as usize;
        if slot >= self.last.len() {
            self.last.resize(slot + 1, u32::MAX);
        }
        let cached = self.last[slot] as usize;
        let i = match self.records.get(cached) {
            Some(r) if r.file == file && r.module == module => cached,
            _ => {
                let records = &mut self.records;
                let i = *self.index.entry((rank, file, module)).or_insert_with(|| {
                    records.push(FileRecord::new(rank, file, module));
                    u32::try_from(records.len() - 1).expect("fewer than 2^32 records")
                });
                self.last[slot] = i;
                i as usize
            }
        };
        &mut self.records[i]
    }

    /// Finalise: order the records by (module name, file, rank), run the
    /// shared-file variance reduction, and return the completed log.
    pub fn finish(self) -> DarshanLog {
        let mut records = self.records;
        // Sorts (key, index) pairs and then moves each record once.
        records.sort_by_cached_key(|r| (r.module.name(), r.file, r.rank));
        let mut files: Vec<FileId> = records.iter().map(|r| r.file).collect();
        files.sort_unstable();
        files.dedup();
        let mut log = DarshanLog {
            header: JobHeader {
                exe: self.exe,
                nprocs: self.nprocs,
                runtime_secs: self.last_end,
                file_count: files.len() as u64,
            },
            records,
        };
        log.compute_shared_file_variance();
        log
    }
}

impl TraceSink for Collector {
    fn record(&mut self, rec: &OpRecord) {
        let end_secs = rec.end.as_secs_f64();
        if end_secs > self.last_end {
            self.last_end = end_secs;
        }
        let Some(file) = rec.file else {
            return; // pure directory ops are not per-file records
        };
        self.entry(rec.rank, file, rec.module).apply(rec);
    }
}

impl FileRecord {
    /// Account one operation of this record's rank, file and module.
    pub(crate) fn apply(&mut self, rec: &OpRecord) {
        let end_secs = rec.end.as_secs_f64();
        let duration = (rec.end - rec.start).as_secs_f64();
        match rec.class {
            OpClass::Read => {
                self.bump(Counter::Reads, 1);
                self.bump(Counter::BytesRead, rec.bytes as i64);
                self.raise(Counter::MaxByteRead, (rec.offset + rec.bytes) as i64);
                self.bump(read_size_bucket(rec.bytes), 1);
                self.fadd(FCounter::ReadTime, duration);
                self.fraise(FCounter::MaxReadTime, duration);
                if let Some(prev_end) = self.last_read_end {
                    if rec.offset == prev_end {
                        self.bump(Counter::ConsecReads, 1);
                    }
                    if rec.offset >= prev_end {
                        self.bump(Counter::SeqReads, 1);
                    }
                }
                self.last_read_end = Some(rec.offset + rec.bytes);
                if self.last_was_write == Some(true) {
                    self.bump(Counter::RwSwitches, 1);
                }
                self.last_was_write = Some(false);
            }
            OpClass::Write => {
                self.bump(Counter::Writes, 1);
                self.bump(Counter::BytesWritten, rec.bytes as i64);
                self.raise(Counter::MaxByteWritten, (rec.offset + rec.bytes) as i64);
                self.bump(write_size_bucket(rec.bytes), 1);
                self.fadd(FCounter::WriteTime, duration);
                self.fraise(FCounter::MaxWriteTime, duration);
                if let Some(prev_end) = self.last_write_end {
                    if rec.offset == prev_end {
                        self.bump(Counter::ConsecWrites, 1);
                    }
                    if rec.offset >= prev_end {
                        self.bump(Counter::SeqWrites, 1);
                    }
                }
                self.last_write_end = Some(rec.offset + rec.bytes);
                if self.last_was_write == Some(false) {
                    self.bump(Counter::RwSwitches, 1);
                }
                self.last_was_write = Some(true);
            }
            OpClass::Open => {
                self.bump(Counter::Opens, 1);
                self.fadd(FCounter::MetaTime, duration);
                let start = rec.start.as_secs_f64();
                let cur = self.fget(FCounter::OpenStartTimestamp);
                if cur == 0.0 || start < cur {
                    self.fset(FCounter::OpenStartTimestamp, start);
                }
            }
            OpClass::Stat => {
                self.bump(Counter::Stats, 1);
                self.fadd(FCounter::MetaTime, duration);
            }
            OpClass::Close => {
                self.fadd(FCounter::MetaTime, duration);
                self.fraise(FCounter::CloseEndTimestamp, end_secs);
            }
            OpClass::Unlink => {
                self.bump(Counter::Unlinks, 1);
                self.fadd(FCounter::MetaTime, duration);
            }
            OpClass::Sync => {
                self.bump(Counter::Fsyncs, 1);
                self.fadd(FCounter::MetaTime, duration);
            }
            OpClass::DirOp => {
                self.fadd(FCounter::MetaTime, duration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;

    fn rec(
        rank: u32,
        file: u32,
        class: OpClass,
        offset: u64,
        bytes: u64,
        t0_us: u64,
        t1_us: u64,
    ) -> OpRecord {
        OpRecord {
            rank,
            file: Some(FileId(file)),
            module: Module::Posix,
            class,
            offset,
            bytes,
            start: SimTime::from_micros(t0_us),
            end: SimTime::from_micros(t1_us),
        }
    }

    #[test]
    fn sequential_write_detection() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 100, 0, 10));
        c.record(&rec(0, 1, OpClass::Write, 100, 100, 10, 20)); // consec
        c.record(&rec(0, 1, OpClass::Write, 500, 100, 20, 30)); // seq (gap)
        c.record(&rec(0, 1, OpClass::Write, 50, 100, 30, 40)); // backwards
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::Writes), 4);
        assert_eq!(r.get(Counter::ConsecWrites), 1);
        assert_eq!(r.get(Counter::SeqWrites), 2); // consec counts as seq too
        assert_eq!(r.get(Counter::BytesWritten), 400);
        assert_eq!(r.get(Counter::MaxByteWritten), 600);
    }

    #[test]
    fn rw_switch_detection() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 1));
        c.record(&rec(0, 1, OpClass::Read, 0, 10, 1, 2));
        c.record(&rec(0, 1, OpClass::Read, 10, 10, 2, 3));
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 3, 4));
        let log = c.finish();
        assert_eq!(log.records[0].get(Counter::RwSwitches), 2);
    }

    #[test]
    fn size_histograms_fill() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 2048, 0, 1));
        c.record(&rec(0, 1, OpClass::Write, 2048, 2048, 1, 2));
        c.record(&rec(0, 1, OpClass::Write, 4096, 16 << 20, 2, 3));
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::SizeWrite1K_10K), 2);
        assert_eq!(r.get(Counter::SizeWrite10M_100M), 1);
    }

    #[test]
    fn per_rank_per_file_records() {
        let mut c = Collector::new("t", 2);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 1));
        c.record(&rec(1, 1, OpClass::Write, 10, 10, 0, 1));
        c.record(&rec(0, 2, OpClass::Read, 0, 10, 1, 2));
        let log = c.finish();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.header.file_count, 2);
        assert_eq!(log.header.nprocs, 2);
    }

    #[test]
    fn meta_time_accumulates() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 0, 100));
        c.record(&rec(0, 1, OpClass::Stat, 0, 0, 100, 250));
        c.record(&rec(0, 1, OpClass::Close, 0, 0, 250, 260));
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::Opens), 1);
        assert_eq!(r.get(Counter::Stats), 1);
        assert!((r.fget(FCounter::MetaTime) - 260e-6).abs() < 1e-9);
        assert!((r.fget(FCounter::CloseEndTimestamp) - 260e-6).abs() < 1e-9);
    }

    #[test]
    fn runtime_tracks_last_end() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 5_000_000));
        let log = c.finish();
        assert!((log.header.runtime_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn directory_ops_do_not_create_file_records() {
        let mut c = Collector::new("t", 1);
        c.record(&OpRecord {
            rank: 0,
            file: None,
            module: Module::Posix,
            class: OpClass::DirOp,
            offset: 0,
            bytes: 0,
            start: SimTime::ZERO,
            end: SimTime::from_micros(10),
        });
        let log = c.finish();
        assert!(log.records.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::counters::{Counter, COUNTERS};
    use proptest::prelude::*;
    use simcore::time::SimTime;
    use std::collections::BTreeMap;

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u64, u64)>> {
        // (class selector, file, offset, len)
        proptest::collection::vec((0u8..4, 1u32..4, 0u64..1_000_000, 1u64..100_000), 1..200)
    }

    /// The collector as it was keyed by `(rank, file, module)` in one hash
    /// map: `Collector` must produce the same log for every trace.
    struct KeyedCollector {
        exe: String,
        nprocs: u32,
        records: HashMap<(u32, FileId, Module), FileRecord>,
        last_end: f64,
    }

    impl KeyedCollector {
        fn record(&mut self, rec: &OpRecord) {
            let end_secs = rec.end.as_secs_f64();
            if end_secs > self.last_end {
                self.last_end = end_secs;
            }
            let Some(file) = rec.file else {
                return;
            };
            self.records
                .entry((rec.rank, file, rec.module))
                .or_insert_with(|| FileRecord::new(rec.rank, file, rec.module))
                .apply(rec);
        }

        fn finish(self) -> DarshanLog {
            let mut records: Vec<FileRecord> = self.records.into_values().collect();
            records.sort_by_key(|r| (r.module.name(), r.file, r.rank));
            let mut files: Vec<FileId> = records.iter().map(|r| r.file).collect();
            files.sort();
            files.dedup();
            let mut log = DarshanLog {
                header: JobHeader {
                    exe: self.exe,
                    nprocs: self.nprocs,
                    runtime_secs: self.last_end,
                    file_count: files.len() as u64,
                },
                records,
            };
            keyed_variance(&mut log);
            log
        }
    }

    /// The shared-file variance reduction over a map of every
    /// `(module, file)`, which holds for records in any order.
    fn keyed_variance(log: &mut DarshanLog) {
        #[derive(Default)]
        struct Agg {
            times: Vec<f64>,
            bytes: Vec<f64>,
        }
        let mut by_file: BTreeMap<(Module, FileId), Agg> = BTreeMap::new();
        for r in &log.records {
            let a = by_file.entry((r.module, r.file)).or_default();
            a.times
                .push(r.fget(FCounter::ReadTime) + r.fget(FCounter::WriteTime));
            a.bytes
                .push((r.get(Counter::BytesRead) + r.get(Counter::BytesWritten)) as f64);
        }
        let variance = |xs: &[f64]| -> f64 {
            if xs.len() < 2 {
                return 0.0;
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
        };
        let stats: BTreeMap<(Module, FileId), (f64, f64, usize)> = by_file
            .into_iter()
            .map(|(k, a)| (k, (variance(&a.times), variance(&a.bytes), a.times.len())))
            .collect();
        for r in &mut log.records {
            if let Some(&(vt, vb, n)) = stats.get(&(r.module, r.file)) {
                if n > 1 {
                    r.fset(FCounter::VarianceRankTime, vt);
                    r.fset(FCounter::VarianceRankBytes, vb);
                }
            }
        }
    }

    const CLASSES: [OpClass; 8] = [
        OpClass::Read,
        OpClass::Write,
        OpClass::Open,
        OpClass::Stat,
        OpClass::Close,
        OpClass::Unlink,
        OpClass::Sync,
        OpClass::DirOp,
    ];
    const MODULES: [Module; 3] = [Module::Posix, Module::MpiIo, Module::Stdio];

    type Burst = (
        u8,
        u32,
        (u32, u32),
        (usize, usize),
        Vec<(usize, u64, u64, u64)>,
    );

    /// Bursts of ops from one rank: (shape, rank, two file selectors, two
    /// module selectors, ops as (class, offset in 4 KiB, length in 4 KiB,
    /// duration in µs)). Shape 0 keeps the burst on the first file and
    /// module, shape 1 alternates between the two files, shape 2 between
    /// the two modules on the first file. File selector 5 is `None`, a
    /// pure directory op. Offsets and lengths are small multiples of
    /// 4 KiB, so consecutive and sequential accesses are common.
    fn arb_bursts() -> impl Strategy<Value = Vec<Burst>> {
        let ops = proptest::collection::vec((0usize..8, 0u64..8, 0u64..4, 0u64..50), 1..8);
        proptest::collection::vec(
            (
                0u8..3,
                0u32..6,
                (0u32..6, 0u32..6),
                (0usize..3, 0usize..3),
                ops,
            ),
            1..60,
        )
    }

    proptest! {
        /// Interleaved bursts over ranks 0..6, five files plus directory
        /// ops, all three modules and all eight op classes, including
        /// runs where one rank alternates between two records, give the
        /// keyed reference's log: equal header fields, then equal rank,
        /// file, module, counters and float-counter bits for every record,
        /// in order.
        #[test]
        fn collector_matches_keyed_reference(bursts in arb_bursts()) {
            let mut fast = Collector::new("prop", 6);
            let mut reference = KeyedCollector {
                exe: "prop".into(),
                nprocs: 6,
                records: HashMap::new(),
                last_end: 0.0,
            };
            let mut t = 0u64;
            for (shape, rank, (fa, fb), (ma, mb), ops) in bursts {
                for (i, (class, offset, len, dur)) in ops.into_iter().enumerate() {
                    let odd = i % 2 == 1;
                    let file = if shape == 1 && odd { fb } else { fa };
                    let module = if shape == 2 && odd { mb } else { ma };
                    t += 3;
                    let rec = OpRecord {
                        rank,
                        file: (file < 5).then_some(FileId(file)),
                        module: MODULES[module],
                        class: CLASSES[class],
                        offset: offset << 12,
                        bytes: len << 12,
                        start: SimTime::from_micros(t),
                        end: SimTime::from_micros(t + dur),
                    };
                    fast.record(&rec);
                    reference.record(&rec);
                }
            }
            let (got, want) = (fast.finish(), reference.finish());
            prop_assert_eq!(&got.header.exe, &want.header.exe);
            prop_assert_eq!(got.header.nprocs, want.header.nprocs);
            prop_assert_eq!(got.header.runtime_secs.to_bits(), want.header.runtime_secs.to_bits());
            prop_assert_eq!(got.header.file_count, want.header.file_count);
            let key = |r: &FileRecord| {
                let bits: Vec<u64> = r.fcounters.iter().map(|f| f.to_bits()).collect();
                (r.rank, r.file, r.module, r.counters.clone(), bits)
            };
            let got: Vec<_> = got.records.iter().map(key).collect();
            let want: Vec<_> = want.records.iter().map(key).collect();
            prop_assert_eq!(got, want);
        }

        /// Byte and op counts are conserved exactly for arbitrary traces,
        /// and every size lands in exactly one histogram bucket.
        #[test]
        fn collector_conserves(ops in arb_ops()) {
            let mut c = Collector::new("prop", 4);
            let mut expect_read = 0i64;
            let mut expect_write = 0i64;
            let mut nreads = 0i64;
            let mut nwrites = 0i64;
            let mut t = 0u64;
            for (class, file, offset, len) in ops {
                t += 10;
                let (class, bytes) = match class {
                    0 => { expect_write += len as i64; nwrites += 1; (OpClass::Write, len) }
                    1 => { expect_read += len as i64; nreads += 1; (OpClass::Read, len) }
                    2 => (OpClass::Stat, 0),
                    _ => (OpClass::Open, 0),
                };
                c.record(&OpRecord {
                    rank: file % 2,
                    file: Some(FileId(file)),
                    module: Module::Posix,
                    class,
                    offset,
                    bytes,
                    start: SimTime::from_micros(t),
                    end: SimTime::from_micros(t + 5),
                });
            }
            let log = c.finish();
            let sum = |cn: Counter| -> i64 { log.records.iter().map(|r| r.get(cn)).sum() };
            prop_assert_eq!(sum(Counter::BytesWritten), expect_write);
            prop_assert_eq!(sum(Counter::BytesRead), expect_read);
            prop_assert_eq!(sum(Counter::Writes), nwrites);
            prop_assert_eq!(sum(Counter::Reads), nreads);
            // Histogram buckets partition the writes.
            let wbuckets: i64 = COUNTERS
                .iter()
                .filter(|cn| cn.name().starts_with("SIZE_WRITE"))
                .map(|&cn| sum(cn))
                .sum();
            prop_assert_eq!(wbuckets, nwrites);
            // SEQ >= CONSEC always.
            prop_assert!(sum(Counter::SeqWrites) >= sum(Counter::ConsecWrites));
            prop_assert!(sum(Counter::SeqReads) >= sum(Counter::ConsecReads));
        }
    }
}
