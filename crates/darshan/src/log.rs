//! The log model: job header plus per-(rank, file, module) records.

use crate::counters::{Counter, FCounter, COUNTERS, FCOUNTERS};
use pfs::ops::{FileId, Module};
use serde::{Deserialize, Serialize};

/// Job-level header (Darshan's log header).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobHeader {
    /// Executable / workload name.
    pub exe: String,
    /// Number of MPI processes.
    pub nprocs: u32,
    /// Job runtime in seconds.
    pub runtime_secs: f64,
    /// Count of distinct files accessed.
    pub file_count: u64,
}

impl JobHeader {
    /// Render the header the way `darshan-parser` would summarise it.
    pub fn render(&self) -> String {
        format!(
            "# exe: {}\n# nprocs: {}\n# run time: {:.4} s\n# files: {}",
            self.exe, self.nprocs, self.runtime_secs, self.file_count
        )
    }
}

/// One per-(rank, file) record within a module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileRecord {
    /// Issuing rank.
    pub rank: u32,
    /// File identifier (Darshan record id).
    pub file: FileId,
    /// Module the record belongs to.
    pub module: Module,
    /// Integer counters, indexed by [`Counter::index`].
    pub counters: Vec<i64>,
    /// Floating-point counters, indexed by [`FCounter::index`].
    pub fcounters: Vec<f64>,
    // Internal sequential-access tracking (not serialised by Darshan).
    #[serde(skip)]
    pub(crate) last_read_end: Option<u64>,
    #[serde(skip)]
    pub(crate) last_write_end: Option<u64>,
    #[serde(skip)]
    pub(crate) last_was_write: Option<bool>,
}

impl FileRecord {
    /// Fresh zeroed record.
    pub fn new(rank: u32, file: FileId, module: Module) -> Self {
        FileRecord {
            rank,
            file,
            module,
            counters: vec![0; COUNTERS.len()],
            fcounters: vec![0.0; FCOUNTERS.len()],
            last_read_end: None,
            last_write_end: None,
            last_was_write: None,
        }
    }

    /// Read an integer counter.
    pub fn get(&self, c: Counter) -> i64 {
        self.counters[c.index()]
    }

    /// Increment an integer counter.
    pub fn bump(&mut self, c: Counter, by: i64) {
        self.counters[c.index()] += by;
    }

    /// Raise an integer counter to at least `v` (for MAX_* counters).
    pub fn raise(&mut self, c: Counter, v: i64) {
        let idx = c.index();
        if self.counters[idx] < v {
            self.counters[idx] = v;
        }
    }

    /// Read a float counter.
    pub fn fget(&self, c: FCounter) -> f64 {
        self.fcounters[c.index()]
    }

    /// Add to a float counter.
    pub fn fadd(&mut self, c: FCounter, by: f64) {
        self.fcounters[c.index()] += by;
    }

    /// Raise a float counter to at least `v`.
    pub fn fraise(&mut self, c: FCounter, v: f64) {
        let idx = c.index();
        if self.fcounters[idx] < v {
            self.fcounters[idx] = v;
        }
    }

    /// Set a float counter.
    pub fn fset(&mut self, c: FCounter, v: f64) {
        self.fcounters[c.index()] = v;
    }
}

/// A complete Darshan-like log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DarshanLog {
    /// Job header.
    pub header: JobHeader,
    /// All records, ordered by (module, file, rank).
    pub records: Vec<FileRecord>,
}

impl DarshanLog {
    /// Records of one module.
    pub fn module_records(&self, module: Module) -> impl Iterator<Item = &FileRecord> {
        self.records.iter().filter(move |r| r.module == module)
    }

    /// Compute the shared-file variance reduction (Darshan computes these at
    /// log finalisation): for every file accessed by more than one rank,
    /// fill `VarianceRankTime` / `VarianceRankBytes` on each of its records.
    ///
    /// The records must be in log order, so that each (module, file) is
    /// one adjacent run.
    pub(crate) fn compute_shared_file_variance(&mut self) {
        fn variance(run: &[FileRecord], x: impl Fn(&FileRecord) -> f64) -> f64 {
            let n = run.len() as f64;
            let mean = run.iter().map(&x).sum::<f64>() / n;
            run.iter()
                .map(|r| {
                    let d = x(r) - mean;
                    d * d
                })
                .sum::<f64>()
                / n
        }
        for run in self
            .records
            .chunk_by_mut(|a, b| (a.module, a.file) == (b.module, b.file))
        {
            if run.len() < 2 {
                continue;
            }
            let vt = variance(run, |r| {
                r.fget(FCounter::ReadTime) + r.fget(FCounter::WriteTime)
            });
            let vb = variance(run, |r| {
                (r.get(Counter::BytesRead) + r.get(Counter::BytesWritten)) as f64
            });
            for r in run {
                r.fset(FCounter::VarianceRankTime, vt);
                r.fset(FCounter::VarianceRankBytes, vb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counter_ops() {
        let mut r = FileRecord::new(0, FileId(1), Module::Posix);
        r.bump(Counter::Reads, 2);
        r.bump(Counter::Reads, 1);
        assert_eq!(r.get(Counter::Reads), 3);
        r.raise(Counter::MaxByteRead, 100);
        r.raise(Counter::MaxByteRead, 50);
        assert_eq!(r.get(Counter::MaxByteRead), 100);
        r.fadd(FCounter::ReadTime, 0.5);
        r.fadd(FCounter::ReadTime, 0.25);
        assert!((r.fget(FCounter::ReadTime) - 0.75).abs() < 1e-12);
        r.fraise(FCounter::MaxReadTime, 0.1);
        r.fraise(FCounter::MaxReadTime, 0.05);
        assert_eq!(r.fget(FCounter::MaxReadTime), 0.1);
    }

    #[test]
    fn variance_reduction_fills_shared_files() {
        let mut a = FileRecord::new(0, FileId(1), Module::Posix);
        a.bump(Counter::BytesWritten, 100);
        a.fadd(FCounter::WriteTime, 1.0);
        let mut b = FileRecord::new(1, FileId(1), Module::Posix);
        b.bump(Counter::BytesWritten, 300);
        b.fadd(FCounter::WriteTime, 3.0);
        let solo = FileRecord::new(0, FileId(2), Module::Posix);
        let mut log = DarshanLog {
            header: JobHeader {
                exe: "t".into(),
                nprocs: 2,
                runtime_secs: 1.0,
                file_count: 2,
            },
            records: vec![a, b, solo],
        };
        log.compute_shared_file_variance();
        // Population variance of {1,3} = 1; of {100,300} = 10000.
        assert!((log.records[0].fget(FCounter::VarianceRankTime) - 1.0).abs() < 1e-9);
        assert!((log.records[1].fget(FCounter::VarianceRankBytes) - 10_000.0).abs() < 1e-6);
        // Single-rank file untouched.
        assert_eq!(log.records[2].fget(FCounter::VarianceRankTime), 0.0);
    }

    #[test]
    fn module_filters() {
        let log = DarshanLog {
            header: JobHeader {
                exe: "t".into(),
                nprocs: 1,
                runtime_secs: 1.0,
                file_count: 2,
            },
            records: vec![
                FileRecord::new(0, FileId(1), Module::Posix),
                FileRecord::new(0, FileId(2), Module::MpiIo),
            ],
        };
        assert_eq!(log.module_records(Module::Posix).count(), 1);
    }

    #[test]
    fn header_render() {
        let h = JobHeader {
            exe: "IOR_16M".into(),
            nprocs: 50,
            runtime_secs: 12.5,
            file_count: 1,
        };
        let s = h.render();
        assert!(s.contains("IOR_16M"));
        assert!(s.contains("nprocs: 50"));
    }
}
