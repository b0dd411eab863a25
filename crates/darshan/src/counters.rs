//! The counter vocabulary: a faithful subset of Darshan's POSIX/MPI-IO
//! counter sets (integer counters and floating-point timing counters).

use serde::{Deserialize, Serialize};

/// Integer counters, mirroring Darshan's `<MODULE>_<NAME>` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs, non_camel_case_types)]
#[allow(clippy::enum_variant_names)]
pub enum Counter {
    Opens,
    Reads,
    Writes,
    Stats,
    Fsyncs,
    Unlinks,
    BytesRead,
    BytesWritten,
    MaxByteRead,
    MaxByteWritten,
    ConsecReads,
    ConsecWrites,
    SeqReads,
    SeqWrites,
    RwSwitches,
    SizeRead0_100,
    SizeRead100_1K,
    SizeRead1K_10K,
    SizeRead10K_100K,
    SizeRead100K_1M,
    SizeRead1M_4M,
    SizeRead4M_10M,
    SizeRead10M_100M,
    SizeRead100M_1G,
    SizeRead1G_Plus,
    SizeWrite0_100,
    SizeWrite100_1K,
    SizeWrite1K_10K,
    SizeWrite10K_100K,
    SizeWrite100K_1M,
    SizeWrite1M_4M,
    SizeWrite4M_10M,
    SizeWrite10M_100M,
    SizeWrite100M_1G,
    SizeWrite1G_Plus,
}

/// Floating-point (timing) counters, mirroring Darshan's `F_` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum FCounter {
    OpenStartTimestamp,
    CloseEndTimestamp,
    ReadTime,
    WriteTime,
    MetaTime,
    MaxReadTime,
    MaxWriteTime,
    /// Variance of per-rank total I/O time on a shared file (reduction step).
    VarianceRankTime,
    /// Variance of per-rank total bytes on a shared file (reduction step).
    VarianceRankBytes,
}

/// All integer counters, in storage order.
pub const COUNTERS: [Counter; 35] = [
    Counter::Opens,
    Counter::Reads,
    Counter::Writes,
    Counter::Stats,
    Counter::Fsyncs,
    Counter::Unlinks,
    Counter::BytesRead,
    Counter::BytesWritten,
    Counter::MaxByteRead,
    Counter::MaxByteWritten,
    Counter::ConsecReads,
    Counter::ConsecWrites,
    Counter::SeqReads,
    Counter::SeqWrites,
    Counter::RwSwitches,
    Counter::SizeRead0_100,
    Counter::SizeRead100_1K,
    Counter::SizeRead1K_10K,
    Counter::SizeRead10K_100K,
    Counter::SizeRead100K_1M,
    Counter::SizeRead1M_4M,
    Counter::SizeRead4M_10M,
    Counter::SizeRead10M_100M,
    Counter::SizeRead100M_1G,
    Counter::SizeRead1G_Plus,
    Counter::SizeWrite0_100,
    Counter::SizeWrite100_1K,
    Counter::SizeWrite1K_10K,
    Counter::SizeWrite10K_100K,
    Counter::SizeWrite100K_1M,
    Counter::SizeWrite1M_4M,
    Counter::SizeWrite4M_10M,
    Counter::SizeWrite10M_100M,
    Counter::SizeWrite100M_1G,
    Counter::SizeWrite1G_Plus,
];

/// All floating-point counters, in storage order.
pub const FCOUNTERS: [FCounter; 9] = [
    FCounter::OpenStartTimestamp,
    FCounter::CloseEndTimestamp,
    FCounter::ReadTime,
    FCounter::WriteTime,
    FCounter::MetaTime,
    FCounter::MaxReadTime,
    FCounter::MaxWriteTime,
    FCounter::VarianceRankTime,
    FCounter::VarianceRankBytes,
];

impl Counter {
    /// Storage index: the position in [`COUNTERS`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Darshan-style column name (module prefix added by the table builder).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Opens => "OPENS",
            Counter::Reads => "READS",
            Counter::Writes => "WRITES",
            Counter::Stats => "STATS",
            Counter::Fsyncs => "FSYNCS",
            Counter::Unlinks => "UNLINKS",
            Counter::BytesRead => "BYTES_READ",
            Counter::BytesWritten => "BYTES_WRITTEN",
            Counter::MaxByteRead => "MAX_BYTE_READ",
            Counter::MaxByteWritten => "MAX_BYTE_WRITTEN",
            Counter::ConsecReads => "CONSEC_READS",
            Counter::ConsecWrites => "CONSEC_WRITES",
            Counter::SeqReads => "SEQ_READS",
            Counter::SeqWrites => "SEQ_WRITES",
            Counter::RwSwitches => "RW_SWITCHES",
            Counter::SizeRead0_100 => "SIZE_READ_0_100",
            Counter::SizeRead100_1K => "SIZE_READ_100_1K",
            Counter::SizeRead1K_10K => "SIZE_READ_1K_10K",
            Counter::SizeRead10K_100K => "SIZE_READ_10K_100K",
            Counter::SizeRead100K_1M => "SIZE_READ_100K_1M",
            Counter::SizeRead1M_4M => "SIZE_READ_1M_4M",
            Counter::SizeRead4M_10M => "SIZE_READ_4M_10M",
            Counter::SizeRead10M_100M => "SIZE_READ_10M_100M",
            Counter::SizeRead100M_1G => "SIZE_READ_100M_1G",
            Counter::SizeRead1G_Plus => "SIZE_READ_1G_PLUS",
            Counter::SizeWrite0_100 => "SIZE_WRITE_0_100",
            Counter::SizeWrite100_1K => "SIZE_WRITE_100_1K",
            Counter::SizeWrite1K_10K => "SIZE_WRITE_1K_10K",
            Counter::SizeWrite10K_100K => "SIZE_WRITE_10K_100K",
            Counter::SizeWrite100K_1M => "SIZE_WRITE_100K_1M",
            Counter::SizeWrite1M_4M => "SIZE_WRITE_1M_4M",
            Counter::SizeWrite4M_10M => "SIZE_WRITE_4M_10M",
            Counter::SizeWrite10M_100M => "SIZE_WRITE_10M_100M",
            Counter::SizeWrite100M_1G => "SIZE_WRITE_100M_1G",
            Counter::SizeWrite1G_Plus => "SIZE_WRITE_1G_PLUS",
        }
    }

    /// Human description (the "column description file" content).
    pub fn describe(self) -> &'static str {
        match self {
            Counter::Opens => "Count of open/create calls on the file",
            Counter::Reads => "Count of read calls",
            Counter::Writes => "Count of write calls",
            Counter::Stats => "Count of stat/getattr calls",
            Counter::Fsyncs => "Count of fsync calls",
            Counter::Unlinks => "Count of unlink calls",
            Counter::BytesRead => "Total bytes read",
            Counter::BytesWritten => "Total bytes written",
            Counter::MaxByteRead => "Highest byte offset read",
            Counter::MaxByteWritten => "Highest byte offset written",
            Counter::ConsecReads => "Reads immediately following the previous read's end offset",
            Counter::ConsecWrites => "Writes immediately following the previous write's end offset",
            Counter::SeqReads => "Reads at an offset >= the previous read's end offset",
            Counter::SeqWrites => "Writes at an offset >= the previous write's end offset",
            Counter::RwSwitches => "Alternations between read and write on the file",
            Counter::SizeRead0_100 => "Reads of 0-100 bytes",
            Counter::SizeRead100_1K => "Reads of 100 B - 1 KiB",
            Counter::SizeRead1K_10K => "Reads of 1-10 KiB",
            Counter::SizeRead10K_100K => "Reads of 10-100 KiB",
            Counter::SizeRead100K_1M => "Reads of 100 KiB - 1 MiB",
            Counter::SizeRead1M_4M => "Reads of 1-4 MiB",
            Counter::SizeRead4M_10M => "Reads of 4-10 MiB",
            Counter::SizeRead10M_100M => "Reads of 10-100 MiB",
            Counter::SizeRead100M_1G => "Reads of 100 MiB - 1 GiB",
            Counter::SizeRead1G_Plus => "Reads above 1 GiB",
            Counter::SizeWrite0_100 => "Writes of 0-100 bytes",
            Counter::SizeWrite100_1K => "Writes of 100 B - 1 KiB",
            Counter::SizeWrite1K_10K => "Writes of 1-10 KiB",
            Counter::SizeWrite10K_100K => "Writes of 10-100 KiB",
            Counter::SizeWrite100K_1M => "Writes of 100 KiB - 1 MiB",
            Counter::SizeWrite1M_4M => "Writes of 1-4 MiB",
            Counter::SizeWrite4M_10M => "Writes of 4-10 MiB",
            Counter::SizeWrite10M_100M => "Writes of 10-100 MiB",
            Counter::SizeWrite100M_1G => "Writes of 100 MiB - 1 GiB",
            Counter::SizeWrite1G_Plus => "Writes above 1 GiB",
        }
    }
}

impl FCounter {
    /// Storage index: the position in [`FCOUNTERS`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Darshan-style column name.
    pub fn name(self) -> &'static str {
        match self {
            FCounter::OpenStartTimestamp => "F_OPEN_START_TIMESTAMP",
            FCounter::CloseEndTimestamp => "F_CLOSE_END_TIMESTAMP",
            FCounter::ReadTime => "F_READ_TIME",
            FCounter::WriteTime => "F_WRITE_TIME",
            FCounter::MetaTime => "F_META_TIME",
            FCounter::MaxReadTime => "F_MAX_READ_TIME",
            FCounter::MaxWriteTime => "F_MAX_WRITE_TIME",
            FCounter::VarianceRankTime => "F_VARIANCE_RANK_TIME",
            FCounter::VarianceRankBytes => "F_VARIANCE_RANK_BYTES",
        }
    }

    /// Human description.
    pub fn describe(self) -> &'static str {
        match self {
            FCounter::OpenStartTimestamp => "Seconds from job start to first open",
            FCounter::CloseEndTimestamp => "Seconds from job start to last close",
            FCounter::ReadTime => "Cumulative seconds spent in reads",
            FCounter::WriteTime => "Cumulative seconds spent in writes",
            FCounter::MetaTime => "Cumulative seconds spent in metadata calls",
            FCounter::MaxReadTime => "Duration of the slowest single read",
            FCounter::MaxWriteTime => "Duration of the slowest single write",
            FCounter::VarianceRankTime => {
                "Variance of total I/O time across ranks sharing the file"
            }
            FCounter::VarianceRankBytes => {
                "Variance of total bytes moved across ranks sharing the file"
            }
        }
    }
}

/// The size-histogram bucket (read side) for a transfer of `bytes`.
pub fn read_size_bucket(bytes: u64) -> Counter {
    match bytes {
        0..=100 => Counter::SizeRead0_100,
        101..=1024 => Counter::SizeRead100_1K,
        1025..=10240 => Counter::SizeRead1K_10K,
        10241..=102_400 => Counter::SizeRead10K_100K,
        102_401..=1_048_576 => Counter::SizeRead100K_1M,
        1_048_577..=4_194_304 => Counter::SizeRead1M_4M,
        4_194_305..=10_485_760 => Counter::SizeRead4M_10M,
        10_485_761..=104_857_600 => Counter::SizeRead10M_100M,
        104_857_601..=1_073_741_824 => Counter::SizeRead100M_1G,
        _ => Counter::SizeRead1G_Plus,
    }
}

/// The size-histogram bucket (write side) for a transfer of `bytes`.
pub fn write_size_bucket(bytes: u64) -> Counter {
    match bytes {
        0..=100 => Counter::SizeWrite0_100,
        101..=1024 => Counter::SizeWrite100_1K,
        1025..=10240 => Counter::SizeWrite1K_10K,
        10241..=102_400 => Counter::SizeWrite10K_100K,
        102_401..=1_048_576 => Counter::SizeWrite100K_1M,
        1_048_577..=4_194_304 => Counter::SizeWrite1M_4M,
        4_194_305..=10_485_760 => Counter::SizeWrite4M_10M,
        10_485_761..=104_857_600 => Counter::SizeWrite10M_100M,
        104_857_601..=1_073_741_824 => Counter::SizeWrite100M_1G,
        _ => Counter::SizeWrite1G_Plus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in FCOUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len());
    }

    #[test]
    fn size_buckets() {
        assert_eq!(read_size_bucket(0), Counter::SizeRead0_100);
        assert_eq!(read_size_bucket(100), Counter::SizeRead0_100);
        assert_eq!(read_size_bucket(101), Counter::SizeRead100_1K);
        assert_eq!(read_size_bucket(2048), Counter::SizeRead1K_10K);
        assert_eq!(read_size_bucket(65536), Counter::SizeRead10K_100K);
        assert_eq!(read_size_bucket(1 << 20), Counter::SizeRead100K_1M);
        assert_eq!(read_size_bucket(16 << 20), Counter::SizeRead10M_100M);
        assert_eq!(read_size_bucket(2 << 30), Counter::SizeRead1G_Plus);
        assert_eq!(write_size_bucket(65536), Counter::SizeWrite10K_100K);
        assert_eq!(write_size_bucket(16 << 20), Counter::SizeWrite10M_100M);
    }

    #[test]
    fn every_counter_described() {
        for c in COUNTERS {
            assert!(!c.describe().is_empty());
            assert!(!c.name().is_empty());
        }
        for c in FCOUNTERS {
            assert!(!c.describe().is_empty());
        }
    }
}
