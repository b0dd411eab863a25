//! The I/O operation vocabulary shared by workload generators and the
//! simulator engine.
//!
//! A workload is a set of per-rank [`RankStream`]s — ordered operation lists
//! with optional `Barrier` synchronisation points, exactly the abstraction an
//! MPI benchmark like IOR or MDWorkbench reduces to.

use serde::{Deserialize, Serialize};

/// Identifier of a file in the simulated namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// Identifier of a directory in the simulated namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DirId(pub u32);

/// Which I/O interface issued an operation — Darshan separates counters by
/// module (§2.1.2: POSIX, MPI-IO, STDIO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Module {
    /// POSIX system calls.
    Posix,
    /// MPI-IO collective/independent I/O.
    MpiIo,
    /// Buffered stdio.
    Stdio,
}

impl Module {
    /// Darshan module name string.
    pub fn name(self) -> &'static str {
        match self {
            Module::Posix => "POSIX",
            Module::MpiIo => "MPI-IO",
            Module::Stdio => "STDIO",
        }
    }
}

/// One operation in a rank's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoOp {
    /// Create a directory.
    Mkdir {
        /// Directory to create.
        dir: DirId,
    },
    /// Create (and open) a file inside `dir`. Allocates the file's stripe
    /// layout from the active configuration.
    Create {
        /// File to create.
        file: FileId,
        /// Parent directory.
        dir: DirId,
    },
    /// Open an existing file.
    Open {
        /// File to open.
        file: FileId,
    },
    /// Close a file (kicks off writeback of its aggregation run).
    Close {
        /// File to close.
        file: FileId,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// Target file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Source file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Fetch file attributes (getattr + per-object size glimpse).
    Stat {
        /// Target file.
        file: FileId,
    },
    /// Remove a file (waits for its writeback, destroys its objects).
    Unlink {
        /// Target file.
        file: FileId,
    },
    /// Block until all dirty data of `file` is on stable storage.
    Fsync {
        /// Target file.
        file: FileId,
    },
    /// List a directory (returns entries in creation order; primes statahead).
    Readdir {
        /// Target directory.
        dir: DirId,
    },
    /// Synchronise all ranks (MPI_Barrier).
    Barrier,
    /// Pure computation for `nanos` nanoseconds (no I/O).
    Compute {
        /// Duration in nanoseconds.
        nanos: u64,
    },
}

impl IoOp {
    /// Bytes moved by this operation (0 for metadata/sync ops).
    pub fn bytes(&self) -> u64 {
        match self {
            IoOp::Write { len, .. } | IoOp::Read { len, .. } => *len,
            _ => 0,
        }
    }
}

/// The ordered operation stream of one MPI rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankStream {
    /// MPI rank number.
    pub rank: u32,
    /// I/O interface the operations are issued through.
    pub module: Module,
    /// Operations in program order.
    pub ops: Vec<IoOp>,
}

impl RankStream {
    /// Create an empty stream for `rank`.
    pub fn new(rank: u32, module: Module) -> Self {
        RankStream {
            rank,
            module,
            ops: Vec::new(),
        }
    }

    /// Append an operation.
    pub fn push(&mut self, op: IoOp) {
        self.ops.push(op);
    }

    /// Total bytes written by this stream.
    pub fn bytes_written(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                IoOp::Write { len, .. } => Some(*len),
                _ => None,
            })
            .sum()
    }

    /// Total bytes read by this stream.
    pub fn bytes_read(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                IoOp::Read { len, .. } => Some(*len),
                _ => None,
            })
            .sum()
    }

    /// Number of barrier operations (must agree across ranks of a workload).
    pub fn barrier_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, IoOp::Barrier))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_bytes() {
        assert_eq!(
            IoOp::Write {
                file: FileId(0),
                offset: 0,
                len: 42
            }
            .bytes(),
            42
        );
        assert_eq!(IoOp::Stat { file: FileId(0) }.bytes(), 0);
        assert_eq!(IoOp::Barrier.bytes(), 0);
    }

    #[test]
    fn stream_accounting() {
        let mut s = RankStream::new(3, Module::Posix);
        s.push(IoOp::Write {
            file: FileId(1),
            offset: 0,
            len: 100,
        });
        s.push(IoOp::Barrier);
        s.push(IoOp::Read {
            file: FileId(1),
            offset: 0,
            len: 60,
        });
        s.push(IoOp::Barrier);
        assert_eq!(s.bytes_written(), 100);
        assert_eq!(s.bytes_read(), 60);
        assert_eq!(s.barrier_count(), 2);
        assert_eq!(s.rank, 3);
    }

    #[test]
    fn module_names() {
        assert_eq!(Module::Posix.name(), "POSIX");
        assert_eq!(Module::MpiIo.name(), "MPI-IO");
        assert_eq!(Module::Stdio.name(), "STDIO");
    }
}
