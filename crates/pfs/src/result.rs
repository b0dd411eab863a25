//! Run results: what one execution of a workload on the simulator reports.

use crate::model::engine::Diagnostics;
use serde::{Deserialize, Serialize};

/// Outcome of one simulated application run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// End-to-end wall time in seconds (the metric Figure 5 plots).
    pub wall_secs: f64,
    /// Bytes written by the application.
    pub bytes_written: u64,
    /// Bytes read by the application.
    pub bytes_read: u64,
    /// Aggregate application I/O bandwidth (read+write bytes / wall time).
    pub agg_bandwidth: f64,
    /// Cache hit ratio over read chunks.
    pub cache_hit_ratio: f64,
    /// LDLM lock revocations observed.
    pub lock_revocations: u64,
    /// Seconds writers spent stalled on the dirty limit.
    pub dirty_stall_secs: f64,
    /// Metadata operations serviced.
    pub mds_ops: u64,
    /// Bulk RPCs issued.
    pub bulk_rpcs: u64,
    /// Bytes issued as readahead.
    pub readahead_bytes: u64,
    /// Stats served by statahead.
    pub statahead_hits: u64,
    /// Aggregate OST disk busy seconds.
    pub disk_busy_secs: f64,
    /// Sequential transfers across OST disks.
    pub disk_seq_ops: u64,
    /// Random (positioned) transfers across OST disks.
    pub disk_rand_ops: u64,
}

impl RunResult {
    /// Assemble from the engine's outputs.
    pub fn from_parts(wall_secs: f64, diag: &Diagnostics) -> Self {
        let chunks = diag.cache_hit_chunks + diag.cache_miss_chunks;
        RunResult {
            wall_secs,
            bytes_written: diag.bytes_written,
            bytes_read: diag.bytes_read,
            agg_bandwidth: if wall_secs > 0.0 {
                (diag.bytes_written + diag.bytes_read) as f64 / wall_secs
            } else {
                0.0
            },
            cache_hit_ratio: if chunks > 0 {
                diag.cache_hit_chunks as f64 / chunks as f64
            } else {
                0.0
            },
            lock_revocations: diag.lock_revocations,
            dirty_stall_secs: diag.dirty_stall_secs,
            mds_ops: diag.mds_ops,
            bulk_rpcs: diag.bulk_rpcs,
            readahead_bytes: diag.readahead_bytes,
            statahead_hits: diag.statahead_hits,
            disk_busy_secs: diag.disk_busy_secs,
            disk_seq_ops: diag.disk_seq_ops,
            disk_rand_ops: diag.disk_rand_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_derives_ratios() {
        let diag = Diagnostics {
            bytes_written: 100,
            bytes_read: 300,
            cache_hit_chunks: 3,
            cache_miss_chunks: 1,
            ..Default::default()
        };
        let r = RunResult::from_parts(2.0, &diag);
        assert_eq!(r.agg_bandwidth, 200.0);
        assert_eq!(r.cache_hit_ratio, 0.75);
    }

    #[test]
    fn zero_wall_guard() {
        let diag = Diagnostics::default();
        let r = RunResult::from_parts(0.0, &diag);
        assert_eq!(r.agg_bandwidth, 0.0);
    }
}
