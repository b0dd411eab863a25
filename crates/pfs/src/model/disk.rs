//! OST backing-device model: a FIFO disk with sequential/random asymmetry.
//!
//! Each OST object maintains a "next expected offset"; a request that
//! continues an object's stream is sequential (no positioning penalty), any
//! other request pays [`crate::topology::DiskProfile::random_seek_us`]. This
//! is the mechanism that makes random-small and sequential-large workloads
//! respond differently to the same tunables.

use crate::ops::FileId;
use crate::topology::DiskProfile;
use simcore::hash::FxBuildHasher;
use simcore::resources::{FifoServer, Grant};
use simcore::time::{Duration, SimTime};
use simcore::SimRng;
use std::collections::HashMap;

/// One OST's device calendar.
#[derive(Debug)]
pub struct DiskCalendar {
    server: FifoServer,
    profile: DiskProfile,
    // (file, object index) -> next expected object offset for sequential I/O
    // determinism audit (D002): point lookups/inserts/removes only — never
    // iterated, so hash order cannot reach the simulation
    streams: HashMap<(FileId, u32), u64, FxBuildHasher>,
    seq_ops: u64,
    rand_ops: u64,
}

impl DiskCalendar {
    /// Create an idle disk with the given device profile.
    pub fn new(profile: DiskProfile) -> Self {
        DiskCalendar {
            server: FifoServer::new(),
            profile,
            streams: HashMap::default(),
            seq_ops: 0,
            rand_ops: 0,
        }
    }

    /// Schedule a data transfer of `bytes` at object offset `obj_offset` of
    /// `(file, obj_index)`, arriving at `arrival`. `noise` is a multiplicative
    /// service-time factor (run and op noise combined).
    #[allow(clippy::too_many_arguments)] // the transfer descriptor is wide by nature
    pub fn transfer(
        &mut self,
        arrival: SimTime,
        file: FileId,
        obj_index: u32,
        obj_offset: u64,
        bytes: u64,
        noise: f64,
        rng: &mut SimRng,
    ) -> Grant {
        let key = (file, obj_index);
        let expected = self.streams.get(&key).copied();
        let sequential = expected == Some(obj_offset);
        if sequential {
            self.seq_ops += 1;
        } else {
            self.rand_ops += 1;
        }
        self.streams.insert(key, obj_offset + bytes);

        let seek_us = if sequential {
            0.0
        } else {
            self.profile.random_seek_us
        };
        let base_us =
            self.profile.per_op_us + seek_us + bytes as f64 / self.profile.seq_bytes_per_sec * 1e6;
        // `noise` folds the per-run factor and the op-level sigma is drawn
        // here so disk jitter stays local to the device.
        let jitter = rng.lognormal_factor(0.02);
        let service = Duration::from_secs_f64(base_us * 1e-6 * noise * jitter);
        self.server.schedule(arrival, service)
    }

    /// Schedule a small fixed-cost housekeeping operation (object create or
    /// destroy, glimpse service) on the device.
    pub fn small_op(&mut self, arrival: SimTime, noise: f64) -> Grant {
        let service = Duration::from_secs_f64(self.profile.per_op_us * 1e-6 * noise);
        self.server.schedule(arrival, service)
    }

    /// Forget an object's stream state (unlink).
    pub fn forget(&mut self, file: FileId, obj_index: u32) {
        self.streams.remove(&(file, obj_index));
    }

    /// Sequential transfers observed.
    pub fn seq_ops(&self) -> u64 {
        self.seq_ops
    }

    /// Random (positioned) transfers observed.
    pub fn rand_ops(&self) -> u64 {
        self.rand_ops
    }

    /// Cumulative busy time (utilisation reporting).
    pub fn busy_time(&self) -> Duration {
        self.server.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DiskProfile;

    fn disk() -> DiskCalendar {
        DiskCalendar::new(DiskProfile {
            seq_bytes_per_sec: 1e9,
            random_seek_us: 100.0,
            per_op_us: 10.0,
        })
    }

    fn rng() -> SimRng {
        SimRng::new(1)
    }

    #[test]
    fn first_access_is_random_then_sequential() {
        let mut d = disk();
        let mut r = rng();
        let f = FileId(0);
        let g = d.transfer(SimTime::ZERO, f, 0, 0, 1 << 20, 1.0, &mut r);
        assert_eq!(d.rand_ops(), 1);
        let g = d.transfer(g.end, f, 0, 1 << 20, 1 << 20, 1.0, &mut r);
        assert_eq!(d.seq_ops(), 1);
        // Jumping backwards is random again.
        d.transfer(g.end, f, 0, 0, 4096, 1.0, &mut r);
        assert_eq!(d.rand_ops(), 2);
    }

    #[test]
    fn sequential_is_faster_than_random() {
        let mut d = disk();
        let mut r = SimRng::new(2);
        let f = FileId(0);
        // Noise 0 sigma -> lognormal_factor(0)=1, deterministic comparison.
        let g0 = d.transfer(SimTime::ZERO, f, 0, 0, 4096, 1.0, &mut r);
        let random_cost = (g0.end - g0.start).as_nanos();
        let g1 = d.transfer(g0.end, f, 0, 4096, 4096, 1.0, &mut r);
        let seq_cost = (g1.end - g1.start).as_nanos();
        assert!(
            seq_cost < random_cost,
            "seq {seq_cost} !< rand {random_cost}"
        );
    }

    #[test]
    fn streams_are_per_object() {
        let mut d = disk();
        let mut r = rng();
        let f = FileId(0);
        let g = d.transfer(SimTime::ZERO, f, 0, 0, 4096, 1.0, &mut r);
        // Different object index: its own stream, counts as random.
        d.transfer(g.end, f, 1, 4096, 4096, 1.0, &mut r);
        assert_eq!(d.rand_ops(), 2);
    }

    #[test]
    fn forget_resets_stream() {
        let mut d = disk();
        let mut r = rng();
        let f = FileId(0);
        let g = d.transfer(SimTime::ZERO, f, 0, 0, 4096, 1.0, &mut r);
        d.forget(f, 0);
        d.transfer(g.end, f, 0, 4096, 4096, 1.0, &mut r);
        assert_eq!(d.rand_ops(), 2);
        assert_eq!(d.seq_ops(), 0);
    }

    #[test]
    fn small_op_is_cheap() {
        let mut d = disk();
        let g = d.small_op(SimTime::ZERO, 1.0);
        assert_eq!((g.end - g.start).as_nanos(), 10_000); // per_op_us
    }

    #[test]
    fn byte_accounting() {
        // A stream's next expected offset advances by the bytes moved.
        let mut d = disk();
        let mut r = rng();
        let g = d.transfer(SimTime::ZERO, FileId(0), 0, 0, 100, 1.0, &mut r);
        let g = d.transfer(g.end, FileId(0), 0, 100, 200, 1.0, &mut r);
        d.transfer(g.end, FileId(0), 0, 300, 4096, 1.0, &mut r);
        assert_eq!((d.rand_ops(), d.seq_ops()), (1, 2));
    }
}
