//! Calendar-based queueing resources.
//!
//! All contention in the PFS model flows through three primitives:
//!
//! * [`FifoServer`] — a single server with a FIFO queue. A request arriving at
//!   `a` with service time `s` starts at `max(a, busy_until)` and completes at
//!   `start + s`.
//! * [`MultiServer`] — `k` identical servers fed by one FIFO queue (models an
//!   MDS service pool or a disk with internal parallelism).
//! * [`Window`] — a sliding window of at most `k` in-flight operations (models
//!   `max_rpcs_in_flight`-style client-side concurrency caps). `admit` returns
//!   the earliest instant a new operation may be *issued*.
//!
//! Because requests are resolved analytically against a busy calendar rather
//! than via per-request events, a resource access is O(log k); the PFS model
//! only needs to guarantee that each resource sees arrivals in nondecreasing
//! time order (the engine's event loop provides exactly that).

use crate::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of scheduling a request on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually begins (>= arrival).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Queueing delay experienced before service began.
    pub fn wait(&self, arrival: SimTime) -> Duration {
        self.start.saturating_since(arrival)
    }
}

/// Single-server FIFO queue with a busy-until calendar.
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    busy_until: SimTime,
    served: u64,
    busy_time: Duration,
}

impl FifoServer {
    /// Create an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a request arriving at `arrival` needing `service` time.
    pub fn schedule(&mut self, arrival: SimTime, service: Duration) -> Grant {
        let start = arrival.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        self.served += 1;
        self.busy_time += service;
        Grant { start, end }
    }

    /// Earliest instant a new arrival would begin service.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Aggregate busy time (for utilisation reporting).
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }

    /// Utilisation over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_time.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }
}

/// `k` identical servers behind one FIFO queue.
#[derive(Debug, Clone)]
pub struct MultiServer {
    free_times: BinaryHeap<Reverse<SimTime>>,
    capacity: usize,
    served: u64,
    busy_time: Duration,
}

impl MultiServer {
    /// Create a pool of `capacity` idle servers.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MultiServer capacity must be positive");
        let mut free_times = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            free_times.push(Reverse(SimTime::ZERO));
        }
        MultiServer {
            free_times,
            capacity,
            served: 0,
            busy_time: Duration::ZERO,
        }
    }

    /// Schedule a request arriving at `arrival` needing `service` time on the
    /// earliest-free server.
    pub fn schedule(&mut self, arrival: SimTime, service: Duration) -> Grant {
        let Reverse(free) = self.free_times.pop().expect("capacity > 0");
        let start = arrival.max(free);
        let end = start + service;
        self.free_times.push(Reverse(end));
        self.served += 1;
        self.busy_time += service;
        Grant { start, end }
    }

    /// Earliest instant any server becomes free.
    pub fn earliest_free(&self) -> SimTime {
        self.free_times.peek().map(|r| r.0).unwrap_or(SimTime::ZERO)
    }

    /// Number of servers in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Aggregate busy time across all servers.
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }
}

/// Sliding window of at most `k` concurrently in-flight operations.
///
/// Unlike [`MultiServer`], the window does not *serve* anything itself; the
/// caller obtains an admission time, computes the operation's completion via
/// other resources, then reports it back with [`Window::complete`].
#[derive(Debug, Clone)]
pub struct Window {
    inflight_ends: BinaryHeap<Reverse<SimTime>>,
    capacity: usize,
    admitted: u64,
    stall_time: Duration,
}

impl Window {
    /// Create a window admitting up to `capacity` concurrent operations.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Window capacity must be positive");
        Window {
            inflight_ends: BinaryHeap::new(),
            capacity,
            admitted: 0,
            stall_time: Duration::ZERO,
        }
    }

    /// Earliest instant at or after `arrival` when a slot is available.
    /// Call [`Window::complete`] once the operation's end time is known.
    pub fn admit(&mut self, arrival: SimTime) -> SimTime {
        // Retire operations that finished before this arrival.
        while let Some(&Reverse(end)) = self.inflight_ends.peek() {
            if end <= arrival {
                self.inflight_ends.pop();
            } else {
                break;
            }
        }
        if self.inflight_ends.len() < self.capacity {
            self.admitted += 1;
            return arrival;
        }
        // Window full: wait for the earliest in-flight op to retire.
        let Reverse(first_end) = self.inflight_ends.pop().expect("window non-empty");
        self.stall_time += first_end.saturating_since(arrival);
        self.admitted += 1;
        first_end.max(arrival)
    }

    /// Record that an admitted operation completes at `end`.
    pub fn complete(&mut self, end: SimTime) {
        self.inflight_ends.push(Reverse(end));
    }

    /// Number of admissions so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Cumulative time spent stalled waiting for a slot.
    pub fn stall_time(&self) -> Duration {
        self.stall_time
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A bandwidth-limited FIFO channel (NIC port, disk stream).
///
/// Service time is `bytes / bandwidth + per_op_overhead`, serialised through a
/// [`FifoServer`], which yields exact head-of-line blocking under contention.
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    server: FifoServer,
    bytes_per_sec: f64,
    per_op_overhead: Duration,
    bytes_moved: u64,
}

impl BandwidthChannel {
    /// Create a channel with the given capacity and fixed per-operation cost.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64, per_op_overhead: Duration) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        BandwidthChannel {
            server: FifoServer::new(),
            bytes_per_sec,
            per_op_overhead,
            bytes_moved: 0,
        }
    }

    /// Time to move `bytes` through an uncontended channel.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.per_op_overhead + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Schedule a transfer of `bytes` arriving at `arrival`.
    pub fn schedule(&mut self, arrival: SimTime, bytes: u64) -> Grant {
        let service = self.transfer_time(bytes);
        self.bytes_moved += bytes;
        self.server.schedule(arrival, service)
    }

    /// Total bytes moved through the channel.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Earliest instant a new transfer would begin.
    pub fn free_at(&self) -> SimTime {
        self.server.free_at()
    }

    /// Configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn fifo_serialises_back_to_back() {
        let mut srv = FifoServer::new();
        let g1 = srv.schedule(t(0), d(2));
        let g2 = srv.schedule(t(1), d(2));
        assert_eq!(g1.end, t(2));
        assert_eq!(g2.start, t(2));
        assert_eq!(g2.end, t(4));
        assert_eq!(g2.wait(t(1)), d(1));
    }

    #[test]
    fn fifo_idle_gap_respected() {
        let mut srv = FifoServer::new();
        srv.schedule(t(0), d(1));
        let g = srv.schedule(t(10), d(1));
        assert_eq!(g.start, t(10));
        assert_eq!(g.end, t(11));
        assert_eq!(srv.served(), 2);
        assert_eq!(srv.busy_time(), d(2));
    }

    #[test]
    fn fifo_utilization() {
        let mut srv = FifoServer::new();
        srv.schedule(t(0), d(5));
        assert!((srv.utilization(t(10)) - 0.5).abs() < 1e-12);
        assert_eq!(srv.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn multiserver_overlaps_up_to_capacity() {
        let mut pool = MultiServer::new(2);
        let g1 = pool.schedule(t(0), d(4));
        let g2 = pool.schedule(t(0), d(4));
        let g3 = pool.schedule(t(0), d(4));
        assert_eq!(g1.start, t(0));
        assert_eq!(g2.start, t(0));
        // Third request queues behind the earliest completion.
        assert_eq!(g3.start, t(4));
        assert_eq!(g3.end, t(8));
    }

    #[test]
    fn multiserver_matches_fifo_when_capacity_is_one() {
        let mut pool = MultiServer::new(1);
        let mut srv = FifoServer::new();
        for i in 0..20u64 {
            let arr = SimTime::from_millis(i * 137 % 900);
            // Arrivals must be nondecreasing for calendar resources; sort them.
            let arr = arr.max(pool.earliest_free().min(arr));
            let service = Duration::from_millis(50 + i * 7);
            let a = pool.schedule(arr, service);
            let b = srv.schedule(arr, service);
            assert_eq!(a, b, "iteration {i}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn multiserver_zero_capacity_panics() {
        let _ = MultiServer::new(0);
    }

    #[test]
    fn window_admits_immediately_when_open() {
        let mut w = Window::new(2);
        assert_eq!(w.admit(t(0)), t(0));
        w.complete(t(5));
        assert_eq!(w.admit(t(1)), t(1));
        w.complete(t(6));
        // Window now full until t=5.
        assert_eq!(w.admit(t(2)), t(5));
        assert_eq!(w.stall_time(), d(3));
    }

    #[test]
    fn window_retires_finished_ops() {
        let mut w = Window::new(1);
        assert_eq!(w.admit(t(0)), t(0));
        w.complete(t(1));
        // Arrival after the in-flight op completed: no stall.
        assert_eq!(w.admit(t(2)), t(2));
        assert_eq!(w.stall_time(), Duration::ZERO);
    }

    #[test]
    fn bandwidth_channel_transfer_time() {
        let ch = BandwidthChannel::new(1_000_000.0, Duration::from_micros(10));
        let tt = ch.transfer_time(1_000_000);
        assert_eq!(tt, Duration::from_secs(1) + Duration::from_micros(10));
    }

    #[test]
    fn bandwidth_channel_contention_serialises() {
        let mut ch = BandwidthChannel::new(1_000.0, Duration::ZERO);
        let g1 = ch.schedule(t(0), 1_000); // 1s
        let g2 = ch.schedule(t(0), 1_000); // queues
        assert_eq!(g1.end, t(1));
        assert_eq!(g2.start, t(1));
        assert_eq!(g2.end, t(2));
        assert_eq!(ch.bytes_moved(), 2_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bandwidth_zero_panics() {
        let _ = BandwidthChannel::new(0.0, Duration::ZERO);
    }
}
