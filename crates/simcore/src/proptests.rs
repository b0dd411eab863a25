//! Property-based tests for the kernel primitives: the queueing-theory
//! invariants every downstream model depends on.

#![cfg(test)]

use crate::resources::{BandwidthChannel, FifoServer, MultiServer, Window};
use crate::stats::Accumulator;
use crate::time::{Duration, SimTime};
use crate::EventQueue;
use proptest::prelude::*;

fn arrivals() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (inter-arrival gap ns, service ns) pairs; gaps accumulate so arrival
    // times are nondecreasing, as the engine guarantees.
    proptest::collection::vec((0u64..5_000_000, 1u64..2_000_000), 1..60)
}

proptest! {
    /// FIFO: service intervals never overlap, never reorder, and each
    /// request starts no earlier than its arrival.
    #[test]
    fn fifo_is_work_conserving_and_ordered(reqs in arrivals()) {
        let mut srv = FifoServer::new();
        let mut t = 0u64;
        let mut last_end = SimTime::ZERO;
        let mut busy_sum = Duration::ZERO;
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let service = Duration::from_nanos(svc);
            let g = srv.schedule(arrival, service);
            prop_assert!(g.start >= arrival);
            prop_assert!(g.start >= last_end, "service overlap");
            prop_assert_eq!((g.end - g.start).as_nanos(), svc);
            last_end = g.end;
            busy_sum += service;
        }
        prop_assert_eq!(srv.busy_time(), busy_sum);
        // Utilisation can never exceed 1 over the horizon that includes all
        // service.
        prop_assert!(srv.utilization(last_end) <= 1.0 + 1e-12);
    }

    /// MultiServer with capacity k: at any instant at most k requests are in
    /// service, and its makespan is never worse than a single FIFO's.
    #[test]
    fn multiserver_respects_capacity(reqs in arrivals(), k in 1usize..6) {
        let mut pool = MultiServer::new(k);
        let mut fifo = FifoServer::new();
        let mut t = 0u64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut pool_makespan = SimTime::ZERO;
        let mut fifo_makespan = SimTime::ZERO;
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let service = Duration::from_nanos(svc);
            let g = pool.schedule(arrival, service);
            prop_assert!(g.start >= arrival);
            intervals.push((g.start.as_nanos(), g.end.as_nanos()));
            pool_makespan = pool_makespan.max(g.end);
            fifo_makespan = fifo_makespan.max(fifo.schedule(arrival, service).end);
        }
        // Concurrency check: for each interval start, count overlapping.
        for &(s, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(overlapping <= k, "{overlapping} > {k} concurrent");
        }
        prop_assert!(pool_makespan <= fifo_makespan);
    }

    /// Window: admissions never exceed capacity concurrently (when completes
    /// are reported faithfully), and admission time is never before arrival.
    #[test]
    fn window_caps_concurrency(reqs in arrivals(), k in 1usize..8) {
        let mut w = Window::new(k);
        let mut t = 0u64;
        let mut inflight: Vec<(u64, u64)> = Vec::new(); // (admit, end)
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let admit = w.admit(arrival);
            prop_assert!(admit >= arrival);
            let end = admit + Duration::from_nanos(svc);
            w.complete(end);
            inflight.push((admit.as_nanos(), end.as_nanos()));
        }
        for &(s, _) in &inflight {
            let concurrent = inflight
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(concurrent <= k, "{concurrent} > {k}");
        }
    }

    /// Bandwidth channel: total busy time equals bytes/bandwidth plus
    /// per-op overhead, independent of arrival pattern.
    #[test]
    fn bandwidth_conserves_service(reqs in arrivals()) {
        let bw = 1e9;
        let overhead_ns = 1000u64;
        let mut ch = BandwidthChannel::new(bw, Duration::from_nanos(overhead_ns));
        let mut t = 0u64;
        let mut expected = 0.0f64;
        for (gap, bytes) in &reqs {
            t += gap;
            ch.schedule(SimTime::from_nanos(t), *bytes);
            expected += *bytes as f64 / bw + overhead_ns as f64 * 1e-9;
        }
        let total: u64 = reqs.iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(ch.bytes_moved(), total);
        prop_assert!(ch.free_at().as_secs_f64() >= expected - 1e-9);
    }

    /// EventQueue: pops are globally sorted by (time, insertion order).
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            if t == last.0 {
                prop_assert!(i > last.1 || popped == 0, "FIFO tie-break violated");
            } else {
                prop_assert!(t > last.0);
            }
            last = (t, i);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Accumulator merge is order-insensitive and matches sequential feed.
    #[test]
    fn accumulator_merge_associative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut whole = Accumulator::new();
        for &x in &xs { whole.add(x); }
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &xs[..split] { a.add(x); }
        for &x in &xs[split..] { b.add(x); }
        let mut ab = a.clone(); ab.merge(&b);
        let mut ba = b.clone(); ba.merge(&a);
        prop_assert!((ab.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((ba.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((ab.variance() - whole.variance()).abs() < 1e-3);
        prop_assert_eq!(ab.count(), whole.count());
        prop_assert_eq!(ab.min(), whole.min());
        prop_assert_eq!(ab.max(), whole.max());
    }

    /// RNG streams with the same seed agree; derived streams are stable.
    #[test]
    fn rng_reproducibility(seed in 0u64..u64::MAX, label in "[a-z]{1,12}", idx in 0u64..1000) {
        let a = crate::SimRng::new(seed);
        let b = crate::SimRng::new(seed);
        let mut da = a.derive(&label, idx);
        let mut db = b.derive(&label, idx);
        for _ in 0..8 {
            prop_assert_eq!(da.unit().to_bits(), db.unit().to_bits());
        }
    }
}
