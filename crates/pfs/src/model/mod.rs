//! The simulator facade.

pub mod cache;
pub mod disk;
pub mod engine;
pub mod state;

use crate::faults::FaultPlan;
use crate::ops::RankStream;
use crate::params::TuningConfig;
use crate::result::RunResult;
use crate::topology::ClusterSpec;
use crate::trace::{NullSink, TraceSink};
use engine::Engine;

/// A configured parallel-file-system simulator.
///
/// Each [`PfsSimulator::run`] call is one fresh "Tuning Run" step in the
/// paper's protocol: the file system starts empty, client caches cold, all
/// queued state drained (§5.1's hygiene steps are implicit in constructing a
/// fresh engine per run).
///
/// ```
/// use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
/// use pfs::ops::{DirId, FileId, IoOp, Module, RankStream};
///
/// let sim = PfsSimulator::new(ClusterSpec::tiny());
/// let mut stream = RankStream::new(0, Module::Posix);
/// stream.push(IoOp::Create { file: FileId(1), dir: DirId(0) });
/// stream.push(IoOp::Write { file: FileId(1), offset: 0, len: 1 << 20 });
/// stream.push(IoOp::Close { file: FileId(1) });
///
/// let result = sim.run(vec![stream], &TuningConfig::lustre_default(), 42);
/// assert_eq!(result.bytes_written, 1 << 20);
/// assert!(result.wall_secs > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PfsSimulator {
    topo: ClusterSpec,
}

impl PfsSimulator {
    /// Create a simulator for the given cluster.
    pub fn new(topo: ClusterSpec) -> Self {
        PfsSimulator { topo }
    }

    /// The paper's 10-node cluster.
    pub fn paper() -> Self {
        Self::new(ClusterSpec::paper_cluster())
    }

    /// Cluster description.
    pub fn topology(&self) -> &ClusterSpec {
        &self.topo
    }

    /// Execute `streams` under `cfg`, seeded with `seed`, sending the trace
    /// to `sink`. Returns wall time and diagnostics. Pass `None` for a
    /// pristine cluster; under a [`FaultPlan`], OST service times are scaled
    /// by the plan's piecewise-constant degradation factors, evaluated in
    /// simulated time. Faults change wall times only — the trace's record
    /// sequence and shape stay identical to a pristine run of the same
    /// streams.
    pub fn run_traced_faulted(
        &self,
        streams: Vec<RankStream>,
        cfg: &TuningConfig,
        seed: u64,
        faults: Option<&FaultPlan>,
        sink: &mut dyn TraceSink,
    ) -> RunResult {
        let engine = Engine::with_faults(&self.topo, cfg, seed, sink, faults);
        let (wall, diag) = engine.run(streams);
        RunResult::from_parts(wall.as_secs_f64(), &diag)
    }

    /// Execute on a pristine cluster without tracing.
    pub fn run(&self, streams: Vec<RankStream>, cfg: &TuningConfig, seed: u64) -> RunResult {
        self.run_traced_faulted(streams, cfg, seed, None, &mut NullSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DirId, FileId, IoOp, Module, RankStream};

    fn topo() -> ClusterSpec {
        ClusterSpec::tiny()
    }

    fn write_stream(rank: u32, file: u32, blocks: u32, block: u64) -> RankStream {
        let mut s = RankStream::new(rank, Module::Posix);
        s.push(IoOp::Create {
            file: FileId(file),
            dir: DirId(0),
        });
        for b in 0..blocks {
            s.push(IoOp::Write {
                file: FileId(file),
                offset: b as u64 * block,
                len: block,
            });
        }
        s.push(IoOp::Close { file: FileId(file) });
        s.push(IoOp::Barrier);
        s
    }

    #[test]
    fn single_rank_write_completes() {
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let r = sim.run(vec![write_stream(0, 0, 4, 1 << 20)], &cfg, 1);
        assert!(r.wall_secs > 0.0);
        assert_eq!(r.bytes_written, 4 << 20);
        assert!(r.bulk_rpcs >= 4);
    }

    #[test]
    fn determinism_same_seed() {
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let mk = || {
            vec![
                write_stream(0, 0, 8, 1 << 20),
                write_stream(1, 1, 8, 1 << 20),
                write_stream(2, 2, 8, 1 << 20),
                write_stream(3, 3, 8, 1 << 20),
            ]
        };
        let a = sim.run(mk(), &cfg, 7);
        let b = sim.run(mk(), &cfg, 7);
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        let c = sim.run(mk(), &cfg, 8);
        assert_ne!(a.wall_secs.to_bits(), c.wall_secs.to_bits());
    }

    #[test]
    fn striping_speeds_up_shared_file_writes() {
        // One shared file written by all ranks: stripe_count = all OSTs must
        // beat stripe_count = 1 (the headline IOR_16M mechanism).
        let sim = PfsSimulator::new(topo());
        let mk = || {
            (0..4)
                .map(|rank| {
                    let mut s = RankStream::new(rank, Module::MpiIo);
                    if rank == 0 {
                        s.push(IoOp::Create {
                            file: FileId(0),
                            dir: DirId(0),
                        });
                    } else {
                        s.push(IoOp::Open { file: FileId(0) });
                    }
                    s.push(IoOp::Barrier);
                    let block = 32u64 << 20;
                    for b in 0..4u64 {
                        s.push(IoOp::Write {
                            file: FileId(0),
                            offset: (rank as u64 * 4 + b) * block,
                            len: block,
                        });
                    }
                    s.push(IoOp::Close { file: FileId(0) });
                    s.push(IoOp::Barrier);
                    s
                })
                .collect::<Vec<_>>()
        };
        let narrow = {
            let mut c = TuningConfig::lustre_default();
            c.stripe_count = 1;
            c
        };
        let wide = {
            let mut c = TuningConfig::lustre_default();
            c.stripe_count = -1;
            c
        };
        let t_narrow = sim.run(mk(), &narrow, 3).wall_secs;
        let t_wide = sim.run(mk(), &wide, 3).wall_secs;
        assert!(
            t_wide < t_narrow * 0.8,
            "wide {t_wide} !< narrow {t_narrow} * 0.8"
        );
    }

    #[test]
    fn readahead_speeds_up_sequential_reads() {
        let sim = PfsSimulator::new(topo());
        let mk = || {
            // Rank 0 writes, barrier, rank 1 reads sequentially (cold cache
            // on rank 1's client node — tiny() puts ranks 0,1 on client 0;
            // use ranks 0 and 2 for distinct clients).
            let block = 1u64 << 20;
            let blocks = 64u64;
            let mut w = RankStream::new(0, Module::Posix);
            w.push(IoOp::Create {
                file: FileId(0),
                dir: DirId(0),
            });
            for b in 0..blocks {
                w.push(IoOp::Write {
                    file: FileId(0),
                    offset: b * block,
                    len: block,
                });
            }
            w.push(IoOp::Close { file: FileId(0) });
            w.push(IoOp::Barrier);
            let mut r = RankStream::new(2, Module::Posix);
            r.push(IoOp::Barrier);
            r.push(IoOp::Open { file: FileId(0) });
            for b in 0..blocks {
                r.push(IoOp::Read {
                    file: FileId(0),
                    offset: b * block,
                    len: block,
                });
            }
            r.push(IoOp::Close { file: FileId(0) });
            vec![w, r]
        };
        let with_ra = TuningConfig::lustre_default();
        let mut no_ra = TuningConfig::lustre_default();
        no_ra.llite_max_read_ahead_mb = 0;
        let t_ra = sim.run(mk(), &with_ra, 5).wall_secs;
        let t_none = sim.run(mk(), &no_ra, 5).wall_secs;
        assert!(t_ra < t_none, "ra {t_ra} !< none {t_none}");
    }

    #[test]
    fn statahead_speeds_up_stat_scans() {
        let sim = PfsSimulator::new(topo());
        let mk = || {
            let n = 200u32;
            let mut s = RankStream::new(0, Module::Posix);
            s.push(IoOp::Mkdir { dir: DirId(1) });
            for i in 0..n {
                s.push(IoOp::Create {
                    file: FileId(i),
                    dir: DirId(1),
                });
                s.push(IoOp::Close { file: FileId(i) });
            }
            for i in 0..n {
                s.push(IoOp::Stat { file: FileId(i) });
            }
            vec![s]
        };
        let with_sa = TuningConfig::lustre_default();
        let mut no_sa = TuningConfig::lustre_default();
        no_sa.llite_statahead_max = 0;
        let t_sa = sim.run(mk(), &with_sa, 9);
        let t_none = sim.run(mk(), &no_sa, 9);
        assert!(t_sa.statahead_hits > 0);
        assert_eq!(t_none.statahead_hits, 0);
        assert!(
            t_sa.wall_secs < t_none.wall_secs,
            "sa {} !< none {}",
            t_sa.wall_secs,
            t_none.wall_secs
        );
    }

    #[test]
    fn metadata_windows_help_many_ranks() {
        // 2 ranks per client hammering creates: deeper mod window helps when
        // ranks outnumber the window... with 2 ranks/client the default of 7
        // suffices, so instead verify a *shrunk* window hurts.
        let sim = PfsSimulator::new(topo());
        let mk = || {
            (0..4u32)
                .map(|rank| {
                    let mut s = RankStream::new(rank, Module::Posix);
                    s.push(IoOp::Mkdir {
                        dir: DirId(rank + 1),
                    });
                    for i in 0..150u32 {
                        let f = FileId(rank * 1000 + i);
                        s.push(IoOp::Create {
                            file: f,
                            dir: DirId(rank + 1),
                        });
                        s.push(IoOp::Close { file: f });
                    }
                    s
                })
                .collect::<Vec<_>>()
        };
        let deep = TuningConfig::lustre_default();
        let mut shallow = TuningConfig::lustre_default();
        shallow.mdc_max_rpcs_in_flight = 2;
        shallow.mdc_max_mod_rpcs_in_flight = 1;
        let t_deep = sim.run(mk(), &deep, 11).wall_secs;
        let t_shallow = sim.run(mk(), &shallow, 11).wall_secs;
        assert!(t_deep < t_shallow, "deep {t_deep} !< shallow {t_shallow}");
    }

    #[test]
    fn lock_conflicts_recorded_on_shared_random_writes() {
        let sim = PfsSimulator::new(topo());
        let mk = || {
            // Ranks on different clients interleave writes over the same
            // regions.
            (0..4u32)
                .map(|rank| {
                    let mut s = RankStream::new(rank, Module::Posix);
                    if rank == 0 {
                        s.push(IoOp::Create {
                            file: FileId(0),
                            dir: DirId(0),
                        });
                    }
                    s.push(IoOp::Barrier);
                    for i in 0..32u64 {
                        s.push(IoOp::Write {
                            file: FileId(0),
                            offset: ((i * 4 + rank as u64) * 97) % 64 * (1 << 20),
                            len: 64 * 1024,
                        });
                    }
                    s.push(IoOp::Barrier);
                    s
                })
                .collect::<Vec<_>>()
        };
        let r = sim.run(mk(), &TuningConfig::lustre_default(), 13);
        assert!(r.lock_revocations > 0, "expected cross-client revocations");
    }

    #[test]
    fn trace_sink_receives_records() {
        use crate::trace::VecSink;
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let mut sink = VecSink::default();
        sim.run_traced_faulted(
            vec![write_stream(0, 0, 2, 1 << 20)],
            &cfg,
            1,
            None,
            &mut sink,
        );
        // create + 2 writes + close (barrier emits nothing)
        assert!(sink.records.len() >= 4);
        assert!(sink
            .records
            .iter()
            .any(|r| matches!(r.class, crate::trace::OpClass::Write)));
    }

    #[test]
    fn faults_slow_runs_without_changing_trace_shape() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use crate::trace::VecSink;
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let mk = || vec![write_stream(0, 0, 16, 4 << 20)];
        let plan = FaultPlan::new(
            (0..topo().ost_count())
                .map(|ost| FaultEvent {
                    at_nanos: 0,
                    ost,
                    kind: FaultKind::Degrade { factor: 8.0 },
                })
                .collect(),
        );

        let mut pristine_sink = VecSink::default();
        let pristine = sim.run_traced_faulted(mk(), &cfg, 23, None, &mut pristine_sink);
        let mut faulted_sink = VecSink::default();
        let faulted = sim.run_traced_faulted(mk(), &cfg, 23, Some(&plan), &mut faulted_sink);

        assert!(
            faulted.wall_secs > pristine.wall_secs,
            "faulted {} !> pristine {}",
            faulted.wall_secs,
            pristine.wall_secs
        );
        // Same op sequence, same classes and byte counts — only times move.
        assert_eq!(pristine_sink.records.len(), faulted_sink.records.len());
        for (p, f) in pristine_sink.records.iter().zip(&faulted_sink.records) {
            assert_eq!(p.rank, f.rank);
            assert_eq!(p.class, f.class);
            assert_eq!(p.bytes, f.bytes);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::faults::FaultPlan;
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let mk = || {
            vec![
                write_stream(0, 0, 8, 1 << 20),
                write_stream(1, 1, 8, 1 << 20),
            ]
        };
        let plan = FaultPlan::seeded(topo().ost_count(), 99);
        let mut sink_a = crate::trace::NullSink;
        let a = sim.run_traced_faulted(mk(), &cfg, 31, Some(&plan), &mut sink_a);
        let mut sink_b = crate::trace::NullSink;
        let b = sim.run_traced_faulted(mk(), &cfg, 31, Some(&plan), &mut sink_b);
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        // Empty plan is bit-identical to the pristine path.
        let empty = FaultPlan::default();
        let c = sim.run_traced_faulted(mk(), &cfg, 31, Some(&empty), &mut crate::trace::NullSink);
        let d = sim.run(mk(), &cfg, 31);
        assert_eq!(c.wall_secs.to_bits(), d.wall_secs.to_bits());
    }

    #[test]
    fn recovery_lands_between_pristine_and_degraded() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        let sim = PfsSimulator::new(topo());
        let cfg = TuningConfig::lustre_default();
        let mk = || vec![write_stream(0, 0, 32, 4 << 20)];
        let pristine = sim.run(mk(), &cfg, 41).wall_secs;
        let degrade_all = |kind_at: &[(u64, FaultKind)]| {
            FaultPlan::new(
                (0..topo().ost_count())
                    .flat_map(|ost| {
                        kind_at.iter().map(move |&(at_nanos, kind)| FaultEvent {
                            at_nanos,
                            ost,
                            kind,
                        })
                    })
                    .collect(),
            )
        };
        let forever = degrade_all(&[(0, FaultKind::Degrade { factor: 16.0 })]);
        let degraded = sim
            .run_traced_faulted(mk(), &cfg, 41, Some(&forever), &mut crate::trace::NullSink)
            .wall_secs;
        // Recover at half the pristine wall: the tail runs at full speed.
        let mid = (pristine * 0.5 * 1e9) as u64;
        let healing = degrade_all(&[
            (0, FaultKind::Degrade { factor: 16.0 }),
            (mid, FaultKind::Recover),
        ]);
        let recovered = sim
            .run_traced_faulted(mk(), &cfg, 41, Some(&healing), &mut crate::trace::NullSink)
            .wall_secs;
        assert!(
            pristine < recovered && recovered < degraded,
            "expected pristine {pristine} < recovered {recovered} < degraded {degraded}"
        );
    }

    #[test]
    fn dirty_limit_causes_stalls_when_tiny() {
        let sim = PfsSimulator::new(topo());
        let mk = || vec![write_stream(0, 0, 64, 4 << 20)];
        let mut tiny_dirty = TuningConfig::lustre_default();
        tiny_dirty.osc_max_dirty_mb = 1;
        let r = sim.run(mk(), &tiny_dirty, 17);
        assert!(r.dirty_stall_secs > 0.0);
        let big = TuningConfig::lustre_default();
        let r2 = sim.run(mk(), &big, 17);
        assert!(r2.dirty_stall_secs <= r.dirty_stall_secs);
    }
}

#[cfg(test)]
mod proptests;
