//! Cross-crate integration: simulator ⇄ Darshan ⇄ Analysis Agent
//! consistency (conservation laws and classification stability).

use darshan::counters::Counter;
use darshan::{tables::to_tables, Collector};
use llmsim::{ModelProfile, SimLlm};
use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
use workloads::WorkloadKind;

fn trace(kind: WorkloadKind, scale: f64) -> (pfs::RunResult, darshan::DarshanLog) {
    let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
    let w = kind.spec().scaled(scale);
    let mut c = Collector::new(kind.label(), sim.topology().total_ranks());
    let r = sim.run_traced_faulted(
        w.generate(sim.topology(), 1),
        &TuningConfig::lustre_default(),
        1,
        None,
        &mut c,
    );
    (r, c.finish())
}

#[test]
fn darshan_conserves_bytes() {
    for kind in [
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench8K,
        WorkloadKind::Io500,
        WorkloadKind::Macsio512K,
    ] {
        let (run, log) = trace(kind, 0.1);
        let traced_written: i64 = log
            .records
            .iter()
            .map(|r| r.get(Counter::BytesWritten))
            .sum();
        let traced_read: i64 = log.records.iter().map(|r| r.get(Counter::BytesRead)).sum();
        assert_eq!(
            traced_written as u64,
            run.bytes_written,
            "{}: written mismatch",
            kind.label()
        );
        assert_eq!(
            traced_read as u64,
            run.bytes_read,
            "{}: read mismatch",
            kind.label()
        );
    }
}

#[test]
fn analysis_classification_is_stable_across_scales_and_configs() {
    use agents::WorkloadClass;
    let expectations = [
        (WorkloadKind::Ior16M, WorkloadClass::LargeSequentialShared),
        (WorkloadKind::Ior64K, WorkloadClass::RandomSmallShared),
        (
            WorkloadKind::MdWorkbench2K,
            WorkloadClass::MetadataSmallFiles,
        ),
        (WorkloadKind::Io500, WorkloadClass::MixedMultiPhase),
        (WorkloadKind::Macsio512K, WorkloadClass::SmallObjectDumps),
    ];
    for (kind, expected) in expectations {
        for scale in [0.1, 0.3] {
            let (_, log) = trace(kind, scale);
            let (header, tables) = to_tables(&log);
            let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
            let mut agent = agents::AnalysisAgent::new(&mut backend);
            let report = agent.initial_report(&header, &tables);
            assert_eq!(
                report.classify(),
                expected,
                "{} at scale {scale}: {report:?}",
                kind.label()
            );
        }
    }
}

#[test]
fn runtime_header_tracks_wall_time() {
    let (run, log) = trace(WorkloadKind::Amrex, 0.25);
    assert!(log.header.runtime_secs > 0.0);
    // Darshan sees the last application op; writeback drain may extend the
    // engine's wall beyond it, never the reverse.
    assert!(log.header.runtime_secs <= run.wall_secs + 1e-9);
    assert!(log.header.runtime_secs > run.wall_secs * 0.5);
}

#[test]
fn shared_file_detection_matches_workload_structure() {
    // IOR: one shared file. MDWorkbench: none.
    let (_, ior_log) = trace(WorkloadKind::Ior16M, 0.1);
    let (header, tables) = to_tables(&ior_log);
    let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
    let report = agents::AnalysisAgent::new(&mut backend).initial_report(&header, &tables);
    assert_eq!(report.shared_file_count, 1);
    assert_eq!(report.file_count, 1);

    let (_, mdw_log) = trace(WorkloadKind::MdWorkbench8K, 0.1);
    let (header, tables) = to_tables(&mdw_log);
    let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 2);
    let report = agents::AnalysisAgent::new(&mut backend).initial_report(&header, &tables);
    assert_eq!(report.shared_file_count, 0);
    assert!(report.file_count > 100);
}

/// Simulator outputs pinned bit for bit, so a change inside the engine
/// (page cache, RPC or lock paths) that shifts every run alike still fails
/// here. Each case runs under the default config and under the registry
/// minimum `llite.max_cached_mb = 64`; every client's footprint exceeds
/// 64 MB, so the second run evicts.
#[test]
fn simulator_outputs_are_pinned_across_cache_budgets() {
    use workloads::mdworkbench::MdWorkbench;
    use workloads::Workload;
    // MDWorkbench keeps one directory of files per rank resident at a time;
    // at any `scaled()` factor cheap enough here that stays under 64 MB per
    // client, so the case widens the directory instead: 120 one-chunk files
    // x 10 ranks is 75 MB.
    let mdw = MdWorkbench {
        dirs_per_rank: 1,
        files_per_dir: 120,
        rounds: 1,
        ..MdWorkbench::mdw_2k()
    };
    let cases: [(ClusterSpec, Box<dyn Workload>); 4] = [
        (
            ClusterSpec::scaled(200, 8),
            WorkloadKind::Ior16M.spec().scaled(0.05),
        ),
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::Ior64K.spec().scaled(0.1),
        ),
        (ClusterSpec::paper_cluster(), Box::new(mdw)),
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::Io500.spec().scaled(0.2),
        ),
    ];
    // Per case, default then 64 MB: (wall_secs, cache_hit_ratio,
    // dirty_stall_secs) as bits, bulk_rpcs, readahead_bytes.
    #[rustfmt::skip]
    const PINNED: [(u64, u64, u64, u64, u64); 8] = [
        (0x400cb7c462a396d1, 0x3fe9d47ae147ae14, 0x40719a47d6d31398, 3845, 0x1c00000),
        (0x40186bacc13ea42b, 0x3f9d70a3d70a3d71, 0x40719a47d6d31398, 6407, 0x6300000),
        (0x40146a45d6230cca, 0x3f567ce349b0167d, 0x4053951edd8a4e17, 19675, 0x100000),
        (0x40146a45d6230cca, 0x3f567ce349b0167d, 0x4053951edd8a4e17, 19675, 0x100000),
        (0x3fdb87d822e3a726, 0x3ff0000000000000, 0x0, 6000, 0x0),
        (0x3fde175802c2ca62, 0x3feb0a3d70a3d70a, 0x0, 6930, 0x0),
        (0x3ffe7e3e2235c61c, 0x3fef388d5fda67db, 0x4030b194737b3300, 7153, 0x12300000),
        (0x400904cce91eb46d, 0x3fe5038c9867c7b5, 0x4030b194737b3300, 11363, 0x26100000),
    ];
    let mut small = TuningConfig::lustre_default();
    small.llite_max_cached_mb = 64;
    let configs = [TuningConfig::lustre_default(), small];
    let mut pinned = PINNED.iter();
    let mut evicted = false;
    for (topo, w) in cases {
        let sim = PfsSimulator::new(topo);
        let mut hit = [0.0; 2];
        for (i, cfg) in configs.iter().enumerate() {
            let r = sim.run(w.generate(sim.topology(), 3), cfg, 3);
            hit[i] = r.cache_hit_ratio;
            let got = (
                r.wall_secs.to_bits(),
                r.cache_hit_ratio.to_bits(),
                r.dirty_stall_secs.to_bits(),
                r.bulk_rpcs,
                r.readahead_bytes,
            );
            let want = *pinned.next().expect("one pin per run");
            assert_eq!(
                got,
                want,
                "{} at max_cached_mb {}: {r:?}",
                w.name(),
                cfg.llite_max_cached_mb
            );
        }
        evicted |= hit[1] < hit[0];
    }
    assert!(evicted, "no 64 MB run lost cache hits to eviction");
}

/// Simulator outputs pinned bit for bit on the engine's large-transfer
/// paths: whole-word page-cache reads and whole-RPC writeback (a tuned
/// IOR_16M), extents longer than one RPC but not a whole number of RPCs,
/// whose sub-RPC tails stay buffered, and a sequential read-back whose
/// readahead hits land in a full 64 MB cache mid-read and evict.
#[test]
fn simulator_outputs_are_pinned_on_large_transfer_paths() {
    use workloads::ior::{Ior, Pattern};
    use workloads::Workload;
    let mut tuned = TuningConfig::lustre_default();
    tuned.stripe_count = -1;
    tuned.stripe_size = 16 << 20;
    tuned.osc_max_pages_per_rpc = 1024;
    tuned.osc_max_dirty_mb = 256;
    let mut tuned_small = tuned.clone();
    tuned_small.llite_max_cached_mb = 64;
    let mut striped = TuningConfig::lustre_default();
    striped.stripe_count = 4;
    striped.stripe_size = 4 << 20;
    let mut small = TuningConfig::lustre_default();
    small.llite_max_cached_mb = 64;
    let tails = Ior {
        label: "IOR_1536K".into(),
        transfer: 3 << 19,
        block: 24 << 20,
        blocks_per_rank: 1,
        pattern: Pattern::Sequential,
        read_phase: true,
        task_shift: 10,
        file_per_process: false,
    };
    let cases: [(ClusterSpec, Box<dyn Workload>, TuningConfig); 4] = [
        (
            ClusterSpec::scaled(200, 8),
            WorkloadKind::Ior16M.spec().scaled(0.1),
            tuned,
        ),
        (
            ClusterSpec::scaled(200, 8),
            WorkloadKind::Ior16M.spec().scaled(0.1),
            tuned_small,
        ),
        (ClusterSpec::paper_cluster(), Box::new(tails), striped),
        (
            ClusterSpec::paper_cluster(),
            Box::new(Ior::ior_fpp(4 << 20, 32 << 20)),
            small,
        ),
    ];
    // Per case: (wall_secs, cache_hit_ratio, dirty_stall_secs) as bits,
    // bulk_rpcs, readahead_bytes.
    #[rustfmt::skip]
    const PINNED: [(u64, u64, u64, u64, u64); 4] = [
        (0x4009fde834761824, 0x3fe999999999999a, 0x0, 1920, 0x0),
        (0x4011514c6c032238, 0x0, 0x0, 3200, 0x0),
        (0x3fe87dcb46dd2b8c, 0x3f4b4e81b4e81b4f, 0x40200be9d3b288ed, 3111, 0x100000),
        (0x3ff335c3db6a2719, 0x3fe7000000000000, 0x401d06af60804868, 3200, 0x47e00000),
    ];
    for ((topo, w, cfg), want) in cases.into_iter().zip(PINNED) {
        let sim = PfsSimulator::new(topo);
        let r = sim.run(w.generate(sim.topology(), 5), &cfg, 5);
        let got = (
            r.wall_secs.to_bits(),
            r.cache_hit_ratio.to_bits(),
            r.dirty_stall_secs.to_bits(),
            r.bulk_rpcs,
            r.readahead_bytes,
        );
        assert_eq!(got, want, "{}: {r:?}", w.name());
    }
}

/// FNV-1a of a Darshan log: the rendered header, then every record in log
/// order as its module name, file id, rank, counters and float counters'
/// bits.
fn log_digest(log: &darshan::DarshanLog) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    eat(&mut h, log.header.render().as_bytes());
    for r in &log.records {
        eat(&mut h, r.module.name().as_bytes());
        eat(&mut h, &r.file.0.to_le_bytes());
        eat(&mut h, &r.rank.to_le_bytes());
        for c in &r.counters {
            eat(&mut h, &c.to_le_bytes());
        }
        for f in &r.fcounters {
            eat(&mut h, &f.to_bits().to_le_bytes());
        }
    }
    h
}

/// Darshan logs pinned bit for bit, so a change to the collector's record
/// routing, record order or variance reduction, or to the engine paths
/// that feed it, fails here even when it shifts every log alike. The
/// cases cover a metadata workload that unlinks every file, a mixed
/// multi-phase one, a shared file, file-per-process transfers, and
/// unlinks against a 64 MB cache that evicts.
#[test]
fn darshan_logs_are_pinned() {
    use workloads::ior::Ior;
    use workloads::mdworkbench::MdWorkbench;
    use workloads::Workload;
    let wide = MdWorkbench {
        dirs_per_rank: 1,
        files_per_dir: 120,
        rounds: 1,
        ..MdWorkbench::mdw_2k()
    };
    let mut small = TuningConfig::lustre_default();
    small.llite_max_cached_mb = 64;
    let default = TuningConfig::lustre_default();
    let cases: [(ClusterSpec, Box<dyn Workload>, &TuningConfig); 5] = [
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::MdWorkbench2K.spec().scaled(0.1),
            &default,
        ),
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::Io500.spec().scaled(0.1),
            &default,
        ),
        (
            ClusterSpec::scaled(200, 8),
            WorkloadKind::Ior16M.spec().scaled(0.05),
            &default,
        ),
        (
            ClusterSpec::paper_cluster(),
            Box::new(Ior::ior_fpp(4 << 20, 32 << 20)),
            &default,
        ),
        (ClusterSpec::paper_cluster(), Box::new(wide), &small),
    ];
    // Per case: (records, digest).
    const PINNED: [(usize, u64); 5] = [
        (6000, 0x8b18418cdf6bb915),
        (1300, 0x2bd354be86c83df9),
        (200, 0x9b646845cd9c04bd),
        (100, 0xf42e527a84ef8aa2),
        (6000, 0x1e3734f7f5f2469c),
    ];
    let got: Vec<(usize, u64)> = cases
        .into_iter()
        .map(|(topo, w, cfg)| {
            let sim = PfsSimulator::new(topo);
            let mut c = Collector::new(w.name(), sim.topology().total_ranks());
            sim.run_traced_faulted(w.generate(sim.topology(), 1), cfg, 1, None, &mut c);
            let log = c.finish();
            (log.records.len(), log_digest(&log))
        })
        .collect();
    assert_eq!(got, PINNED, "(records, digest) per case, in order");
}
