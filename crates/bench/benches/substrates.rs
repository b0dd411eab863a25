//! Criterion microbenchmarks for the substrate layers: simulator engine
//! throughput per workload class, Darshan collection overhead, RAG retrieval
//! and extraction, and rule-set operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmsim::{ModelProfile, SimLlm};
use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
use ragx::RagExtractor;
use std::hint::black_box;
use workloads::WorkloadKind;

fn bench_simulator(c: &mut Criterion) {
    let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
    let cfg = TuningConfig::lustre_default();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for kind in [
        WorkloadKind::Ior16M,
        WorkloadKind::Ior64K,
        WorkloadKind::MdWorkbench8K,
        WorkloadKind::Macsio512K,
    ] {
        let spec = kind.spec().scaled(0.1);
        group.bench_function(kind.label(), |b| {
            b.iter_batched(
                || spec.generate(sim.topology(), 1),
                |streams| black_box(sim.run(streams, &cfg, 1)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_darshan(c: &mut Criterion) {
    let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
    let cfg = TuningConfig::lustre_default();
    let spec = WorkloadKind::Ior16M.spec().scaled(0.1);
    c.bench_function("darshan/collect+tables", |b| {
        b.iter_batched(
            || spec.generate(sim.topology(), 1),
            |streams| {
                let mut collector = darshan::Collector::new("bench", 50);
                sim.run_traced_faulted(streams, &cfg, 1, None, &mut collector);
                let log = collector.finish();
                black_box(darshan::tables::to_tables(&log))
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_rag(c: &mut Criterion) {
    c.bench_function("rag/build_index", |b| {
        b.iter(|| black_box(RagExtractor::standard()))
    });
    let extractor = RagExtractor::standard();
    c.bench_function("rag/retrieve_one_param", |b| {
        b.iter(|| black_box(extractor.retrieve_section("llite.statahead_max")))
    });
    c.bench_function("rag/full_extraction", |b| {
        b.iter(|| {
            let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
            black_box(extractor.extract(&mut backend))
        })
    });
}

fn bench_rules(c: &mut Criterion) {
    use agents::{ContextTag, Guidance, Rule, RuleSet};
    let tags = [ContextTag::LargeSequentialWrites, ContextTag::SharedFile];
    c.bench_function("rules/merge_and_match", |b| {
        b.iter(|| {
            let mut rs = RuleSet::new();
            for i in 0..50i64 {
                rs.merge(vec![Rule::new(
                    "osc.max_rpcs_in_flight",
                    Guidance::RaiseToAtLeast(8 + i),
                    &tags,
                )]);
            }
            black_box(rs.matching(&tags).len())
        })
    });
}

criterion_group!(
    benches,
    bench_simulator,
    bench_darshan,
    bench_rag,
    bench_rules
);
criterion_main!(benches);
