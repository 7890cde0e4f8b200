//! Figure 5: clustering cost per similarity metric (BBV-only, LDV-only and
//! combined signature vectors) at the paper's maxK.

use barrierpoint::{
    profile_application_with, select_barrierpoints, ExecutionPolicy, SignatureConfig,
    SimPointConfig,
};
use bp_bench::ExperimentConfig;
use bp_workload::Benchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let workload = config.workload(Benchmark::NpbLu, config.cores_small);
    let profile = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    for variant in SignatureConfig::figure5_variants() {
        group.bench_with_input(
            BenchmarkId::new("cluster_npb_lu", variant.to_string()),
            &variant,
            |b, variant| {
                b.iter(|| {
                    select_barrierpoints(&profile, variant, &SimPointConfig::paper()).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
