//! Table III: end-to-end barrierpoint selection (profile + cluster + pick
//! representatives and multipliers) per benchmark.

use barrierpoint::{
    profile_application_with, select_barrierpoints, ExecutionPolicy, SignatureConfig,
    SimPointConfig,
};
use bp_bench::ExperimentConfig;
use bp_workload::Benchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let mut group = c.benchmark_group("table3");
    group.sample_size(10);
    for bench in [Benchmark::NpbIs, Benchmark::NpbCg, Benchmark::NpbMg] {
        group.bench_with_input(BenchmarkId::new("select", bench.name()), &bench, |b, &bench| {
            let workload = config.workload(bench, config.cores_small);
            b.iter(|| {
                let profile =
                    profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
                select_barrierpoints(
                    &profile,
                    &SignatureConfig::combined(),
                    &SimPointConfig::paper(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
