//! Golden bit-identity of the SimPoint selection.
//!
//! Pins, for every kernel of the suite at scale 0.02 with 8 threads, the
//! FNV-1a of the serialized `Clustering` that `cluster_regions` returns for
//! the combined (BBV + LDV) signature vectors, under the paper's SimPoint
//! configuration and under `maxK = 5`.  The constants were captured before
//! the clustering stage learned to work on distinct signature vectors; a
//! performance change must leave every one of them untouched.

use barrierpoint::{profile_application_with, ExecutionPolicy, SignatureConfig, SimPointConfig};
use bp_clustering::cluster_regions;
use bp_workload::{Benchmark, FingerprintHasher, WorkloadConfig};

const THREADS: usize = 8;
const SCALE: f64 = 0.02;

/// `(kernel, paper-config digest, maxK = 5 digest)`.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("parsec-bodytrack", 0x1977_b928_522e_72e6, 0xd360_439c_144d_4708),
    ("npb-bt", 0xfa16_9561_9b0e_09ea, 0xa4ae_2a0b_e9d5_da53),
    ("npb-cg", 0xf0b7_f5a2_5ac2_3795, 0x4d8b_2a44_e7ef_b9e5),
    ("npb-ft", 0x4cae_90d9_d147_f57b, 0xe3c5_b7d7_28ac_0154),
    ("npb-is", 0x48b4_cefa_b428_d5f4, 0x4623_92be_9c61_5011),
    ("npb-lu", 0x8896_3957_cfca_f78f, 0xfefb_b877_02fc_e23c),
    ("npb-mg", 0xcce3_5ce1_dba4_4360, 0xab9f_0873_6bbd_46a6),
    ("npb-sp", 0x4d52_4c5b_6fd1_6563, 0xfc02_a4d3_17ed_353b),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

#[test]
fn simpoint_clusterings_match_golden_digests() {
    let mut actual = Vec::new();
    for &benchmark in Benchmark::all() {
        let workload = benchmark.build(&WorkloadConfig::new(THREADS).with_scale(SCALE));
        let profile = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
        let vectors = profile.assemble_vectors(&SignatureConfig::combined());
        let digest =
            |config: &SimPointConfig| fnv1a(&serde::to_vec(&cluster_regions(&vectors, config)));
        actual.push((
            benchmark.name(),
            digest(&SimPointConfig::paper()),
            digest(&SimPointConfig::paper().with_max_k(5)),
        ));
    }
    assert_eq!(actual, GOLDEN);
}
