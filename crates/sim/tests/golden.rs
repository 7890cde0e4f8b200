//! Golden bit-identity of the detailed simulator and the trace feed.
//!
//! Pins, for every kernel of the suite at scale 0.02 on
//! `SimConfig::scaled(8)`, the FNV-1a of the serialized ground-truth
//! `RunMetrics` and a digest of the kernel's complete trace stream (block
//! id, instruction count, and every access's address and kind, region by
//! region and thread by thread).  The constants were captured before the
//! cache hierarchy and the trace feed were optimised; a performance change
//! must leave every one of them untouched.

use bp_sim::{Machine, SimConfig};
use bp_workload::{Benchmark, BlockExecution, FingerprintHasher, Workload, WorkloadConfig};

const THREADS: usize = 8;
const SCALE: f64 = 0.02;

/// `(kernel, run_full digest, trace digest)`.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("parsec-bodytrack", 0xb138_9265_7a5f_ddab, 0xefc1_2c7f_735a_256e),
    ("npb-bt", 0x68ca_3d83_9f4d_354f, 0xd774_3728_203a_61c1),
    ("npb-cg", 0x4f18_02a3_28af_ec93, 0x9163_c404_6f01_9a35),
    ("npb-ft", 0x2efc_b81f_db94_dfa8, 0xdf01_4b28_9213_a01d),
    ("npb-is", 0x8842_c2bc_696b_2512, 0xf427_add9_8883_b03d),
    ("npb-lu", 0x50d8_98d7_8eae_4f09, 0x6d9b_9da1_44ad_dd79),
    ("npb-mg", 0xae4a_c8f6_a2ca_77e3, 0x5ea2_9793_e734_373f),
    ("npb-sp", 0x8f22_b0e5_dab0_6d8a, 0xa007_7d9c_9cff_caa9),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// Digest of every block execution of every `(region, thread)` trace, read
/// through `Iterator::next` or, with one reused buffer, `next_into`.
fn trace_digest(workload: &impl Workload, reuse_buffer: bool) -> u64 {
    let mut hasher = FingerprintHasher::new();
    let mut digest = |exec: &BlockExecution| {
        hasher.write_u64(u64::from(exec.block.0));
        hasher.write_u64(u64::from(exec.instructions));
        for access in &exec.accesses {
            hasher.write_u64(access.addr);
            hasher.write_bytes(&[u8::from(access.kind.is_write())]);
        }
    };
    let mut exec = BlockExecution::default();
    for region in 0..workload.num_regions() {
        for thread in 0..workload.num_threads() {
            let mut trace = workload.region_trace(region, thread);
            if reuse_buffer {
                while trace.next_into(&mut exec) {
                    digest(&exec);
                }
            } else {
                trace.for_each(|exec| digest(&exec));
            }
        }
    }
    hasher.finish()
}

#[test]
fn run_full_and_trace_streams_match_golden_digests() {
    let config = SimConfig::scaled(THREADS);
    let mut actual = Vec::new();
    for &benchmark in Benchmark::all() {
        let workload = benchmark.build(&WorkloadConfig::new(THREADS).with_scale(SCALE));
        let run = Machine::new(&config).run_full(&workload);
        let trace = trace_digest(&workload, false);
        assert_eq!(trace_digest(&workload, true), trace, "{}: next_into stream", benchmark.name());
        actual.push((benchmark.name(), fnv1a(&serde::to_vec(&run)), trace));
    }
    assert_eq!(actual, GOLDEN);
}
