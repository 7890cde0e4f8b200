//! The naive LRU-stack reference the shipped trace walks are tested against:
//! the definitions behind Section III-A's LDVs and Section IV's MRU warmup
//! payloads, walked region by region (every thread's trace of region 0,
//! then of region 1, ...) over explicit per-thread lists and nothing else.
//!
//! * A thread's LRU stack is a `Vec` of lines, most recent last.  An
//!   access's stack distance is the line's position from the top (the
//!   number of distinct lines touched since its previous access); a first
//!   access has none.
//! * The payload at capacity `c` is a dedicated list of at most `c` lines,
//!   least recent first, with the paper's sticky dirty bit: a written line
//!   stays dirty while it is in the list, and an eviction loses the bit.
//!
//! Every access costs a scan of a list, so this is for test-sized
//! workloads only.

#![allow(dead_code)] // each test crate uses its own part

use bp_signature::{Bbv, Ldv, RegionSignature};
use bp_warmup::MruWarmupData;
use bp_workload::{BlockExecution, Workload};
use std::collections::HashMap;

/// One thread's MRU payload: `(line, dirty)`, least recent first.
pub type Payload = Vec<(u64, bool)>;

/// Every block execution of `thread` in `region`, in trace order.
fn each_block<W: Workload + ?Sized>(
    workload: &W,
    region: usize,
    thread: usize,
    mut visit: impl FnMut(&BlockExecution),
) {
    let mut exec = BlockExecution::default();
    let mut trace = workload.region_trace(region, thread);
    while trace.next_into(&mut exec) {
        visit(&exec);
    }
}

/// Moves `line` to the top of `stack`, returning its distance from the top
/// before the move (`None` when it was not on the stack).
pub fn touch(stack: &mut Vec<u64>, line: u64) -> Option<u64> {
    let distance = stack.iter().rposition(|&l| l == line).map(|at| {
        stack.remove(at);
        (stack.len() - at) as u64
    });
    stack.push(line);
    distance
}

/// Every region's signature, with each thread's LRU stack carried across
/// regions: what the pipeline's profile must equal.
pub fn profile<W: Workload + ?Sized>(workload: &W) -> Vec<RegionSignature> {
    let mut stacks = vec![Vec::new(); workload.num_threads()];
    (0..workload.num_regions())
        .map(|region| {
            let (mut bbvs, mut ldvs, mut instructions) = (Vec::new(), Vec::new(), Vec::new());
            for (thread, stack) in stacks.iter_mut().enumerate() {
                let mut bbv = Bbv::new(workload.block_table().len());
                let mut ldv = Ldv::new();
                let mut retired = 0;
                each_block(workload, region, thread, |exec| {
                    bbv.record(exec.block, exec.instructions);
                    retired += u64::from(exec.instructions);
                    for access in &exec.accesses {
                        ldv.record(touch(stack, access.line()));
                    }
                });
                bbvs.push(bbv);
                ldvs.push(ldv);
                instructions.push(retired);
            }
            RegionSignature::new(bbvs, ldvs, instructions)
        })
        .collect()
}

/// One dedicated MRU list per thread at one capacity.
#[derive(Debug, Clone)]
pub struct MruLists {
    lists: Vec<Payload>,
    capacity: usize,
}

impl MruLists {
    /// Empty lists for `threads` threads, each holding at most `capacity`
    /// lines (at least one).
    pub fn new(threads: usize, capacity: u64) -> Self {
        Self { lists: vec![Vec::new(); threads], capacity: capacity.max(1) as usize }
    }

    /// Records one access of `thread`.
    pub fn record(&mut self, thread: usize, line: u64, is_write: bool) {
        let list = &mut self.lists[thread];
        let dirty = match list.iter().rposition(|&(l, _)| l == line) {
            Some(at) => list.remove(at).1 || is_write,
            None => is_write,
        };
        list.push((line, dirty));
        if list.len() > self.capacity {
            list.remove(0);
        }
    }

    /// Every thread's payload as of now.
    pub fn payloads(&self) -> &[Payload] {
        &self.lists
    }
}

/// The per-thread payloads at `capacity` of every target boundary the
/// workload reaches (below its region count), duplicates collapsed: the
/// boundary of region `r` holds the accesses of regions `0..r`.
pub fn mru<W: Workload + ?Sized>(
    workload: &W,
    targets: &[usize],
    capacity: u64,
) -> HashMap<usize, Vec<Payload>> {
    let mut wanted: Vec<usize> =
        targets.iter().copied().filter(|&target| target < workload.num_regions()).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut lists = MruLists::new(workload.num_threads(), capacity);
    let mut walked = 0;
    let mut result = HashMap::with_capacity(wanted.len());
    for boundary in wanted {
        for region in walked..boundary {
            for thread in 0..workload.num_threads() {
                each_block(workload, region, thread, |exec| {
                    for access in &exec.accesses {
                        lists.record(thread, access.line(), access.kind.is_write());
                    }
                });
            }
        }
        walked = boundary;
        result.insert(boundary, lists.payloads().to_vec());
    }
    result
}

/// Assembled warmup data in the form [`mru`] returns.
pub fn payloads(assembled: &HashMap<usize, MruWarmupData>) -> HashMap<usize, Vec<Payload>> {
    assembled.iter().map(|(&region, data)| (region, data.per_thread().to_vec())).collect()
}
