use crate::access::{AccessKind, MemoryAccess};
use crate::block::BasicBlockId;
use crate::phase::{private_base, shared_base, AccessPattern, Phase, PhaseBlock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One dynamic execution of a basic block together with the memory accesses
/// it performed.
///
/// The default value is an empty buffer for [`RegionTrace::next_into`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockExecution {
    /// Which static basic block executed.
    pub block: BasicBlockId,
    /// Total instructions retired by this execution (memory operations included).
    pub instructions: u32,
    /// Memory references issued by this execution, in program order.
    pub accesses: Vec<MemoryAccess>,
}

/// Iterator over the block executions one thread performs in one
/// inter-barrier region.
///
/// The stream is fully deterministic given the workload seed, the region
/// index and the thread id, so repeated traversals (profiling, timing
/// simulation, warmup collection) observe identical behaviour.
///
/// [`next_into`](RegionTrace::next_into) is the generator; it refills a
/// caller-owned [`BlockExecution`] so a walk allocates nothing per block.
/// The [`Iterator`] impl wraps it with a fresh, exactly sized buffer per item.
#[derive(Debug)]
pub struct RegionTrace {
    blocks: Arc<[PhaseBlock]>,
    cursors: Vec<PatternCursor>,
    iterations: u64,
    iteration: u64,
    block_idx: usize,
}

impl RegionTrace {
    /// Builds the trace of `thread` (out of `threads`) running `iterations`
    /// traversals of `phase`, using `seed` for any randomized pattern.
    pub(crate) fn new(
        phase: &TracePhase,
        iterations: u64,
        threads: usize,
        thread: usize,
        seed: u64,
    ) -> Self {
        let cursors = phase
            .patterns
            .iter()
            .enumerate()
            .map(|(idx, pattern)| {
                PatternCursor::new(
                    pattern,
                    threads,
                    thread,
                    seed.wrapping_add(idx as u64 * 0x9e37_79b9),
                )
            })
            .collect();
        Self { blocks: Arc::clone(&phase.blocks), cursors, iterations, iteration: 0, block_idx: 0 }
    }

    /// Creates an empty trace (no block executions). Used for threads that do
    /// not participate in a region.
    pub fn empty() -> Self {
        Self {
            blocks: Arc::new([]),
            cursors: Vec::new(),
            iterations: 0,
            iteration: 0,
            block_idx: 0,
        }
    }

    /// Total number of block executions this trace will yield.
    pub fn total_block_executions(&self) -> u64 {
        self.iterations * self.blocks.len() as u64
    }

    /// The static block of the next execution, or `None` once exhausted.
    fn pending(&self) -> Option<&PhaseBlock> {
        if self.iteration < self.iterations {
            self.blocks.get(self.block_idx)
        } else {
            None
        }
    }

    /// Writes the next block execution into `exec`, replacing its block,
    /// instruction count and accesses (the access buffer is cleared and
    /// refilled, keeping its allocation).  Returns `false`, leaving `exec`
    /// untouched, once the trace is exhausted.
    ///
    /// ```
    /// use bp_workload::{Benchmark, BlockExecution, Workload, WorkloadConfig};
    ///
    /// let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
    /// let mut exec = BlockExecution::default();
    /// let (mut trace, mut blocks) = (w.region_trace(1, 0), 0);
    /// while trace.next_into(&mut exec) {
    ///     blocks += 1;
    /// }
    /// assert_eq!(blocks, w.region_trace(1, 0).count());
    /// ```
    pub fn next_into(&mut self, exec: &mut BlockExecution) -> bool {
        let Some(pb) = self.pending().cloned() else { return false };
        let cursor = &mut self.cursors[pb.pattern];
        exec.block = pb.block;
        exec.instructions = pb.instructions + pb.accesses;
        exec.accesses.clear();
        exec.accesses.extend((0..pb.accesses).map(|_| cursor.next_access()));
        self.block_idx += 1;
        if self.block_idx >= self.blocks.len() {
            self.block_idx = 0;
            self.iteration += 1;
        }
        true
    }
}

impl Iterator for RegionTrace {
    type Item = BlockExecution;

    fn next(&mut self) -> Option<BlockExecution> {
        let capacity = self.pending()?.accesses as usize;
        let mut exec =
            BlockExecution { accesses: Vec::with_capacity(capacity), ..Default::default() };
        self.next_into(&mut exec).then_some(exec)
    }
}

/// A phase as its traces consume it: the access patterns with the
/// workload's working-set scale applied, and the loop body, shared by every
/// `(region, thread)` trace of the phase instead of copied into each.
#[derive(Debug, Clone)]
pub(crate) struct TracePhase {
    patterns: Vec<AccessPattern>,
    blocks: Arc<[PhaseBlock]>,
}

impl TracePhase {
    pub(crate) fn new(phase: &Phase, working_set_scale: f64) -> Self {
        let patterns = if (working_set_scale - 1.0).abs() > f64::EPSILON {
            phase.patterns.iter().map(|p| p.with_scaled_working_set(working_set_scale)).collect()
        } else {
            phase.patterns.clone()
        };
        Self { patterns, blocks: phase.blocks.as_slice().into() }
    }
}

/// `(a + b) % m` for `a < m` and `b <= m`, without a division.
fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    let sum = a + b;
    if sum >= m {
        sum - m
    } else {
        sum
    }
}

/// A pattern's address and write rule with its constants resolved for one
/// thread: buffer base, wrap length and write period are fixed per cursor.
#[derive(Debug, Clone, Copy)]
enum Generator {
    /// Walk `[base, base + wrap)` in `stride` steps; the last access of
    /// every `period` is a write (`u64::MAX`: never).
    Stream { base: u64, stride: u64, wrap: u64, period: u64 },
    /// Uniform 8-byte-aligned offsets below `span` from `base`.
    Random { base: u64, span: u64, write_fraction: f64 },
    /// Groups of three over a chunk wrapping at `wrap`: the centre, the
    /// neighbour `ahead` bytes after it, the neighbour `behind` bytes before
    /// it (as a forward distance); the centre then advances 8 bytes.
    Stencil { base: u64, wrap: u64, ahead: u64, behind: u64, write_fraction: f64 },
    /// Read a uniform offset below `span` from `base`, then write it back.
    Reduce { base: u64, span: u64 },
}

/// Per-pattern address generation state.
#[derive(Debug)]
struct PatternCursor {
    generator: Generator,
    rng: SmallRng,
    /// Byte offset of the next sequential access (streaming patterns).
    position: u64,
    /// Position within the pattern's access cycle (the write period of a
    /// stream, the three accesses of a stencil group, a reduction's
    /// read/write pair).
    step: u64,
    /// Last generated address (used by read-modify-write patterns).
    last_addr: u64,
}

impl PatternCursor {
    fn new(pattern: &AccessPattern, threads: usize, thread: usize, seed: u64) -> Self {
        // The `[base, base + len)` byte range this thread addresses for a
        // thread-chunked shared buffer of `bytes` bytes.
        let chunk = |id: u32, bytes: u64| {
            let len = (bytes / threads as u64).max(64);
            (shared_base(id) + len * thread as u64, len)
        };
        let generator = match *pattern {
            AccessPattern::PrivateStream { bytes, stride } => Generator::Stream {
                base: private_base(thread),
                stride,
                wrap: bytes.max(stride),
                period: 4,
            },
            AccessPattern::PrivateRandom { bytes, write_fraction } => Generator::Random {
                base: private_base(thread),
                span: bytes.max(8),
                write_fraction: write_fraction.clamp(0.0, 1.0),
            },
            AccessPattern::SharedStream { id, bytes, stride, write_fraction, chunked } => {
                let (base, len) =
                    if chunked { chunk(id, bytes) } else { (shared_base(id), bytes.max(64)) };
                let period = if write_fraction <= 0.0 {
                    u64::MAX
                } else {
                    (1.0 / write_fraction.clamp(1e-9, 1.0)).round() as u64
                };
                Generator::Stream { base, stride, wrap: len.max(stride), period }
            }
            AccessPattern::SharedRandom { id, bytes, write_fraction } => Generator::Random {
                base: shared_base(id),
                span: bytes.max(8),
                write_fraction: write_fraction.clamp(0.0, 1.0),
            },
            AccessPattern::Stencil { id, bytes, plane, write_fraction } => {
                let (base, len) = chunk(id, bytes);
                let wrap = len.max(8);
                Generator::Stencil {
                    base,
                    wrap,
                    ahead: plane % wrap,
                    behind: len - plane % len.max(1),
                    write_fraction: write_fraction.clamp(0.0, 1.0),
                }
            }
            AccessPattern::ReduceShared { id, bytes } => {
                Generator::Reduce { base: shared_base(id), span: bytes.max(8) }
            }
        };
        Self { generator, rng: SmallRng::seed_from_u64(seed), position: 0, step: 0, last_addr: 0 }
    }

    /// Advances the access cycle of length `period`; returns the step the
    /// current access occupies.
    fn advance(&mut self, period: u64) -> u64 {
        let step = self.step;
        self.step = if step + 1 == period { 0 } else { step + 1 };
        step
    }

    // Forced inline: `next_into` is inlined into every trace walk, which
    // otherwise leaves this out of line at one call per access (measured
    // 1.8x slower trace generation).
    #[inline(always)]
    fn next_access(&mut self) -> MemoryAccess {
        match self.generator {
            Generator::Stream { base, stride, wrap, period } => {
                let addr = base + self.position;
                self.position = add_mod(self.position, stride, wrap);
                let step = self.advance(period);
                let kind = if period != u64::MAX && step == period - 1 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                MemoryAccess { addr, kind, size: 8 }
            }
            Generator::Random { base, span, write_fraction } => {
                let off = self.rng.gen_range(0..span) & !7;
                let kind = if self.rng.gen_bool(write_fraction) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                MemoryAccess { addr: base + off, kind, size: 8 }
            }
            Generator::Stencil { base, wrap, ahead, behind, write_fraction } => {
                let (addr, kind) = match self.advance(3) {
                    0 => {
                        let kind = if self.rng.gen_bool(write_fraction) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (base + self.position, kind)
                    }
                    1 => (base + add_mod(self.position, ahead, wrap), AccessKind::Read),
                    _ => {
                        let addr = base + add_mod(self.position, behind, wrap);
                        // Centre position advances once per 3-access group.
                        self.position = add_mod(self.position, 8, wrap);
                        (addr, AccessKind::Read)
                    }
                };
                MemoryAccess { addr, kind, size: 8 }
            }
            Generator::Reduce { base, span } => {
                if self.advance(2) == 0 {
                    let off = self.rng.gen_range(0..span) & !7;
                    self.last_addr = base + off;
                    MemoryAccess { addr: self.last_addr, kind: AccessKind::Read, size: 8 }
                } else {
                    MemoryAccess { addr: self.last_addr, kind: AccessKind::Write, size: 8 }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseBlock;

    fn test_phase() -> Phase {
        Phase {
            name: "t".into(),
            patterns: vec![
                AccessPattern::PrivateStream { bytes: 4096, stride: 64 },
                AccessPattern::SharedRandom { id: 0, bytes: 1 << 16, write_fraction: 0.25 },
            ],
            blocks: vec![
                PhaseBlock { block: BasicBlockId(0), instructions: 10, accesses: 4, pattern: 0 },
                PhaseBlock { block: BasicBlockId(1), instructions: 6, accesses: 2, pattern: 1 },
            ],
            iterations: 16,
            divide_by_threads: true,
        }
    }

    fn trace(scale: f64, threads: usize, thread: usize, seed: u64) -> RegionTrace {
        let phase = test_phase();
        let iterations = phase.iterations_per_thread(scale, threads);
        RegionTrace::new(&TracePhase::new(&phase, 1.0), iterations, threads, thread, seed)
    }

    #[test]
    fn trace_is_deterministic() {
        let a: Vec<_> = trace(1.0, 4, 1, 42).collect();
        let b: Vec<_> = trace(1.0, 4, 1, 42).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_changes_random_pattern() {
        let a: Vec<_> = trace(1.0, 4, 1, 42).collect();
        let b: Vec<_> = trace(1.0, 4, 1, 43).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn execution_counts_match_iterations() {
        let trace = trace(1.0, 4, 0, 1);
        let expected = trace.total_block_executions();
        assert_eq!(trace.count() as u64, expected);
        // 16 iterations / 4 threads = 4 per thread, 2 blocks each.
        assert_eq!(expected, 8);
    }

    #[test]
    fn instructions_include_memory_ops() {
        let exec = trace(1.0, 4, 0, 1).next().unwrap();
        assert_eq!(exec.instructions, 14);
        assert_eq!(exec.accesses.len(), 4);
    }

    #[test]
    fn private_addresses_disjoint_across_threads() {
        let a: Vec<_> = trace(1.0, 4, 0, 42)
            .flat_map(|e| e.accesses)
            .filter(|a| a.addr < crate::phase::SHARED_BASE)
            .map(|a| a.addr)
            .collect();
        let b: Vec<_> = trace(1.0, 4, 1, 42)
            .flat_map(|e| e.accesses)
            .filter(|a| a.addr < crate::phase::SHARED_BASE)
            .map(|a| a.addr)
            .collect();
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn empty_trace_yields_nothing() {
        assert_eq!(RegionTrace::empty().count(), 0);
    }
}
