use crate::block::BlockTable;
use crate::region::RegionTrace;
use serde::{Deserialize, Serialize};

/// Configuration shared by all workload models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of application threads (one per simulated core).
    pub threads: usize,
    /// Global scale factor on per-region work.  `1.0` is the crate's nominal
    /// (already laptop-sized) input; smaller values shrink regions further,
    /// which is useful for fast tests.
    pub scale: f64,
    /// Seed for all randomized access patterns.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Creates a configuration for `threads` threads at nominal scale.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a workload needs at least one thread");
        Self { threads, scale: 1.0, seed: 0x5eed_ba5e }
    }

    /// Sets the work scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::new(8)
    }
}

/// A barrier-synchronized multi-threaded workload.
///
/// A workload consists of `num_regions()` inter-barrier regions separated by
/// global synchronization barriers.  All threads execute region `i`, then meet
/// at barrier `i`, then proceed to region `i + 1`.  The number of regions is
/// independent of the thread count, mirroring the OpenMP workloads in the
/// paper (Figure 1).
pub trait Workload: Send + Sync {
    /// Benchmark name, e.g. `"npb-cg"`.
    fn name(&self) -> &str;

    /// Number of application threads.
    fn num_threads(&self) -> usize;

    /// Number of inter-barrier regions (== number of dynamic barriers).
    fn num_regions(&self) -> usize;

    /// Static basic block table; defines BBV dimensionality.
    fn block_table(&self) -> &BlockTable;

    /// The stream of block executions `thread` performs in `region`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `region >= num_regions()` or
    /// `thread >= num_threads()`.
    fn region_trace(&self, region: usize, thread: usize) -> RegionTrace;

    /// Name of the phase executed by `region` (diagnostic only).
    fn region_phase_name(&self, region: usize) -> &str;

    /// A stable fingerprint of everything that determines this workload's
    /// profiling result, used as the content-address of the on-disk profile
    /// cache.
    ///
    /// Two workloads with equal fingerprints must produce bit-identical
    /// [`crate::RegionTrace`] streams for every `(region, thread)` pair.  The
    /// default implementation hashes the structural identity visible through
    /// this trait (name, thread count, region count, block table, per-region
    /// phase names); implementations whose traces depend on state not visible
    /// here — seeds, scale factors, input files — **must** override it and
    /// mix that state in (see `SyntheticWorkload`), or disable caching.
    fn profile_fingerprint(&self) -> u64 {
        let mut hasher = FingerprintHasher::new();
        hasher.write_str(self.name());
        hasher.write_u64(self.num_threads() as u64);
        hasher.write_u64(self.num_regions() as u64);
        for block in self.block_table().iter() {
            hasher.write_str(&block.name);
            hasher.write_u64(u64::from(block.instructions));
        }
        for region in 0..self.num_regions() {
            hasher.write_str(self.region_phase_name(region));
        }
        hasher.finish()
    }
}

/// FNV-1a accumulator for [`Workload::profile_fingerprint`] implementations.
///
/// Deliberately not `std::hash::Hasher`: `DefaultHasher` is allowed to change
/// across Rust releases, which would silently invalidate every on-disk
/// profile cache entry.  FNV-1a is fixed forever.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u64,
}

impl FingerprintHasher {
    /// Creates a hasher with the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Mixes raw bytes into the fingerprint.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a length-delimited string into the fingerprint.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Mixes a `u64` into the fingerprint.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` (by bit pattern) into the fingerprint.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Multiplicative [`Hasher`](std::hash::Hasher) for `u64` cache-line keys:
/// the in-memory maps an analysis updates once or more per access
/// ([`LineMap`]).
///
/// Unlike [`FingerprintHasher`], nothing hashed with it is ever persisted or
/// ordered by: it only has to be fast and spread line addresses — including
/// power-of-two strides — over a hash table's buckets.  One multiply by a
/// 64-bit odd constant mixes every key bit into the high bits of the product;
/// the final rotation brings those well-mixed bits down to the low bits a
/// table indexes by.  SipHash's DoS resistance buys nothing here: the keys
/// are simulated addresses, not adversarial input.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher {
    hash: u64,
}

impl std::hash::Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.hash = (self.hash ^ value).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Byte-slice fallback for non-`u64` keys, folded 8 bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Cache-line-keyed hash map on [`LineHasher`].
pub type LineMap<V> = std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_chain() {
        let c = WorkloadConfig::new(32).with_scale(0.25).with_seed(7);
        assert_eq!(c.threads, 32);
        assert_eq!(c.scale, 0.25);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = WorkloadConfig::new(0);
    }

    #[test]
    fn default_is_eight_threads() {
        assert_eq!(WorkloadConfig::default().threads, 8);
    }

    #[test]
    fn line_hasher_spreads_strided_lines_over_low_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // A table of 1024 buckets indexes by the low 10 hash bits; strided
        // line streams (a column walk, a power-of-two array pitch) must not
        // pile into a fraction of them.
        let build = BuildHasherDefault::<LineHasher>::default();
        for stride in [1u64, 2, 64, 4096, 1 << 20] {
            let buckets: std::collections::HashSet<u64> =
                (0..1024u64).map(|i| build.hash_one(i * stride) & 1023).collect();
            assert!(buckets.len() > 512, "stride {stride}: {} buckets", buckets.len());
        }
        let mut map: LineMap<u64> = LineMap::default();
        map.insert(7, 1);
        assert_eq!(map.get(&7), Some(&1));
    }
}
