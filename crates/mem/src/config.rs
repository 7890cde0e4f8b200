use serde::{Deserialize, Serialize};

/// Geometry and latency of a single cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Number of ways per set.
    pub associativity: usize,
    /// Access latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Creates a cache configuration.
    pub fn new(size_bytes: u64, associativity: usize, latency_cycles: u64) -> Self {
        Self { size_bytes, associativity, latency_cycles }
    }

    /// Number of sets for the given line size.
    ///
    /// The set count must be a power of two: caches select a set by masking
    /// the low bits of the line address.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero size, zero ways, or a
    /// capacity that is not a multiple of `associativity * line_bytes`) or
    /// if the resulting set count is not a power of two.
    pub fn num_sets(&self, line_bytes: u64) -> usize {
        assert!(self.size_bytes > 0 && self.associativity > 0, "degenerate cache geometry");
        let lines = self.size_bytes / line_bytes;
        let ways = self.associativity as u64;
        assert!(
            lines >= ways && lines.is_multiple_of(ways) && (lines / ways).is_power_of_two(),
            "cache size {} not divisible into a power-of-two number of {}-way sets of {}-byte \
             lines",
            self.size_bytes,
            self.associativity,
            line_bytes
        );
        (lines / ways) as usize
    }

    /// Total number of cache lines.
    pub fn num_lines(&self, line_bytes: u64) -> u64 {
        self.size_bytes / line_bytes
    }
}

/// Configuration of the full memory hierarchy and its topology.
///
/// Mirrors Table I of the paper: per-core private L1I/L1D and L2, one shared
/// L3 per `cores_per_socket` cores, MSI directory coherence and a fixed
/// DRAM latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Cache line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core unified L2 cache.
    pub l2: CacheConfig,
    /// Shared L3 cache (one instance per socket).
    pub l3: CacheConfig,
    /// Cores sharing one L3 / one socket.
    pub cores_per_socket: usize,
    /// DRAM access latency in core cycles.
    pub dram_latency_cycles: u64,
    /// Extra latency for reaching a remote socket's L3 or a remote core's
    /// private cache.
    pub remote_penalty_cycles: u64,
}

impl MemoryConfig {
    /// The paper's Table I configuration: 32 KB L1I (4-way, 4 cycles),
    /// 32 KB L1D (8-way, 4 cycles), 256 KB L2 (8-way, 8 cycles), 8 MB shared
    /// L3 per 8-core socket (16-way, 30 cycles) and 65 ns DRAM (≈ 173 cycles
    /// at 2.66 GHz).
    pub fn table1() -> Self {
        Self {
            line_bytes: 64,
            l1i: CacheConfig::new(32 * 1024, 4, 4),
            l1d: CacheConfig::new(32 * 1024, 8, 4),
            l2: CacheConfig::new(256 * 1024, 8, 8),
            l3: CacheConfig::new(8 * 1024 * 1024, 16, 30),
            cores_per_socket: 8,
            dram_latency_cycles: 173,
            remote_penalty_cycles: 40,
        }
    }

    /// A proportionally scaled-down hierarchy (32x smaller caches) matched to
    /// the scaled-down synthetic workloads: the working-set-to-capacity
    /// ratios, and therefore the qualitative cache behaviour the paper's
    /// results depend on, are preserved while full-application ground-truth
    /// simulation stays fast.
    pub fn scaled() -> Self {
        Self {
            line_bytes: 64,
            l1i: CacheConfig::new(2 * 1024, 4, 4),
            l1d: CacheConfig::new(4 * 1024, 8, 4),
            l2: CacheConfig::new(32 * 1024, 8, 8),
            l3: CacheConfig::new(256 * 1024, 16, 30),
            cores_per_socket: 8,
            dram_latency_cycles: 173,
            remote_penalty_cycles: 40,
        }
    }

    /// An aggressively shrunk hierarchy for fast unit and integration tests:
    /// the same topology and latencies as Table I with capacities reduced so
    /// far that even tiny test workloads (workload scale ≈ 0.05) exceed the
    /// LLC, exhibiting the same qualitative behaviour as the full-size runs.
    pub fn tiny() -> Self {
        Self {
            line_bytes: 64,
            l1i: CacheConfig::new(1024, 4, 4),
            l1d: CacheConfig::new(1024, 8, 4),
            l2: CacheConfig::new(4 * 1024, 8, 8),
            l3: CacheConfig::new(32 * 1024, 16, 30),
            cores_per_socket: 8,
            dram_latency_cycles: 173,
            remote_penalty_cycles: 40,
        }
    }

    /// Number of sockets needed for `num_cores` cores.
    pub fn num_sockets(&self, num_cores: usize) -> usize {
        num_cores.div_ceil(self.cores_per_socket)
    }

    /// Combined last-level-cache capacity visible to `num_cores` cores, in
    /// bytes.  This is the bound the paper's MRU warmup uses for the amount
    /// of replayed state per core.
    pub fn llc_total_bytes(&self, num_cores: usize) -> u64 {
        self.l3.size_bytes * self.num_sockets(num_cores) as u64
    }

    /// Combined last-level-cache capacity in lines.
    pub fn llc_total_lines(&self, num_cores: usize) -> u64 {
        self.llc_total_bytes(num_cores) / self.line_bytes
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = MemoryConfig::table1();
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.associativity, 8);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.cores_per_socket, 8);
        // 8 cores -> one socket (8 MB); 32 cores -> four sockets (32 MB).
        assert_eq!(c.llc_total_bytes(8), 8 * 1024 * 1024);
        assert_eq!(c.llc_total_bytes(32), 32 * 1024 * 1024);
    }

    #[test]
    fn scaled_preserves_capacity_ordering() {
        let s = MemoryConfig::scaled();
        let t = MemoryConfig::table1();
        assert_eq!(t.l2.size_bytes / t.l1d.size_bytes, s.l2.size_bytes / s.l1d.size_bytes);
        assert!(s.l1d.size_bytes < s.l2.size_bytes && s.l2.size_bytes < s.l3.size_bytes);
        // Same latencies and topology as Table I; only capacities shrink.
        assert_eq!(s.l3.latency_cycles, t.l3.latency_cycles);
        assert_eq!(s.cores_per_socket, t.cores_per_socket);
    }

    #[test]
    fn set_counts() {
        let c = CacheConfig::new(4 * 1024, 8, 4);
        assert_eq!(c.num_sets(64), 8);
        assert_eq!(c.num_lines(64), 64);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        // 1000 bytes is 15 lines, which does not divide into 4-way sets.
        let c = CacheConfig::new(1000, 4, 1);
        let _ = c.num_sets(64);
    }

    #[test]
    #[should_panic(expected = "power-of-two number of 4-way sets")]
    fn non_power_of_two_set_count_panics() {
        // 12 lines make three 4-way sets.
        let c = CacheConfig::new(12 * 64, 4, 1);
        let _ = c.num_sets(64);
    }

    #[test]
    fn socket_count_rounds_up() {
        let c = MemoryConfig::scaled();
        assert_eq!(c.num_sockets(8), 1);
        assert_eq!(c.num_sockets(9), 2);
        assert_eq!(c.num_sockets(32), 4);
    }
}
