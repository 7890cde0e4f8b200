use bp_workload::BasicBlockId;
use serde::{Deserialize, Serialize};

/// A basic block vector: per static basic block, the number of instructions
/// the block contributed to a region's execution.
///
/// BBVs are the code signature of the SimPoint methodology; BarrierPoint
/// collects one per thread per inter-barrier region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bbv {
    counts: Vec<u64>,
}

impl Bbv {
    /// Creates a zeroed BBV with one entry per static basic block.
    pub fn new(num_blocks: usize) -> Self {
        Self { counts: vec![0; num_blocks] }
    }

    /// Number of static basic blocks (the vector dimension).
    pub fn dimension(&self) -> usize {
        self.counts.len()
    }

    /// Records one execution of `block` retiring `instructions` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the vector's dimension.
    pub fn record(&mut self, block: BasicBlockId, instructions: u32) {
        self.counts[block.index()] += u64::from(instructions);
    }

    /// Raw instruction count of `block`.
    pub fn count(&self, block: BasicBlockId) -> u64 {
        self.counts.get(block.index()).copied().unwrap_or(0)
    }

    /// Total instructions recorded across all blocks.
    pub fn total_instructions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Zeroes every count.
    pub(crate) fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Raw counts slice.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The vector scaled to sum to 1 (all zeros if nothing was recorded).
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.total_instructions();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut bbv = Bbv::new(3);
        bbv.record(BasicBlockId(0), 10);
        bbv.record(BasicBlockId(2), 30);
        bbv.record(BasicBlockId(0), 10);
        assert_eq!(bbv.count(BasicBlockId(0)), 20);
        assert_eq!(bbv.count(BasicBlockId(1)), 0);
        assert_eq!(bbv.total_instructions(), 50);
        assert_eq!(bbv.dimension(), 3);
    }

    #[test]
    fn normalization_sums_to_one() {
        let mut bbv = Bbv::new(4);
        bbv.record(BasicBlockId(1), 25);
        bbv.record(BasicBlockId(3), 75);
        let n = bbv.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_bbv_normalizes_to_zeros() {
        let bbv = Bbv::new(2);
        assert_eq!(bbv.normalized(), vec![0.0, 0.0]);
    }
}
