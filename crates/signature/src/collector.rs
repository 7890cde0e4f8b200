use crate::bbv::Bbv;
use crate::config::{SignatureConfig, SignatureKind};
use crate::ldv::Ldv;
use crate::vector::SignatureVector;
use serde::{Deserialize, Serialize};

/// Raw per-thread signatures of one inter-barrier region.
///
/// This is what the paper's Pintool emits per region; the reproduction
/// obtains it by walking each thread's traces into a
/// [`ProfileAccumulator`](crate::ProfileAccumulator) and zipping the
/// threads' profiles ([`zip_thread_profiles`](crate::zip_thread_profiles)).
/// The raw form is kept so that the same profile can be assembled into any
/// of the Figure 5 signature-vector variants without re-profiling.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionSignature {
    per_thread_bbv: Vec<Bbv>,
    per_thread_ldv: Vec<Ldv>,
    per_thread_instructions: Vec<u64>,
}

impl RegionSignature {
    /// Creates a region signature from per-thread components.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors do not have one entry per thread each.
    pub fn new(bbvs: Vec<Bbv>, ldvs: Vec<Ldv>, instructions: Vec<u64>) -> Self {
        assert!(
            bbvs.len() == ldvs.len() && ldvs.len() == instructions.len(),
            "per-thread component counts must match"
        );
        Self { per_thread_bbv: bbvs, per_thread_ldv: ldvs, per_thread_instructions: instructions }
    }

    /// Number of threads profiled.
    pub fn num_threads(&self) -> usize {
        self.per_thread_bbv.len()
    }

    /// Aggregate instruction count across all threads — the region's weight
    /// in the clustering step and its length for runtime reconstruction.
    pub fn total_instructions(&self) -> u64 {
        self.per_thread_instructions.iter().sum()
    }

    /// Per-thread instruction counts.
    pub fn thread_instructions(&self) -> &[u64] {
        &self.per_thread_instructions
    }

    /// Per-thread basic block vectors.
    pub fn bbvs(&self) -> &[Bbv] {
        &self.per_thread_bbv
    }

    /// Per-thread LRU stack distance vectors.
    pub fn ldvs(&self) -> &[Ldv] {
        &self.per_thread_ldv
    }

    /// Assembles the signature vector for the given configuration:
    /// per-thread components are normalized individually and concatenated
    /// across threads.
    pub fn assemble(&self, config: &SignatureConfig) -> SignatureVector {
        let mut values = Vec::new();
        for thread in 0..self.num_threads() {
            match config.kind {
                SignatureKind::BbvOnly => {
                    values.extend(self.per_thread_bbv[thread].normalized());
                }
                SignatureKind::LdvOnly => {
                    values.extend(self.per_thread_ldv[thread].normalized(config.weighting));
                }
                SignatureKind::Combined => {
                    values.extend(self.per_thread_bbv[thread].normalized());
                    values.extend(self.per_thread_ldv[thread].normalized(config.weighting));
                }
            }
        }
        SignatureVector::new(values, self.total_instructions())
    }
}

// Hand-written decoding: a region must carry one BBV, one LDV and one
// instruction count per thread, as `RegionSignature::new` asserts, so an
// entry that does not is a decode error rather than a later out-of-bounds
// panic in `assemble`.
impl Deserialize for RegionSignature {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let bbvs = Vec::<Bbv>::deserialize(de)?;
        let ldvs = Vec::<Ldv>::deserialize(de)?;
        let instructions = Vec::<u64>::deserialize(de)?;
        if bbvs.len() != ldvs.len() || ldvs.len() != instructions.len() {
            return Err(serde::Error::custom(format!(
                "region signature with {} BBVs, {} LDVs and {} instruction counts",
                bbvs.len(),
                ldvs.len(),
                instructions.len()
            )));
        }
        Ok(Self::new(bbvs, ldvs, instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn mismatched_component_lengths_rejected() {
        let _ = RegionSignature::new(vec![Bbv::new(1)], vec![], vec![0]);
    }
}
