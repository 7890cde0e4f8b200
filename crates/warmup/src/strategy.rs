use crate::mru::MruWarmupData;
use bp_mem::HierarchySnapshot;

/// How to initialize microarchitectural state before the detailed simulation
/// of a barrierpoint (Section IV of the paper).
#[derive(Debug, Clone)]
pub enum WarmupStrategy<'a> {
    /// No warmup: the barrierpoint starts with cold caches.  Fast but
    /// suffers the full cold-start error.
    Cold,
    /// Restore an exact snapshot of the cache hierarchy taken at the same
    /// point during a previous full run.  This is the checkpointing approach:
    /// fastest and exact, but the snapshot is specific to one
    /// microarchitecture and one application binary.
    Checkpoint(HierarchySnapshot),
    /// Functionally replay *every* memory access of all regions preceding the
    /// barrierpoint.  Accuracy is high but the cost is proportional to the
    /// number of skipped instructions — exactly the scaling limitation
    /// BarrierPoint is designed to avoid.
    FunctionalReplay {
        /// The barrierpoint's region index; regions `0..region` are replayed.
        region: usize,
    },
    /// The paper's proposal: replay each core's most recently used unique
    /// cache lines (bounded by the shared LLC capacity) in access order,
    /// the threads interleaved line by line from the tail of the longest
    /// list, threads in index order, threads without a core skipped.  The
    /// replay's final state is installed directly and equals a replay
    /// through the timed hierarchy (see [`apply_warmup`]).  The payload is
    /// borrowed, so one collection serves every barrierpoint simulation.
    ///
    /// [`apply_warmup`]: crate::apply_warmup
    MruReplay(&'a MruWarmupData),
}

impl WarmupStrategy<'_> {
    /// A short, stable name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            WarmupStrategy::Cold => "cold",
            WarmupStrategy::Checkpoint(_) => "checkpoint",
            WarmupStrategy::FunctionalReplay { .. } => "functional",
            WarmupStrategy::MruReplay(_) => "mru-replay",
        }
    }

    /// Whether the strategy's cost depends on how deep into the application
    /// the barrierpoint lies (the scaling concern of Section IV).
    pub fn cost_scales_with_skipped_instructions(&self) -> bool {
        matches!(self, WarmupStrategy::FunctionalReplay { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(WarmupStrategy::Cold.name(), "cold");
        assert_eq!(WarmupStrategy::FunctionalReplay { region: 3 }.name(), "functional");
    }

    #[test]
    fn only_functional_replay_scales_with_skip_depth() {
        assert!(
            WarmupStrategy::FunctionalReplay { region: 10 }.cost_scales_with_skipped_instructions()
        );
        assert!(!WarmupStrategy::Cold.cost_scales_with_skipped_instructions());
    }
}
