use crate::mru::MruWarmupData;

/// How to initialize microarchitectural state before the detailed simulation
/// of a barrierpoint (Section IV of the paper).
#[derive(Debug, Clone)]
pub enum WarmupStrategy<'a> {
    /// No warmup: the barrierpoint starts with cold caches.  Fast but
    /// suffers the full cold-start error.
    Cold,
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
