use std::error::Error as StdError;
use std::fmt;
use std::io;

/// How the artifact cache should react to an I/O failure.
///
/// The taxonomy drives the cache's degrade-to-recompute policy (see
/// `STORAGE.md`): transient failures are retried a bounded number of times
/// with capped backoff; persistent failures are treated as a cache miss on
/// the load path (the artifact is recomputed) and as a skipped store on the
/// store path (the sweep stays alive, the counter records the degradation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorClass {
    /// The operation may succeed if retried promptly (EINTR-style signal
    /// interruptions, momentary contention, timeouts).
    Transient,
    /// Retrying promptly will not help (disk full, permissions, corrupt
    /// media, missing directories).
    Persistent,
}

/// Classifies an I/O error kind for the cache's retry policy.
///
/// The transient set is deliberately small — only kinds where an immediate
/// retry has a real chance: `Interrupted` (EINTR), `WouldBlock`,
/// `TimedOut`, and `ResourceBusy`.  Everything else — `StorageFull`,
/// `PermissionDenied`, `NotFound`, unknown kinds — is persistent: retrying
/// a full disk in a tight loop only delays the recompute that will actually
/// make progress.
pub fn classify_io_error(kind: io::ErrorKind) -> IoErrorClass {
    match kind {
        io::ErrorKind::Interrupted
        | io::ErrorKind::WouldBlock
        | io::ErrorKind::TimedOut
        | io::ErrorKind::ResourceBusy => IoErrorClass::Transient,
        _ => IoErrorClass::Persistent,
    }
}

/// Errors reported by the BarrierPoint pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The workload has no inter-barrier regions to sample.
    EmptyWorkload {
        /// Name of the offending workload.
        workload: String,
    },
    /// The workload's thread count does not match the simulated machine's
    /// core count.
    ThreadCountMismatch {
        /// Threads in the workload.
        workload_threads: usize,
        /// Cores in the simulated machine.
        machine_cores: usize,
    },
    /// The simulated machine has more cores than the memory hierarchy can
    /// model.
    UnsupportedCoreCount {
        /// Cores in the simulated machine.
        cores: usize,
        /// The most cores the hierarchy models ([`bp_mem::MAX_CORES`]).
        max: usize,
    },
    /// A region index was outside the workload's region range.
    RegionOutOfRange {
        /// The requested region.
        region: usize,
        /// Number of regions in the workload.
        num_regions: usize,
    },
    /// Detailed metrics for a selected barrierpoint are missing (e.g. a
    /// reconstruction was attempted with an incomplete simulation result).
    MissingBarrierPointMetrics {
        /// The barrierpoint's region index.
        region: usize,
    },
    /// Two artifacts that must describe the same application disagree (e.g. a
    /// selection transferred across core counts with a different region
    /// count).
    RegionCountMismatch {
        /// Regions in the first artifact.
        expected: usize,
        /// Regions in the second artifact.
        actual: usize,
    },
    /// The on-disk artifact cache failed with an I/O error (stale or corrupt
    /// entries are *not* errors — they read as cache misses).
    ProfileCache {
        /// Path of the offending cache file or directory.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A region-segment checkpoint could not be restored into a fresh
    /// recency engine, or does not fit the workload or the walk (thread,
    /// region or capacity mismatch, torn bytes).  Cache-served checkpoints are checksum-sealed, so this
    /// indicates a caller-side shape mismatch rather than storage rot.
    CheckpointRestore {
        /// Which segment failed and why.
        message: String,
    },
    /// A design-space sweep was run without any design point.
    EmptySweep {
        /// Name of the swept workload.
        workload: String,
    },
    /// Two design points of a sweep share a label, which would make the
    /// report ambiguous.
    DuplicateSweepLabel {
        /// The repeated label.
        label: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyWorkload { workload } => {
                write!(f, "workload {workload} has no inter-barrier regions")
            }
            Error::ThreadCountMismatch { workload_threads, machine_cores } => write!(
                f,
                "workload has {workload_threads} threads but the machine has {machine_cores} cores"
            ),
            Error::UnsupportedCoreCount { cores, max } => {
                write!(f, "the machine has {cores} cores but at most {max} are supported")
            }
            Error::RegionOutOfRange { region, num_regions } => {
                write!(f, "region {region} out of range (workload has {num_regions} regions)")
            }
            Error::MissingBarrierPointMetrics { region } => {
                write!(f, "no detailed metrics available for barrierpoint region {region}")
            }
            Error::RegionCountMismatch { expected, actual } => {
                write!(f, "region count mismatch: expected {expected}, got {actual}")
            }
            Error::ProfileCache { path, message } => {
                write!(f, "artifact cache I/O failure at {path}: {message}")
            }
            Error::CheckpointRestore { message } => {
                write!(f, "segment checkpoint restore failed: {message}")
            }
            Error::EmptySweep { workload } => {
                write!(f, "sweep over workload {workload} has no design points")
            }
            Error::DuplicateSweepLabel { label } => {
                write!(f, "sweep design-point label {label:?} is used more than once")
            }
        }
    }
}

impl StdError for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = Error::ThreadCountMismatch { workload_threads: 8, machine_cores: 32 };
        assert!(e.to_string().contains("8 threads"));
        assert!(e.to_string().contains("32 cores"));
        let e = Error::UnsupportedCoreCount { cores: 65, max: 64 };
        assert!(e.to_string().contains("65 cores"));
        assert!(e.to_string().contains("at most 64"));
        let e = Error::MissingBarrierPointMetrics { region: 7 };
        assert!(e.to_string().contains("region 7"));
    }

    #[test]
    fn transient_kinds_are_exactly_the_retryable_set() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
            io::ErrorKind::ResourceBusy,
        ] {
            assert_eq!(classify_io_error(kind), IoErrorClass::Transient, "{kind:?}");
        }
        for kind in [
            io::ErrorKind::StorageFull,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::NotFound,
            io::ErrorKind::InvalidData,
            io::ErrorKind::Other,
        ] {
            assert_eq!(classify_io_error(kind), IoErrorClass::Persistent, "{kind:?}");
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
