//! Crash-consistency torture suite for the `ArtifactCache` storage seam.
//!
//! The invariant under test, from every angle `FaultFs` can produce: *a
//! reopened cache either serves the bit-identical artifact or a clean miss —
//! never corruption, and never a panic*.  Three families of tests:
//!
//! 1. **Kill-point replay** — count the storage ops of a healthy store, then
//!    re-run it once per op index with `crash_at_op`, so every prefix of the
//!    write protocol (tmp write, rename, lock create, lock release, ...) is
//!    exercised as a crash point.
//! 2. **Corrupt-entry self-heal** — truncate, bit-flip, and garbage-fill
//!    on-disk entries of every artifact kind (profile, checkpoints,
//!    selection, simulated leg); a fresh cache must treat each as a miss
//!    and recompute bit-identical results.
//! 3. **Single-fault sweep matrix** — a full `Sweep` under each injected
//!    fault kind (ENOSPC, torn write, failed rename, transient reads,
//!    permission errors, ...) must complete with results bit-identical to a
//!    cache-disabled run.
//!
//! Every fault plan is deterministic: faults trigger on fixed op indices or
//! path substrings, never on timing.

use barrierpoint::{
    ArtifactCache, CacheStats, ExecutionPolicy, Fault, FaultFs, FaultOp, ProfileCacheKey,
    SimConfig, Sweep,
};
use bp_workload::{Benchmark, Workload, WorkloadConfig};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A scratch directory namespaced by test and process so parallel tests
/// never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-torture-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Small but non-trivial workload: fast enough to profile dozens of times.
fn workload() -> impl Workload {
    Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02))
}

fn one_config_sweep<W: Workload + ?Sized>(w: &W, cache: Option<ArtifactCache>) -> Sweep<'_, W> {
    let mut sweep = Sweep::new(w).add_config("base", SimConfig::tiny(2));
    if let Some(cache) = cache {
        sweep = sweep.with_cache(cache);
    }
    sweep
}

// ---------------------------------------------------------------------------
// 1. Kill-point replay
// ---------------------------------------------------------------------------

/// Replays a crash at every storage-op index of an unbounded profile store.
/// The crashing run must still produce the right profile (degrading, not
/// erroring), and a clean reopen must see either the bit-identical entry or
/// a clean miss that recomputes to the same artifact.
#[test]
fn every_kill_point_of_a_profile_store_is_safe() {
    let w = workload();
    let policy = ExecutionPolicy::default();

    // Reference artifact + the healthy op count that bounds the replay.
    let probe_dir = scratch("kill-probe");
    let probe_faults = Arc::new(FaultFs::new());
    let probe = ArtifactCache::new(&probe_dir).with_storage(probe_faults.clone());
    let (reference, _) = probe.load_or_profile(&w, &policy).unwrap();
    let healthy_ops = probe_faults.ops();
    drop(probe);
    std::fs::remove_dir_all(&probe_dir).ok();
    assert!(healthy_ops >= 3, "sanity: a store is at least probe + write + rename");

    let key = ProfileCacheKey::for_workload(&w);
    for kill in 0..healthy_ops {
        let dir = scratch(&format!("kill-{kill}"));
        let faults = Arc::new(FaultFs::new());
        faults.crash_at_op(kill);
        let crashed = ArtifactCache::new(&dir).with_storage(faults.clone());

        // The crashing process itself must degrade, not fail or panic.
        let (computed, cached) = crashed.load_or_profile(&w, &policy).unwrap();
        assert!(!cached, "kill at op {kill}: a crashed store cannot have produced a hit");
        assert_eq!(computed, reference, "kill at op {kill}: degraded recompute must be exact");
        drop(crashed); // the drop-time stats flush hits dead storage; must be silent

        // The crash-consistency invariant, seen by the next process.
        let reopened = ArtifactCache::new(&dir);
        if let Some(persisted) = reopened.load(&key).unwrap() {
            assert_eq!(persisted, reference, "kill at op {kill}: a served entry must be exact");
        }
        let (recovered, _) = reopened.load_or_profile(&w, &policy).unwrap();
        assert_eq!(recovered, reference, "kill at op {kill}: reopen must converge");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Same replay against a *bounded, locked* store: the op sequence now also
/// covers lock creation, the guarded eviction scan, and lock release.  A
/// crash that leaves `.lock` behind must be healed by the stale-lock
/// takeover of the next process.
#[test]
fn every_kill_point_of_a_locked_bounded_store_recovers_via_takeover() {
    let w = workload();
    let policy = ExecutionPolicy::default();
    let stale = Duration::from_millis(10);
    let bounded = |dir: &PathBuf, storage: Arc<dyn barrierpoint::Storage>| {
        ArtifactCache::new(dir)
            .with_storage(storage)
            .with_max_bytes(u64::MAX)
            .with_lock_stale_after(stale)
    };

    let probe_dir = scratch("lockkill-probe");
    let probe_faults = Arc::new(FaultFs::new());
    let probe = bounded(&probe_dir, probe_faults.clone());
    let (reference, _) = probe.load_or_profile(&w, &policy).unwrap();
    let healthy_ops = probe_faults.ops();
    drop(probe);
    std::fs::remove_dir_all(&probe_dir).ok();
    assert!(healthy_ops >= 5, "sanity: a locked store adds lock create/scan/release ops");

    for kill in 0..healthy_ops {
        let dir = scratch(&format!("lockkill-{kill}"));
        let faults = Arc::new(FaultFs::new());
        faults.crash_at_op(kill);
        let crashed = bounded(&dir, faults.clone());
        let (computed, _) = crashed.load_or_profile(&w, &policy).unwrap();
        assert_eq!(computed, reference, "kill at op {kill}");
        drop(crashed);

        // Let any leftover lock cross the staleness bound, then reopen: a
        // store (if the entry was lost) must take the lock over rather than
        // spin, and the result must still be exact.
        std::thread::sleep(stale + Duration::from_millis(5));
        let reopened = bounded(&dir, Arc::new(FaultFs::new()));
        let (recovered, _) = reopened.load_or_profile(&w, &policy).unwrap();
        assert_eq!(recovered, reference, "kill at op {kill}: reopen must converge");
        assert_eq!(
            reopened.stats().lock_contended,
            0,
            "kill at op {kill}: a crashed holder must read as stale, not contended"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The persisted-stats flush gets the same treatment: killed at any op, a
/// later open must read merged lifetime stats or fall back to zero — never
/// error, never panic.
#[test]
fn killed_state_flushes_never_poison_the_lifetime_stats() {
    let w = workload();
    let policy = ExecutionPolicy::default();
    let dir = scratch("state-kill");

    // Seed the cache and count the ops of one healthy hit + flush cycle.
    ArtifactCache::new(&dir).load_or_profile(&w, &policy).unwrap();
    let probe_faults = Arc::new(FaultFs::new());
    let probe = ArtifactCache::new(&dir).with_storage(probe_faults.clone());
    probe.load_or_profile(&w, &policy).unwrap();
    let before = probe_faults.ops();
    probe.flush();
    let flush_ops = probe_faults.ops() - before;
    drop(probe);
    assert!(flush_ops >= 2, "sanity: a flush is at least a read + an in-place write");

    for kill in 0..flush_ops {
        let faults = Arc::new(FaultFs::new());
        let cache = ArtifactCache::new(&dir).with_storage(faults.clone());
        cache.load_or_profile(&w, &policy).unwrap();
        faults.crash_at_op(faults.ops() + kill);
        cache.flush(); // must swallow the crash
        drop(cache); // and so must the drop-time re-flush

        let clean = ArtifactCache::new(&dir);
        let lifetime = clean.lifetime_stats();
        // Whatever survived decodes to a sane merge: lifetime counters never
        // run backwards past the session view.
        assert!(lifetime.profile_hits >= clean.stats().profile_hits, "kill at op {kill}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An in-place flush over an existing two-slot state, killed at each of its
/// ops (the read, then the torn write of the spare slot): a reopened cache
/// reads exactly the totals before the flush or after it — a torn slot
/// never decodes, so the previous generation survives — and never zero.
#[test]
fn every_kill_point_of_an_in_place_flush_keeps_a_whole_generation() {
    let w = workload();
    let policy = ExecutionPolicy::default();
    let dir = scratch("inplace-kill");
    let one_hit = |storage: Arc<FaultFs>| {
        let cache = ArtifactCache::new(&dir).with_storage(storage);
        assert!(cache.load_or_profile(&w, &policy).unwrap().1, "a disk hit");
        cache
    };

    // Seed the entry and a two-slot state; then a healthy in-place flush
    // reaches exactly the merged totals, in one read and one write.
    ArtifactCache::new(&dir).load_or_profile(&w, &policy).unwrap();
    let pre = ArtifactCache::new(&dir).lifetime_stats();
    let probe_faults = Arc::new(FaultFs::new());
    let probe = one_hit(probe_faults.clone());
    let post = pre.merged(&probe.stats());
    let before = probe_faults.ops();
    probe.flush();
    let flush_ops = probe_faults.ops() - before;
    assert_eq!(flush_ops, 2, "an in-place flush is one read and one write");
    assert_eq!(ArtifactCache::new(&dir).lifetime_stats(), post);
    drop(probe);

    for kill in 0..flush_ops {
        let pre = ArtifactCache::new(&dir).lifetime_stats();
        let faults = Arc::new(FaultFs::new());
        let cache = one_hit(faults.clone());
        let post = pre.merged(&cache.stats());
        faults.crash_at_op(faults.ops() + kill);
        cache.flush(); // must swallow the crash
        drop(cache); // and so must the drop-time re-flush

        let lifetime = ArtifactCache::new(&dir).lifetime_stats();
        assert!(lifetime == pre || lifetime == post, "kill at op {kill}: {lifetime:?}");
        assert_ne!(lifetime, CacheStats::default(), "kill at op {kill}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 2. Corrupt-entry self-heal
// ---------------------------------------------------------------------------

/// Applies `damage` to the unique cache entry with `ext` under `dir`.
fn damage_entry(dir: &PathBuf, ext: &str, damage: fn(Vec<u8>) -> Vec<u8>) {
    let mut hit = 0;
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == ext) {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, damage(bytes)).unwrap();
            hit += 1;
        }
    }
    assert_eq!(hit, 1, "expected exactly one .{ext} entry");
}

/// Corrupt entries of every artifact kind — truncated, bit-flipped, and
/// replaced with garbage — must read as clean misses: the next sweep heals
/// them by recomputation and its results stay bit-identical.
#[test]
fn corrupt_entries_self_heal_for_every_artifact_kind() {
    let w = workload();
    let dir = scratch("heal");
    let reference = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();

    let truncate: fn(Vec<u8>) -> Vec<u8> = |b| b[..b.len() / 2].to_vec();
    let bitflip: fn(Vec<u8>) -> Vec<u8> = |mut b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
        b
    };
    let garbage: fn(Vec<u8>) -> Vec<u8> = |b| vec![0xA5; b.len()];

    for damage in [truncate, bitflip, garbage] {
        // Simulated leg: must be re-simulated, then match exactly.
        damage_entry(&dir, "bpsim", damage);
        let healed = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();
        assert_eq!(healed.counters().simulate_legs, 1, "corrupt leg must be recomputed");
        assert_eq!(healed.legs(), reference.legs(), "healed leg must be bit-identical");

        // Selection: a corrupt entry forces re-clustering from the (intact)
        // profile; the recomputed selection must re-key the same simulated
        // entry so the leg is served from cache.
        damage_entry(&dir, "bpsel", damage);
        let healed = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();
        assert_eq!(healed.counters().clustering_passes, 1);
        assert_eq!(healed.counters().simulated_cache_hits, 1);
        assert_eq!(healed.legs(), reference.legs());

        // Profile: corrupt it *and* the selection so the sweep actually
        // reads the profile (a cached selection short-circuits it).
        damage_entry(&dir, "bpprof", damage);
        damage_entry(&dir, "bpsel", damage);
        let healed = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();
        assert_eq!(healed.counters().profile_passes, 1, "corrupt profile must be re-profiled");
        assert_eq!(healed.counters().simulated_cache_hits, 1);
        assert_eq!(healed.legs(), reference.legs());

        // Checkpoints: corrupt the ckpt entry *and* profile+selection so the
        // sweep actually reaches the checkpoint probe (it only fires on a
        // profile miss).  The corrupt checkpoints must degrade to a miss —
        // the re-profile falls back to the sequential walk, which re-stores
        // fresh checkpoints.
        damage_entry(&dir, "bpckpt", damage);
        damage_entry(&dir, "bpprof", damage);
        damage_entry(&dir, "bpsel", damage);
        let healed = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();
        assert_eq!(healed.counters().profile_passes, 1);
        assert_eq!(
            healed.counters().trace_walks,
            w.num_threads(),
            "corrupt checkpoints must fall back to the sequential walk"
        );
        assert_eq!(healed.counters().segment_walks, 0);
        assert_eq!(healed.legs(), reference.legs());

        // The fallback walk healed the ckpt entry: the next profile miss
        // rides the restored checkpoints as segment jobs, no sequential walk.
        damage_entry(&dir, "bpprof", damage);
        damage_entry(&dir, "bpsel", damage);
        let reridden = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();
        assert_eq!(reridden.counters().trace_walks, 0, "healed checkpoints must serve segments");
        assert!(reridden.counters().segment_walks > 0);
        assert_eq!(reridden.legs(), reference.legs());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 3. Single-fault sweep matrix
// ---------------------------------------------------------------------------

/// A full sweep under each single injected fault completes with results
/// bit-identical to a cache-disabled run, both while the fault is live and
/// after a clean reopen of the same directory.
#[test]
fn any_single_fault_leaves_sweep_results_bit_identical() {
    let w = workload();
    let reference = one_config_sweep(&w, None).run().unwrap();

    let matrix: Vec<(&str, Fault)> = vec![
        ("enospc-write", Fault::fail(FaultOp::Write, ErrorKind::StorageFull)),
        ("torn-write", Fault::torn_write(ErrorKind::StorageFull)),
        ("rename-denied", Fault::fail(FaultOp::Rename, ErrorKind::PermissionDenied)),
        ("transient-read", Fault::fail(FaultOp::Read, ErrorKind::Interrupted).times(2)),
        ("read-denied", Fault::fail(FaultOp::Read, ErrorKind::PermissionDenied)),
        ("scan-denied", Fault::fail(FaultOp::ReadDir, ErrorKind::PermissionDenied)),
        ("mtime-denied", Fault::fail(FaultOp::SetMtime, ErrorKind::PermissionDenied)),
        ("mkdir-full", Fault::fail(FaultOp::CreateDir, ErrorKind::StorageFull)),
        ("lock-denied", Fault::fail(FaultOp::CreateNew, ErrorKind::PermissionDenied)),
        ("unlink-denied", Fault::fail(FaultOp::Remove, ErrorKind::PermissionDenied)),
    ];

    for (tag, fault) in matrix {
        let dir = scratch(&format!("matrix-{tag}"));
        let faults = FaultFs::new();
        faults.inject(fault);
        let cache = ArtifactCache::new(&dir)
            .with_storage(Arc::new(faults))
            .with_max_bytes(64 * 1024)
            .with_lock_stale_after(Duration::from_millis(50));

        let faulted = one_config_sweep(&w, Some(cache)).run().unwrap();
        assert_eq!(faulted.legs(), reference.legs(), "{tag}: faulted sweep must be exact");

        // Whatever the fault left on disk, a clean cache over the same
        // directory serves exact results or recomputes them.
        let reopened = ArtifactCache::new(&dir)
            .with_max_bytes(64 * 1024)
            .with_lock_stale_after(Duration::from_millis(50));
        let recovered = one_config_sweep(&w, Some(reopened)).run().unwrap();
        assert_eq!(recovered.legs(), reference.legs(), "{tag}: reopened sweep must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Transient faults are absorbed by the bounded retry: with fewer transient
/// failures than the attempt bound, the sweep not only matches but still
/// *hits* the cache, and the retries are visible in the health counters.
#[test]
fn transient_faults_are_absorbed_and_counted() {
    let w = workload();
    let dir = scratch("transient");
    let seeded = one_config_sweep(&w, Some(ArtifactCache::new(&dir))).run().unwrap();

    let faults = FaultFs::new();
    faults.inject(Fault::fail(FaultOp::Read, ErrorKind::Interrupted).times(2));
    let cache = ArtifactCache::new(&dir).with_storage(Arc::new(faults));
    let warm = one_config_sweep(&w, Some(cache)).run().unwrap();
    assert_eq!(warm.legs(), seeded.legs());
    assert_eq!(warm.counters().simulate_legs, 0, "retried reads must still produce hits");
    assert_eq!(warm.counters().io_retries, 2, "both transient failures were retried");
    assert_eq!(warm.counters().degraded_loads, 0);
    std::fs::remove_dir_all(&dir).ok();
}
