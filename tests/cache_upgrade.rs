//! Opening a cache directory written by the previous entry format.
//!
//! Format version 5 changed the profile payload (each LDV stores only its
//! populated bucket prefix) and every entry's seal (word-wise instead of
//! byte-wise FNV-1a); state version 4 changed the `cache-state` seal.  This
//! suite writes version-4 entries of every kind and a version-3 state file
//! in the old layout — reproduced here, and pinned to the bytes version 4
//! wrote — and checks that a current cache treats them as stale: misses that
//! are recomputed and overwritten, never errors or degraded operations; that
//! the size-bounded scan still counts and evicts them; and that the lifetime
//! counters restart from zero.

use barrierpoint::{
    ApplicationProfile, ArtifactCache, BarrierPoint, CacheStats, CheckpointCacheKey,
    ExecutionPolicy, MruBoundaries, ProfileCacheKey, SimConfig, SimulatedCacheKey, Sweep,
    SweepReport, TraceWalk, WarmupKind,
};
use bp_workload::{Benchmark, FingerprintHasher, SyntheticWorkload, WorkloadConfig};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// An empty directory namespaced by test and process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-upgrade-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn workload(scale: f64) -> SyntheticWorkload {
    Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(scale))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// The version-4 seal: byte-wise FNV-1a of everything before it.
fn seal_v4(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// A profile in the version-4 payload layout: every LDV dense — all 48
/// buckets, length-prefixed, then the cold count.
fn v4_profile_payload(profile: &ApplicationProfile) -> Vec<u8> {
    let mut out = serde::Serializer::new();
    out.write_str(profile.workload_name());
    out.write_u64(profile.threads() as u64);
    out.write_len(profile.num_regions());
    for region in profile.signatures() {
        out.write_len(region.bbvs().len());
        region.bbvs().iter().for_each(|bbv| bbv.serialize(&mut out));
        out.write_len(region.ldvs().len());
        for ldv in region.ldvs() {
            ldv.buckets().to_vec().serialize(&mut out);
            out.write_u64(ldv.cold_accesses());
        }
        region.thread_instructions().to_vec().serialize(&mut out);
    }
    out.into_bytes()
}

/// Rewrites the current entry file at `path` as the version-4 entry of the
/// same key and artifact: version field 4, the profile payload in the old
/// layout, the old seal.  The other kinds' payloads did not change.
fn downgrade_entry(path: &Path) {
    let bytes = fs::read(path).unwrap();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap();
    let fingerprints = match ext {
        "bpprof" | "bpckpt" => 1,
        "bpsel" => 2,
        "bpsim" => 3,
        other => panic!("not an entry: {other}"),
    };
    let body = &bytes[..bytes.len() - 8];
    assert_eq!(body[4..8], 5u32.to_le_bytes(), "{ext}: a current entry");
    let mut de = serde::Deserializer::new(&body[8..]);
    let name_len = de.read_len().unwrap();
    de.read_bytes(name_len + 8 * (1 + fingerprints)).unwrap();
    let (header, payload) = body.split_at(body.len() - de.remaining());
    let mut old = header.to_vec();
    old[4..8].copy_from_slice(&4u32.to_le_bytes());
    if ext == "bpprof" {
        old.extend(v4_profile_payload(&serde::from_slice(payload).unwrap()));
    } else {
        old.extend_from_slice(payload);
    }
    fs::write(path, seal_v4(old)).unwrap();
}

/// A version-3 `cache-state`: magic, version, the 18 counters, old seal.
fn write_v3_state(dir: &Path) {
    let mut out = serde::Serializer::new();
    out.write_bytes(b"BPST");
    out.write_u32(3);
    (1..=18u64).for_each(|counter| out.write_u64(counter * 100));
    fs::write(dir.join("cache-state"), seal_v4(out.into_bytes())).unwrap();
}

/// The entry files of the four kinds `write_v4_cache` writes.
const ENTRY_NAMES: [&str; 4] = [
    "npb-is-2t-d6c371d7a20694b0.bpprof",
    "npb-is-2t-d6c371d7a20694b0-854085e33a456c6e.bpsel",
    "npb-is-2t-d6c371d7a20694b0-bb963799b9cbc17d-c0a950fcb52325b5.bpsim",
    "npb-is-2t-d6c371d7a20694b0.bpckpt",
];

/// Fills `dir` with version-4 entries of every kind for npb-is (2 threads,
/// scale 0.02) and a version-3 state file.  The entries are checked against
/// the (length, FNV-1a) pins version 4's golden layout test held, so they
/// are byte for byte what that format wrote.
fn write_v4_cache(dir: &Path) {
    let w = workload(0.02);
    let sim_config = SimConfig::scaled(2);
    let selected =
        BarrierPoint::new(&w).with_execution_policy(ExecutionPolicy::Serial).select().unwrap();
    let checkpoints = TraceWalk::profile()
        .with_mru(MruBoundaries::Every, 256)
        .emitting_checkpoints(4)
        .run(&w, &ExecutionPolicy::Serial, None)
        .unwrap()
        .checkpoints
        .unwrap();
    let cache = ArtifactCache::new(dir);
    cache.store(&ProfileCacheKey::for_workload(&w), selected.profile()).unwrap();
    cache.store_selection(&selected.selection_cache_key(), selected.selection()).unwrap();
    let simulated_key =
        SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);
    cache.store_simulated(&simulated_key, &selected.simulate(&sim_config).unwrap()).unwrap();
    cache.store_checkpoint(&CheckpointCacheKey::for_workload(&w), &checkpoints).unwrap();
    drop(cache);

    let v4_golden: [(usize, u64); 4] = [
        (15124, 0x669e_4902_d17b_6b78),
        (764, 0xfbdf_68d1_ccb8_0e86),
        (2118, 0x7924_63bb_608d_72c4),
        (48998, 0xb5c2_3887_2189_eb26),
    ];
    for (name, golden) in ENTRY_NAMES.into_iter().zip(v4_golden) {
        let path = dir.join(name);
        downgrade_entry(&path);
        let bytes = fs::read(&path).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), golden, "{name}: version-4 bytes");
    }
    write_v3_state(dir);
}

/// The bytes of everything a sweep computed: its selection and every leg.
fn outputs(report: &SweepReport) -> Vec<u8> {
    let mut bytes = serde::to_vec(report.selection());
    report.legs().iter().for_each(|leg| bytes.extend(serde::to_vec(leg.simulated())));
    bytes
}

fn sweep(w: &SyntheticWorkload, cache: Option<ArtifactCache>) -> SweepReport {
    let mut sweep = Sweep::new(w)
        .with_execution_policy(ExecutionPolicy::Serial)
        .add_config("scaled", SimConfig::scaled(2));
    if let Some(cache) = cache {
        sweep = sweep.with_cache(cache);
    }
    sweep.run().unwrap()
}

#[test]
fn a_sweep_recomputes_and_overwrites_version_4_entries() {
    let dir = scratch("sweep");
    write_v4_cache(&dir);
    let w = workload(0.02);

    let cache = ArtifactCache::new(&dir);
    assert_eq!(cache.lifetime_stats(), CacheStats::default(), "the version-3 state is ignored");
    let report = sweep(&w, Some(cache.clone()));
    assert_eq!(outputs(&report), outputs(&sweep(&w, None)), "same results as without a cache");

    let counters = report.counters();
    assert_eq!(counters.profile_passes, 1, "{counters:?}");
    assert_eq!(counters.clustering_passes, 1, "{counters:?}");
    assert_eq!(counters.simulate_legs, 1, "{counters:?}");
    assert_eq!(counters.trace_walks, 2, "walked from region 0: {counters:?}");
    assert_eq!((counters.degraded_loads, counters.degraded_stores), (0, 0), "{counters:?}");
    let stats = cache.stats();
    assert_eq!(stats.memory_hits() + stats.disk_hits(), 0, "{stats:?}");
    assert_eq!(
        (stats.profile_misses, stats.selection_misses, stats.simulated_misses),
        (1, 1, 1),
        "{stats:?}"
    );
    assert!(stats.checkpoint_misses >= 1, "{stats:?}");
    for name in ENTRY_NAMES {
        let bytes = fs::read(dir.join(name)).unwrap();
        assert_eq!(bytes[4..8], 5u32.to_le_bytes(), "{name}: overwritten in the current format");
    }
    drop(cache);

    // The lifetime view restarted at the upgrade: it holds the upgrading
    // session's counters and nothing of the version-3 file.
    let reopened = ArtifactCache::new(&dir);
    assert_eq!(reopened.lifetime_stats(), stats);
    let warm = sweep(&w, Some(reopened.clone()));
    assert_eq!(outputs(&warm), outputs(&report));
    assert_eq!(warm.counters().trace_walks, 0, "the rewritten entries serve a warm sweep");
    let stats = reopened.stats();
    let misses = stats.profile_misses
        + stats.selection_misses
        + stats.simulated_misses
        + stats.checkpoint_misses;
    assert_eq!(misses, 0, "{stats:?}");
    assert!(stats.disk_hits() > 0, "{stats:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_size_bound_counts_and_evicts_version_4_entries() {
    let dir = scratch("evict");
    write_v4_cache(&dir);
    let other = workload(0.03);
    let other_key = ProfileCacheKey::for_workload(&other);
    let profile = BarrierPoint::new(&other)
        .with_execution_policy(ExecutionPolicy::Serial)
        .profile()
        .unwrap()
        .into_profile();

    let cache = ArtifactCache::new(&dir).with_max_bytes(1);
    cache.store(&other_key, &profile).unwrap();
    assert_eq!(cache.stats().evictions, 4, "every version-4 entry is counted and evicted");
    for name in ENTRY_NAMES {
        assert!(!dir.join(name).exists(), "{name} evicted");
    }
    assert_eq!(*ArtifactCache::new(&dir).load(&other_key).unwrap().unwrap(), profile);
    fs::remove_dir_all(&dir).ok();
}
