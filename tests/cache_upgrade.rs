//! Opening a cache directory written by an earlier entry format.
//!
//! Format version 5 changed the profile payload (each LDV stores only its
//! populated bucket prefix) and every entry's seal (word-wise instead of
//! byte-wise FNV-1a); version 6 changed the profile payload again (the
//! distinct region signatures once each, then every region's position
//! among them, where version 5 stored every region's signature).  State
//! version 4 changed the `cache-state` seal, and state version 5 made that
//! file two slots updated in place.  This suite writes version-4 entries of
//! every kind, a version-5 profile, and version-3 and version-4 state files
//! in their old layouts — reproduced here, and pinned to the bytes those
//! versions wrote — and checks that a current cache treats them as stale:
//! misses that are recomputed and overwritten, never errors or degraded
//! operations; that the size-bounded scan still counts and evicts them; and
//! that the lifetime counters restart from zero, in a two-slot file.

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
    for region in profile.signatures().iter() {
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

/// A profile in the version-5 payload layout: every region's signature in
/// region order, LDVs as their populated prefixes.
fn v5_profile_payload(profile: &ApplicationProfile) -> Vec<u8> {
    let mut out = serde::Serializer::new();
    out.write_str(profile.workload_name());
    out.write_u64(profile.threads() as u64);
    out.write_len(profile.num_regions());
    profile.signatures().iter().for_each(|region| region.serialize(&mut out));
    out.into_bytes()
}

/// The current entry file at `path` split into its header (magic, version,
/// key echo) with the version field set to `version`, and its payload.
fn split_entry(path: &Path, version: u32) -> (Vec<u8>, Vec<u8>) {
    let bytes = fs::read(path).unwrap();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap();
    let fingerprints = match ext {
        "bpprof" | "bpckpt" => 1,
        "bpsel" => 2,
        "bpsim" => 3,
        other => panic!("not an entry: {other}"),
    };
    let body = &bytes[..bytes.len() - 8];
    assert_eq!(body[4..8], 6u32.to_le_bytes(), "{ext}: a current entry");
    let mut de = serde::Deserializer::new(&body[8..]);
    let name_len = de.read_len().unwrap();
    de.read_bytes(name_len + 8 * (1 + fingerprints)).unwrap();
    let (header, payload) = body.split_at(body.len() - de.remaining());
    let mut header = header.to_vec();
    header[4..8].copy_from_slice(&version.to_le_bytes());
    (header, payload.to_vec())
}

/// Rewrites the current profile entry at `path` as the version-5 entry of
/// the same key and profile: version field 5, the dense region-by-region
/// payload, the word-wise seal.
fn downgrade_profile_to_v5(path: &Path) {
    let (mut old, payload) = split_entry(path, 5);
    old.extend(v5_profile_payload(&serde::from_slice(&payload).unwrap()));
    fs::write(path, seal_word_wise(old)).unwrap();
}

/// Rewrites the current entry file at `path` as the version-4 entry of the
/// same key and artifact: version field 4, the profile payload in the old
/// layout, the old seal.  The other kinds' payloads did not change.
fn downgrade_entry(path: &Path) {
    let (mut old, payload) = split_entry(path, 4);
    if path.extension().is_some_and(|ext| ext == "bpprof") {
        old.extend(v4_profile_payload(&serde::from_slice(&payload).unwrap()));
    } else {
        old.extend(payload);
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

/// The seal of format version 5 and state version 4: the bytes folded one
/// 8-byte little-endian word at a time (the tail zero-padded), then the
/// length, then the murmur3 finalizer.
fn seal_word_wise(mut body: Vec<u8>) -> Vec<u8> {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |state: u64, word: u64| (state ^ word).wrapping_mul(K).rotate_left(31);
    let mut state = 0xcbf2_9ce4_8422_2325;
    for chunk in body.chunks(8) {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        state = step(state, u64::from_le_bytes(le));
    }
    let mut h = step(state, body.len() as u64);
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    body.extend_from_slice(&(h ^ (h >> 33)).to_le_bytes());
    body
}

/// A version-4 `cache-state`: one record of magic, version, the 18 counters
/// (one memory-tier hit each for the profile, selection and simulated leg)
/// and the word-wise seal — checked against the (length, FNV-1a) pin state
/// version 4's golden layout test held.
fn write_v4_state(dir: &Path) {
    let mut out = serde::Serializer::new();
    out.write_bytes(b"BPST");
    out.write_u32(4);
    let counters = [1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    counters.into_iter().for_each(|counter| out.write_u64(counter));
    let bytes = seal_word_wise(out.into_bytes());
    assert_eq!((bytes.len(), fnv1a(&bytes)), (160, 0xd93f_4cb8_277e_e9c2), "version-4 bytes");
    fs::write(dir.join("cache-state"), bytes).unwrap();
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
        assert_eq!(bytes[4..8], 6u32.to_le_bytes(), "{name}: overwritten in the current format");
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

#[test]
fn a_version_4_state_reads_as_zero_and_is_republished_as_two_slots() {
    let dir = scratch("state-v4");
    fs::create_dir_all(&dir).unwrap();
    write_v4_state(&dir);
    let cache = ArtifactCache::new(&dir);
    assert_eq!(cache.lifetime_stats(), CacheStats::default(), "the version-4 state is ignored");
    cache.load_or_profile(&workload(0.02), &ExecutionPolicy::Serial).unwrap();
    let stats = cache.stats();
    cache.flush();

    // Two 168-byte slots: magic, version 5, generation, 18 counters, seal.
    let bytes = fs::read(dir.join("cache-state")).unwrap();
    assert_eq!(bytes.len(), 2 * 168, "a two-slot file");
    assert_eq!(bytes[..4], *b"BPST");
    assert_eq!(bytes[4..8], 5u32.to_le_bytes(), "the current state version");
    assert!(bytes[168..].iter().all(|&b| b == 0), "the second slot starts zeroed");
    assert_eq!(ArtifactCache::new(&dir).lifetime_stats(), stats, "the counters restarted");
    drop(cache);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_5_profile_reads_as_a_miss_and_is_republished_at_version_6() {
    let dir = scratch("profile-v5");
    let w = workload(0.02);
    let key = ProfileCacheKey::for_workload(&w);
    let cache = ArtifactCache::new(&dir);
    let (profile, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
    assert!(!cached);
    drop(cache);
    let path = dir.join(ENTRY_NAMES[0]);
    let current = fs::read(&path).unwrap();

    // The (length, FNV-1a) pin format version 5's golden layout test held.
    downgrade_profile_to_v5(&path);
    let bytes = fs::read(&path).unwrap();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (8020, 0x2d14_d943_4a1d_c300), "version-5 bytes");

    let cache = ArtifactCache::new(&dir);
    assert!(cache.load(&key).unwrap().is_none(), "a version-5 entry is a miss");
    let (again, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
    assert!(!cached, "recomputed");
    assert_eq!(again, profile);
    let stats = cache.stats();
    assert_eq!((stats.profile_misses, stats.degraded_loads), (1, 0), "{stats:?}");
    drop(cache);
    assert_eq!(fs::read(&path).unwrap(), current, "republished at version 6");
    assert_eq!(ArtifactCache::new(&dir).load(&key).unwrap().unwrap(), profile);
    fs::remove_dir_all(&dir).ok();
}
