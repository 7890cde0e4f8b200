//! Two-tier content-addressed cache of pipeline artifacts.
//!
//! The paper's central economy is amortization: the one-time artifacts of the
//! pipeline — the signature profile and the barrierpoint selection — serve
//! *many* detailed simulations, and (Figure 6) even transfer across machine
//! configurations.  [`ArtifactCache`] keeps four artifact kinds — profiles,
//! selections, simulated legs, and region-segment checkpoints — so that
//! design-space sweeps pay their one-time costs exactly once, in **two
//! tiers**:
//!
//! * a **memory tier**: decoded artifacts (`Arc<ApplicationProfile>`,
//!   `Arc<BarrierPointSelection>`, `Arc<Simulated>`,
//!   `Arc<WorkloadCheckpoints>`) held in-process, shared across clones of
//!   the cache like the stat counters.  A memory hit is a pointer clone — no
//!   I/O, no deserialization — which is what makes warm *in-process*
//!   re-sweeps drop below the disk tier's decode floor.  The tier has its
//!   own LRU order and byte bound ([`ArtifactCache::with_memory_max_bytes`],
//!   charged at serialized entry size, which for a profile is about a third
//!   of its resident size).
//! * a **disk tier**: the persistent, self-validating entry files that
//!   survive the process and carry the amortization across runs.
//!
//! Lookups check memory first and fall back to disk; a successful disk decode
//! populates the memory tier, and stores write through both tiers.  Keying is
//! identical in both tiers:
//!
//! * **Profiles** are keyed by the workload's
//!   [`profile_fingerprint`](Workload::profile_fingerprint) (a content
//!   address over everything that determines the traces: name, thread count,
//!   seed, scale, phase structure).
//! * **Selections** are keyed by the same fingerprint *plus* a fingerprint of
//!   the [`SignatureConfig`] and the selection strategy
//!   ([`SelectionStrategy::fingerprint_bytes`]) that produced them, so a
//!   changed clustering parameter — of any backend — can never alias a
//!   cached selection.  The default SimPoint strategy's bytes equal the
//!   serialized `SimPointConfig` the key hashed historically, keeping warm
//!   caches valid across the strategy seam.
//! * **Simulated legs** are keyed by the leg workload's fingerprint, the
//!   selection *content* fingerprint, and a fingerprint of the
//!   `(SimConfig, WarmupKind)` pair.
//! * **Checkpoints** are keyed like profiles, under their own extension:
//!   they depend on the trace alone.
//!
//! Each kind is declared in one place, its key type's `ArtifactKind` impl
//! (magic, extension, key echo, artifact type, memory-tier variant, stat
//! counters); one generic path does every lookup, store and encode for all
//! four.
//!
//! Disk entries are self-validating: a magic number, a format version, and
//! the full key are stored in the header, and every entry carries a trailing
//! word-wise checksum of its bytes.  Any mismatch — version bump, fingerprint
//! collision on the truncated file name, torn tail, a single flipped payload
//! bit — is treated as a miss rather than an error (a later store self-heals
//! the entry).  An entry is marked recently-used only *after* it decodes
//! successfully, so corrupt or stale garbage can never be promoted over
//! valid entries in the disk tier's LRU order.  Only genuine I/O failures
//! surface as [`Error::ProfileCache`].
//!
//! The cache keeps shared hit/miss counters ([`ArtifactCache::stats`];
//! clones share them, and every counter distinguishes the serving tier) and
//! the disk tier can be size-bounded with
//! [`ArtifactCache::with_max_bytes`], which evicts least-recently-used
//! entries (by file modification time — successful loads touch entries)
//! after every store.
//!
//! # Robustness (see `STORAGE.md`)
//!
//! Every disk operation flows through the [`Storage`] seam
//! ([`ArtifactCache::with_storage`]), so the failure paths below are
//! deterministically testable with [`crate::storage::FaultFs`]:
//!
//! * **Degrade to recompute** — the `load_or_*`/probe paths classify I/O
//!   failures ([`classify_io_error`]): transient kinds are retried a
//!   bounded number of times with capped backoff; persistent failures are
//!   treated as a miss (load) or a skipped disk store (store), so a sweep
//!   outlives a full disk or an unreadable entry.  Every artifact is
//!   recomputable — losing the cache costs time, never correctness.  The
//!   `degraded_loads`/`degraded_stores`/`retries` counters record it.  The
//!   raw `load*`/`store*` API keeps strict [`Error::ProfileCache`] errors.
//! * **Cross-process safety** — eviction and orphan-tmp cleanup run under
//!   an advisory `.lock` file (create-exclusive, stale-holder takeover by
//!   pid+timestamp), so two processes' scans cannot double-count or delete
//!   each other's just-renamed entries, and a live writer's tmp file
//!   cannot be reaped mid-store.  Contention skips the scan (deferring the
//!   bound to a later store) and bumps `lock_contended`.
//! * **Crash consistency** — entries become visible only by atomic rename
//!   of a fully written tmp file and self-validate on load, so a reopened
//!   cache serves either the bit-identical artifact or a clean miss, never
//!   corruption (pinned by the kill-point torture suite,
//!   `tests/storage_torture.rs`).
//!
//! Session counters can be persisted across restarts: a versioned,
//! corrupt-tolerant `cache-state` file written by [`ArtifactCache::flush`]
//! (and on drop of the last handle) and merged into
//! [`ArtifactCache::lifetime_stats`] — a bad state file resets the lifetime
//! view, it never errors.  It holds two slots in the same sealed container
//! as the entries, and a flush overwrites the older slot in place.

use crate::error::{classify_io_error, Error, IoErrorClass};
use crate::memtier::MemoryTier;
use crate::profile::{profile_application_with, ApplicationProfile};
use crate::segment::WorkloadCheckpoints;
use crate::select::BarrierPointSelection;
use crate::simulate::WarmupKind;
use crate::stages::Simulated;
use crate::storage::{RealFs, Storage};
use bp_clustering::SelectionStrategy;
use bp_exec::{ExecutionPolicy, Mutex};
use bp_signature::SignatureConfig;
use bp_sim::SimConfig;
use bp_workload::{FingerprintHasher, Workload};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Bump whenever the serialized layout of a cached artifact (or the entry
/// header) changes, or an artifact kind is added; old entries then read as
/// misses and are overwritten.  Version 3 added the trailing integrity
/// checksum (see [`encode_sealed`]).  Version 4 added the region-segment
/// checkpoint (`ckpt`) artifact kind.  Version 5 stores each LDV as its
/// populated bucket prefix (`bp_signature::Ldv`'s codec) and seals entries
/// with the word-wise [`seal_checksum`] instead of byte-wise FNV-1a.
const FORMAT_VERSION: u32 = 5;

/// Name of the persisted-statistics file inside the cache directory.  No
/// artifact extension, so the eviction scan neither counts nor deletes it.
const STATE_FILE: &str = "cache-state";
/// Magic bytes at the start of the persisted-statistics file.
const STATE_MAGIC: &[u8; 4] = b"BPST";
/// Version of the persisted-statistics layout; a mismatch resets the
/// lifetime view instead of erroring.  Version 2 added the trailing
/// integrity checksum (see [`encode_sealed`]); version 3 added the
/// checkpoint-kind counters; version 4 moved to the word-wise
/// [`seal_checksum`]; version 5 made the file two fixed-size slots, each a
/// sealed generation number plus the counters, which a flush overwrites in
/// place (see [`ArtifactCache::flush`]).  A directory written before a bump
/// therefore starts its lifetime counters again from zero.
const STATE_VERSION: u32 = 5;
/// Bytes of one `cache-state` slot ([`encode_state`]): magic, version,
/// generation, the counters, seal.  The file is exactly two slots.
const STATE_SLOT_LEN: usize = 4 + 4 + 8 + 8 * STATS_FIELDS + 8;
/// Name of the advisory lock file serializing eviction and orphan cleanup
/// across processes.  Leading dot: `Path::extension` is `None`, so the scan
/// ignores it.
const LOCK_FILE: &str = ".lock";
/// Maximum storage attempts per primitive operation (1 initial + retries)
/// for transiently failing I/O.
const MAX_IO_ATTEMPTS: u32 = 3;
/// Base backoff between retries; doubles per retry (1ms, 2ms — bounded by
/// `MAX_IO_ATTEMPTS`, so the total added latency is at most 3ms).
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Attempts to acquire the advisory lock before declaring contention and
/// skipping the guarded scan.
const LOCK_ATTEMPTS: u32 = 8;
/// Sleep between lock acquisition attempts while the holder looks live.
const LOCK_RETRY_SLEEP: Duration = Duration::from_millis(1);
/// Default age after which a lock holder is presumed dead and taken over.
const DEFAULT_LOCK_STALE_AFTER: Duration = Duration::from_secs(30);
/// Minimum age before an orphaned tmp (or takeover leftover) is reaped by
/// the lock-guarded cleanup.  The lock already excludes every writer that
/// cooperates; the grace period protects the tmp files of a writer that
/// proceeded *without* the lock (contention degraded it) from being reaped
/// mid-store.
const ORPHAN_GRACE: Duration = Duration::from_secs(5);

/// Process-wide sequence for unique tmp/takeover file names: two threads of
/// one process storing the same key must not share a tmp path, or the
/// loser's rename fails on the path the winner already consumed.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Draws the next unique per-process file-name sequence number.
fn next_seq() -> u64 {
    // ordering: Relaxed — the sequence only needs per-process uniqueness,
    // which fetch_add's atomicity alone provides.
    TMP_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Milliseconds since the UNIX epoch (0 if the clock predates it).
fn epoch_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or_default()
}

/// The content address of one profile: everything the cache needs to locate
/// and validate an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileCacheKey {
    workload_name: String,
    threads: usize,
    fingerprint: u64,
}

impl ProfileCacheKey {
    /// Computes the key for `workload`.
    pub fn for_workload<W: Workload + ?Sized>(workload: &W) -> Self {
        Self {
            workload_name: workload.name().to_string(),
            threads: workload.num_threads(),
            fingerprint: workload.profile_fingerprint(),
        }
    }

    /// The workload name component.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The content fingerprint component.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The content address of one workload's region-segment checkpoints
/// ([`WorkloadCheckpoints`]): the same identity as a profile — workload
/// name, thread count, content fingerprint — under its own extension, so
/// one checkpoint set exists per workload content.  Configuration knobs
/// (signature config, strategy) are deliberately *not* part of the key:
/// checkpoints capture the recency engine's state along the trace, which
/// depends only on the trace itself, so one cold walk's checkpoints serve
/// every later re-walk of that workload regardless of why it re-walks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckpointCacheKey(ProfileCacheKey);

impl CheckpointCacheKey {
    /// Computes the key for `workload`.
    pub fn for_workload<W: Workload + ?Sized>(workload: &W) -> Self {
        Self(ProfileCacheKey::for_workload(workload))
    }

    /// The workload name component.
    pub fn workload_name(&self) -> &str {
        self.0.workload_name()
    }

    /// The content fingerprint component.
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }
}

/// The content address of one barrierpoint selection: the profile's identity
/// plus a fingerprint of the `(SignatureConfig, SelectionStrategy)` pair
/// that derived the selection from it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelectionCacheKey {
    workload_name: String,
    threads: usize,
    profile_fingerprint: u64,
    config_fingerprint: u64,
}

impl SelectionCacheKey {
    /// Computes the key for selecting barrierpoints from `profile_key`'s
    /// profile under `(signature_config, strategy)`.
    ///
    /// The configuration fingerprint hashes the serialized signature config
    /// followed by the strategy's identity bytes
    /// ([`SelectionStrategy::fingerprint_bytes`]).  For the default SimPoint
    /// strategy those bytes are exactly the serialized `SimPointConfig`, so
    /// the fingerprint — and with it the entry's file name — is unchanged
    /// from the pre-seam `(SignatureConfig, SimPointConfig)` derivation.
    pub fn new(
        profile_key: &ProfileCacheKey,
        signature_config: &SignatureConfig,
        strategy: &dyn SelectionStrategy,
    ) -> Self {
        let mut hasher = FingerprintHasher::new();
        hasher.write_bytes(&serde::to_vec(signature_config));
        hasher.write_bytes(&strategy.fingerprint_bytes());
        Self {
            workload_name: profile_key.workload_name.clone(),
            threads: profile_key.threads,
            profile_fingerprint: profile_key.fingerprint,
            config_fingerprint: hasher.finish(),
        }
    }

    /// Computes the key for `workload` under `(signature_config, strategy)`.
    pub fn for_workload<W: Workload + ?Sized>(
        workload: &W,
        signature_config: &SignatureConfig,
        strategy: &dyn SelectionStrategy,
    ) -> Self {
        Self::new(&ProfileCacheKey::for_workload(workload), signature_config, strategy)
    }

    /// The fingerprint of the profile the selection derives from.
    pub fn profile_fingerprint(&self) -> u64 {
        self.profile_fingerprint
    }

    /// The fingerprint of the `(SignatureConfig, SelectionStrategy)` pair.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }
}

/// The content address of one detailed-simulation leg: the identity of the
/// workload instance that was simulated, the *content* of the barrierpoint
/// selection that drove it, and a fingerprint of the machine configuration
/// plus warmup technique.
///
/// Keying by selection content (not by how the selection was derived) means
/// a leg cached by one sweep is hit by any other pipeline arriving at the
/// same selection — including cross-core-count legs, where the selection
/// transfers across workload builds (the leg workload's own fingerprint
/// keeps those from aliasing).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimulatedCacheKey {
    workload_name: String,
    threads: usize,
    workload_fingerprint: u64,
    selection_fingerprint: u64,
    config_fingerprint: u64,
}

impl SimulatedCacheKey {
    /// Computes the key for simulating `selection`'s barrierpoints of
    /// `workload` on `sim_config` under `warmup`.
    pub fn new<W: Workload + ?Sized>(
        workload: &W,
        selection: &BarrierPointSelection,
        sim_config: &SimConfig,
        warmup: WarmupKind,
    ) -> Self {
        Self {
            workload_name: workload.name().to_string(),
            threads: workload.num_threads(),
            workload_fingerprint: workload.profile_fingerprint(),
            selection_fingerprint: selection.fingerprint(),
            config_fingerprint: sim_config_fingerprint(sim_config, warmup),
        }
    }

    /// Assembles a key from precomputed components — how
    /// [`Sweep::run`](crate::Sweep::run) derives one key per grid cell from
    /// components it computes once per run (each point's workload and
    /// machine, each strategy's selection content).
    pub(crate) fn from_parts(
        workload_name: String,
        threads: usize,
        workload_fingerprint: u64,
        selection_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Self {
        Self {
            workload_name,
            threads,
            workload_fingerprint,
            selection_fingerprint,
            config_fingerprint,
        }
    }

    /// The fingerprint of the selection content the leg was driven by.
    pub fn selection_fingerprint(&self) -> u64 {
        self.selection_fingerprint
    }

    /// The fingerprint of the `(SimConfig, WarmupKind)` pair.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }
}

/// The fingerprint of one `(SimConfig, WarmupKind)` pair — the machine
/// component of a [`SimulatedCacheKey`].
pub(crate) fn sim_config_fingerprint(sim_config: &SimConfig, warmup: WarmupKind) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(&serde::to_vec(sim_config));
    hasher.write_str(warmup.name());
    hasher.finish()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// One artifact kind of the cache, declared in exactly one place: the impl
/// of this trait on the kind's key type names the entry magic, the file
/// extension, the key echo, the artifact type, the memory-tier variant, and
/// the kind's statistics counters.  Everything else — the tiered lookup,
/// the strict and degrading loads and stores, probe accounting, and the
/// sealed entry codec — is one generic path over this trait.  Adding a kind
/// means one impl, one magic, one extension, and a [`FORMAT_VERSION`] bump.
pub(crate) trait ArtifactKind {
    /// The decoded artifact stored under keys of this kind.
    type Artifact: Serialize + Deserialize + Clone;
    /// The key's fingerprints, as a fixed-size array.
    type Fingerprints: AsRef<[u64]>;
    /// Magic bytes at the start of every entry of this kind.
    const MAGIC: &'static [u8; 4];
    /// File extension of this kind's entries (also the eviction scan filter).
    const EXT: &'static str;
    /// Index of this kind's memory-hit counter in [`CacheStats::as_array`]
    /// order; its disk-hit and miss counters follow it.
    const STATS: usize;

    /// The key echo — workload name, thread count, fingerprints — in the
    /// order both the file name and the entry header carry it.
    fn echo(&self) -> (&str, usize, Self::Fingerprints);

    /// This key in the memory tier's key space.
    fn memory_key(&self) -> MemoryKey;

    /// Wraps an artifact of this kind for the memory tier.
    fn into_memory(artifact: Arc<Self::Artifact>) -> MemoryArtifact;

    /// Unwraps a memory-tier artifact of this kind.
    fn from_memory(artifact: MemoryArtifact) -> Option<Arc<Self::Artifact>>;

    /// File name of this entry inside a cache directory: human-readable
    /// prefix plus the full fingerprints in hex.
    fn file_name(&self) -> String {
        let (name, threads, fingerprints) = self.echo();
        let mut file = format!("{}-{threads}t", sanitize(name));
        for fingerprint in fingerprints.as_ref() {
            let _ = write!(file, "-{fingerprint:016x}");
        }
        let _ = write!(file, ".{}", Self::EXT);
        file
    }

    /// Encodes `artifact` as this key's sealed entry: the key echo, then the
    /// serialized artifact.
    fn encode(&self, artifact: &Self::Artifact) -> Vec<u8> {
        let (name, threads, fingerprints) = self.echo();
        encode_sealed(Self::MAGIC, FORMAT_VERSION, |out| {
            out.write_str(name);
            out.write_u64(threads as u64);
            for &fingerprint in fingerprints.as_ref() {
                out.write_u64(fingerprint);
            }
            artifact.serialize(out);
        })
    }

    /// Decodes an entry, returning `None` for anything that does not match
    /// this key exactly (wrong magic/version/key, torn or trailing bytes, a
    /// broken seal).
    fn decode(&self, bytes: &[u8]) -> Option<Self::Artifact> {
        let (name, threads, fingerprints) = self.echo();
        decode_sealed(bytes, Self::MAGIC, FORMAT_VERSION, |de| {
            let name_len = de.read_len().ok()?;
            let echoed = de.read_bytes(name_len).ok()? == name.as_bytes()
                && de.read_u64().ok()? == threads as u64
                && fingerprints.as_ref().iter().all(|&fp| de.read_u64().ok() == Some(fp));
            if !echoed {
                return None;
            }
            Self::Artifact::deserialize(de).ok()
        })
    }
}

impl ArtifactKind for ProfileCacheKey {
    type Artifact = ApplicationProfile;
    type Fingerprints = [u64; 1];
    const MAGIC: &'static [u8; 4] = b"BPPF";
    const EXT: &'static str = "bpprof";
    const STATS: usize = 0;

    fn echo(&self) -> (&str, usize, [u64; 1]) {
        (&self.workload_name, self.threads, [self.fingerprint])
    }

    fn memory_key(&self) -> MemoryKey {
        MemoryKey::Profile(self.clone())
    }

    fn into_memory(artifact: Arc<ApplicationProfile>) -> MemoryArtifact {
        MemoryArtifact::Profile(artifact)
    }

    fn from_memory(artifact: MemoryArtifact) -> Option<Arc<ApplicationProfile>> {
        let MemoryArtifact::Profile(artifact) = artifact else { return None };
        Some(artifact)
    }
}

impl ArtifactKind for SelectionCacheKey {
    type Artifact = BarrierPointSelection;
    type Fingerprints = [u64; 2];
    const MAGIC: &'static [u8; 4] = b"BPSL";
    const EXT: &'static str = "bpsel";
    const STATS: usize = 3;

    fn echo(&self) -> (&str, usize, [u64; 2]) {
        (&self.workload_name, self.threads, [self.profile_fingerprint, self.config_fingerprint])
    }

    fn memory_key(&self) -> MemoryKey {
        MemoryKey::Selection(self.clone())
    }

    fn into_memory(artifact: Arc<BarrierPointSelection>) -> MemoryArtifact {
        MemoryArtifact::Selection(artifact)
    }

    fn from_memory(artifact: MemoryArtifact) -> Option<Arc<BarrierPointSelection>> {
        let MemoryArtifact::Selection(artifact) = artifact else { return None };
        Some(artifact)
    }
}

impl ArtifactKind for SimulatedCacheKey {
    type Artifact = Simulated;
    type Fingerprints = [u64; 3];
    const MAGIC: &'static [u8; 4] = b"BPSM";
    const EXT: &'static str = "bpsim";
    const STATS: usize = 6;

    fn echo(&self) -> (&str, usize, [u64; 3]) {
        let fingerprints =
            [self.workload_fingerprint, self.selection_fingerprint, self.config_fingerprint];
        (&self.workload_name, self.threads, fingerprints)
    }

    fn memory_key(&self) -> MemoryKey {
        MemoryKey::Simulated(self.clone())
    }

    fn into_memory(artifact: Arc<Simulated>) -> MemoryArtifact {
        MemoryArtifact::Simulated(artifact)
    }

    fn from_memory(artifact: MemoryArtifact) -> Option<Arc<Simulated>> {
        let MemoryArtifact::Simulated(artifact) = artifact else { return None };
        Some(artifact)
    }
}

impl ArtifactKind for CheckpointCacheKey {
    type Artifact = WorkloadCheckpoints;
    type Fingerprints = [u64; 1];
    const MAGIC: &'static [u8; 4] = b"BPCK";
    const EXT: &'static str = "bpckpt";
    const STATS: usize = 9;

    fn echo(&self) -> (&str, usize, [u64; 1]) {
        self.0.echo()
    }

    fn memory_key(&self) -> MemoryKey {
        MemoryKey::Checkpoint(self.clone())
    }

    fn into_memory(artifact: Arc<WorkloadCheckpoints>) -> MemoryArtifact {
        MemoryArtifact::Checkpoint(artifact)
    }

    fn from_memory(artifact: MemoryArtifact) -> Option<Arc<WorkloadCheckpoints>> {
        let MemoryArtifact::Checkpoint(artifact) = artifact else { return None };
        Some(artifact)
    }
}

/// A cache hit: the shared artifact, and whether the memory tier served it.
type Hit<T> = (Arc<T>, bool);

/// File extensions of the artifact kinds: the eviction scan counts (and
/// may delete) exactly these files.
const KIND_EXTENSIONS: [&str; 4] =
    [ProfileCacheKey::EXT, SelectionCacheKey::EXT, SimulatedCacheKey::EXT, CheckpointCacheKey::EXT];

/// Encodes one sealed container — magic, version, `payload`'s bytes, then a
/// trailing [`seal_checksum`] of everything before it.  Every entry kind and
/// the `cache-state` file use it.  Magic, version, and key echo catch
/// truncation and foreign files; the checksum is what catches *payload*
/// damage — a bit flip in the metrics region of an otherwise well-formed
/// entry would decode cleanly and be served as truth without it.
fn encode_sealed(
    magic: &[u8; 4],
    version: u32,
    payload: impl FnOnce(&mut serde::Serializer),
) -> Vec<u8> {
    let mut out = serde::Serializer::new();
    out.write_bytes(magic);
    out.write_u32(version);
    payload(&mut out);
    let mut bytes = out.into_bytes();
    let checksum = seal_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Decodes [`encode_sealed`]'s container: `None` unless the checksum
/// verifies, magic and version match, and `payload` succeeds consuming the
/// remaining bytes exactly.
fn decode_sealed<T>(
    bytes: &[u8],
    magic: &[u8; 4],
    version: u32,
    payload: impl FnOnce(&mut serde::Deserializer<'_>) -> Option<T>,
) -> Option<T> {
    let (sealed, checksum) = bytes.split_at(bytes.len().checked_sub(8)?);
    if seal_checksum(sealed).to_le_bytes() != checksum {
        return None;
    }
    let mut de = serde::Deserializer::new(sealed);
    if de.read_bytes(magic.len()).ok()? != magic || de.read_u32().ok()? != version {
        return None;
    }
    let value = payload(&mut de)?;
    (de.remaining() == 0).then_some(value)
}

/// The seal's checksum: `bytes` folded one 8-byte little-endian word at a
/// time (the tail zero-padded), then the byte length, then a final mix.
///
/// Each step `rotl((state ^ word) · K, 31)` is a bijection of the word for
/// a given state, and every later step and the final mix are bijections of
/// the state, so damage confined to one word — any single bit flip, any
/// torn byte run within 8 aligned bytes — always changes the checksum.
/// The rotate moves the product's top bits, which a multiply never carries
/// out of, to the middle of the word before the next multiply: without it,
/// flipping the top bit of two different words would cancel.  The length
/// separates inputs that differ only by trailing zero bytes.  The constants
/// are fixed here, not taken from `std`'s hasher, so entries stay readable
/// across Rust releases.  This is an integrity check against storage rot
/// and torn writes, not an adversarial MAC; fingerprints and key digests
/// keep using [`FingerprintHasher`].
fn seal_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |state: u64, word: u64| (state ^ word).wrapping_mul(K).rotate_left(31);
    let mut words = bytes.chunks_exact(8);
    let mut state = 0xcbf2_9ce4_8422_2325;
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        state = step(state, u64::from_le_bytes(le));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut le = [0u8; 8];
        le[..tail.len()].copy_from_slice(tail);
        state = step(state, u64::from_le_bytes(le));
    }
    // The murmur3 finalizer: every output bit depends on every state bit.
    let mut h = step(state, bytes.len() as u64);
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Encodes one `cache-state` slot: its generation, then the counters in
/// [`CacheStats::as_array`] order, in a sealed container of
/// [`STATE_SLOT_LEN`] bytes.
fn encode_state(generation: u64, stats: &CacheStats) -> Vec<u8> {
    encode_sealed(STATE_MAGIC, STATE_VERSION, |out| {
        out.write_u64(generation);
        stats.as_array().into_iter().for_each(|value| out.write_u64(value));
    })
}

/// Decodes one `cache-state` slot into its generation and counters.
/// Anything unexpected — wrong magic, other version, torn or trailing
/// bytes — returns `None`: the slot does not count.
fn decode_state(bytes: &[u8]) -> Option<(u64, CacheStats)> {
    decode_sealed(bytes, STATE_MAGIC, STATE_VERSION, |de| {
        let generation = de.read_u64().ok()?;
        let mut values = [0u64; STATS_FIELDS];
        for value in &mut values {
            *value = de.read_u64().ok()?;
        }
        Some((generation, CacheStats::from_array(values)))
    })
}

/// The valid slot with the highest generation in a `cache-state` file's
/// bytes, as `(slot index, generation, counters)`.  `None` — which the
/// caller treats as a zero base, statistics reset, they never fail the
/// cache — unless the file is exactly two slots long and one of them
/// decodes.
fn newest_state_slot(bytes: &[u8]) -> Option<(usize, u64, CacheStats)> {
    if bytes.len() != 2 * STATE_SLOT_LEN {
        return None;
    }
    bytes
        .chunks_exact(STATE_SLOT_LEN)
        .enumerate()
        .filter_map(|(slot, bytes)| {
            decode_state(bytes).map(|(generation, stats)| (slot, generation, stats))
        })
        .max_by_key(|&(_, generation, _)| generation)
}

/// A point-in-time snapshot of a cache's hit/miss counters.
///
/// Counters are shared between clones of an [`ArtifactCache`], so one
/// snapshot accounts for every pipeline and sweep using that cache.  Hits
/// are split by serving tier: `*_memory_hits` were pointer clones of an
/// already-decoded artifact, `*_hits` were disk reads plus a decode (which
/// then populated the memory tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Profile lookups served from the in-process memory tier (no disk
    /// read, no decode).
    pub profile_memory_hits: u64,
    /// Profile lookups that were served from disk.
    pub profile_hits: u64,
    /// Profile lookups that had to re-profile (including corrupt entries).
    pub profile_misses: u64,
    /// Selection lookups served from the in-process memory tier.
    pub selection_memory_hits: u64,
    /// Selection lookups that were served from disk.
    pub selection_hits: u64,
    /// Selection lookups that had to re-cluster (including corrupt entries).
    pub selection_misses: u64,
    /// Simulated-leg lookups served from the in-process memory tier.
    pub simulated_memory_hits: u64,
    /// Simulated-leg lookups that were served from disk (the detailed
    /// simulation was skipped entirely).
    pub simulated_hits: u64,
    /// Simulated-leg lookups that had to simulate (including corrupt
    /// entries).
    pub simulated_misses: u64,
    /// Region-segment checkpoint lookups served from the in-process memory
    /// tier.
    pub checkpoint_memory_hits: u64,
    /// Region-segment checkpoint lookups that were served from disk.
    pub checkpoint_hits: u64,
    /// Region-segment checkpoint lookups that missed (including corrupt
    /// entries) — the next cold walk re-emits them.
    pub checkpoint_misses: u64,
    /// Disk entries deleted by LRU eviction.
    pub evictions: u64,
    /// Memory-tier entries dropped by its byte-bound LRU eviction (the disk
    /// copy survives, so a later lookup degrades to a disk hit, not a miss).
    pub memory_evictions: u64,
    /// Lookups whose disk read failed persistently (after retries) and
    /// degraded to a recompute instead of failing the caller.
    pub degraded_loads: u64,
    /// Stores whose disk write failed persistently (after retries) and were
    /// skipped — the artifact stayed resident in the memory tier only.
    pub degraded_stores: u64,
    /// Transient I/O failures that were retried (one count per retry, not
    /// per operation).
    pub retries: u64,
    /// Times the advisory lock could not be acquired and the guarded
    /// eviction/cleanup scan was skipped for that store.
    pub lock_contended: u64,
}

/// Number of `u64` counters in [`CacheStats`] (the persisted layout).
const STATS_FIELDS: usize = 18;

// Positions of the non-kind counters in `CacheStats::as_array` order (each
// kind's three counters start at its `ArtifactKind::STATS`).
const EVICTIONS: usize = 12;
const MEMORY_EVICTIONS: usize = 13;
const DEGRADED_LOADS: usize = 14;
const DEGRADED_STORES: usize = 15;
const RETRIES: usize = 16;
const LOCK_CONTENDED: usize = 17;

impl CacheStats {
    /// Total lookups served from the memory tier, over all artifact kinds.
    pub fn memory_hits(&self) -> u64 {
        self.profile_memory_hits
            + self.selection_memory_hits
            + self.simulated_memory_hits
            + self.checkpoint_memory_hits
    }

    /// Total lookups served from the disk tier, over all artifact kinds.
    pub fn disk_hits(&self) -> u64 {
        self.profile_hits + self.selection_hits + self.simulated_hits + self.checkpoint_hits
    }

    /// The field-wise (saturating) sum of two snapshots — how a persisted
    /// base merges with the current session's counters.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        let (a, b) = (self.as_array(), other.as_array());
        CacheStats::from_array(std::array::from_fn(|i| a[i].saturating_add(b[i])))
    }

    /// The counters in their fixed persisted order.
    fn as_array(&self) -> [u64; STATS_FIELDS] {
        [
            self.profile_memory_hits,
            self.profile_hits,
            self.profile_misses,
            self.selection_memory_hits,
            self.selection_hits,
            self.selection_misses,
            self.simulated_memory_hits,
            self.simulated_hits,
            self.simulated_misses,
            self.checkpoint_memory_hits,
            self.checkpoint_hits,
            self.checkpoint_misses,
            self.evictions,
            self.memory_evictions,
            self.degraded_loads,
            self.degraded_stores,
            self.retries,
            self.lock_contended,
        ]
    }

    /// Rebuilds a snapshot from [`as_array`](Self::as_array)'s order.
    fn from_array(values: [u64; STATS_FIELDS]) -> Self {
        Self {
            profile_memory_hits: values[0],
            profile_hits: values[1],
            profile_misses: values[2],
            selection_memory_hits: values[3],
            selection_hits: values[4],
            selection_misses: values[5],
            simulated_memory_hits: values[6],
            simulated_hits: values[7],
            simulated_misses: values[8],
            checkpoint_memory_hits: values[9],
            checkpoint_hits: values[10],
            checkpoint_misses: values[11],
            evictions: values[12],
            memory_evictions: values[13],
            degraded_loads: values[14],
            degraded_stores: values[15],
            retries: values[16],
            lock_contended: values[17],
        }
    }
}

#[derive(Debug, Default)]
struct StatCounters {
    /// The session counters, in [`CacheStats::as_array`] order.
    counters: [AtomicU64; STATS_FIELDS],
    /// The persisted base loaded (lazily, once) from the `cache-state`
    /// file; [`ArtifactCache::lifetime_stats`] adds the session counters.
    persisted_base: Mutex<Option<CacheStats>>,
}

impl StatCounters {
    /// Counts one event on the counter at `index`.
    fn bump(&self, index: usize) {
        // ordering: Relaxed — monotonic telemetry with no release
        // obligation; `stats()` snapshots carry no ordering relationship to
        // the counted events, and cross-thread counts are reconciled by the
        // caller's own joins (e.g. a sweep reads stats only after its legs
        // complete).
        self.counters[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots every counter.
    fn snapshot(&self) -> CacheStats {
        // ordering: Relaxed — see `bump`.
        CacheStats::from_array(std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)))
    }
}

/// Key space of the memory tier — the same content addresses as the disk
/// tier, one variant per artifact kind so kinds can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum MemoryKey {
    Profile(ProfileCacheKey),
    Selection(SelectionCacheKey),
    Simulated(SimulatedCacheKey),
    Checkpoint(CheckpointCacheKey),
}

/// A decoded artifact held by the memory tier.  Cloning is a pointer clone.
#[derive(Debug, Clone)]
pub(crate) enum MemoryArtifact {
    Profile(Arc<ApplicationProfile>),
    Selection(Arc<BarrierPointSelection>),
    Simulated(Arc<Simulated>),
    Checkpoint(Arc<WorkloadCheckpoints>),
}

// The tier itself — one lock around the entries, the LRU clock, the byte
// total and the bound — lives in [`crate::memtier`], generic over key and
// value so its unit tests can drive it with small types.
// The cache instantiates it with the content-address keys and `Arc`-wrapped
// artifacts above; eviction is exact global LRU.

/// A two-tier cache of pipeline artifacts — [`ApplicationProfile`]s,
/// [`BarrierPointSelection`]s, [`Simulated`] legs and region-segment
/// [`WorkloadCheckpoints`] — keyed by workload and configuration content:
/// an in-process memory tier of decoded artifacts in front of a directory
/// of serialized entries.
///
/// ```
/// use barrierpoint::{ArtifactCache, BarrierPoint, ExecutionPolicy};
/// use bp_workload::{Benchmark, WorkloadConfig};
///
/// let dir = std::env::temp_dir().join(format!("bp-artifact-cache-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok();
/// let cache = ArtifactCache::new(&dir);
/// let workload = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
///
/// // The staged chain probes the cache at every stage and stores what it
/// // had to compute.
/// let first = BarrierPoint::new(&workload).with_cache(cache.clone()).profile()?.select()?;
/// assert!(!first.profile_was_cached() && !first.selection_was_cached());
///
/// // Second time around (same process), both one-time stages are pointer
/// // clones from the memory tier — stores write through both tiers.
/// let again = BarrierPoint::new(&workload).with_cache(cache.clone()).profile()?.select()?;
/// assert!(again.profile_was_cached() && again.selection_was_cached());
/// assert_eq!(first.selection(), again.selection());
/// assert_eq!(cache.stats().profile_memory_hits, 1);
/// assert_eq!(cache.stats().selection_memory_hits, 1);
///
/// // A fresh cache handle over the same directory starts with a cold
/// // memory tier and decodes from disk instead.
/// let reopened = ArtifactCache::new(&dir);
/// let (_, was_cached) = reopened.load_or_profile(&workload, &ExecutionPolicy::parallel())?;
/// assert!(was_cached);
/// assert_eq!(reopened.stats().profile_hits, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), barrierpoint::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
    max_bytes: Option<u64>,
    stats: Arc<StatCounters>,
    memory: Arc<MemoryTier<MemoryKey, MemoryArtifact>>,
    storage: Arc<dyn Storage>,
    lock_stale_after: Duration,
}

impl ArtifactCache {
    /// A cache rooted at `root` (created lazily on first store); both tiers
    /// unbounded, backed by the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            max_bytes: None,
            stats: Arc::default(),
            memory: Arc::default(),
            storage: Arc::new(RealFs::new()),
            lock_stale_after: DEFAULT_LOCK_STALE_AFTER,
        }
    }

    /// Replaces the storage backend — [`RealFs::durable`] for
    /// fsync-before-rename durability, or [`crate::storage::FaultFs`] in
    /// tests to inject faults into every disk path of the cache.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Overrides how old an advisory lock must be before a contender
    /// presumes its holder dead and takes it over (default 30s).  Torture
    /// tests shorten this so a simulated crash mid-store does not stall
    /// the reopened cache.
    pub fn with_lock_stale_after(mut self, stale_after: Duration) -> Self {
        self.lock_stale_after = stale_after;
        self
    }

    /// Bounds the cache's total on-disk size: after every store, entries are
    /// evicted least-recently-used first (by file modification time;
    /// successful loads touch entries) until the total drops to `max_bytes`
    /// or below.
    ///
    /// The bound is best-effort — a single entry larger than `max_bytes`
    /// is evicted only once a newer entry arrives.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Bounds the in-process memory tier (charged at serialized entry size):
    /// inserts drop least-recently-used memory entries until the tier fits.
    /// A dropped memory entry still has its disk copy, so later lookups
    /// degrade to disk hits, never to misses.  `0` disables the memory tier.
    ///
    /// The serialized size undercounts what a profile holds in memory: its
    /// entry stores each LDV's populated buckets only, while the decoded
    /// profile keeps all 48, so a profile is charged about a third of its
    /// resident size (npb-sp at 8 threads, scale 0.15: 5.0 MB charged,
    /// ≈15 MB resident).
    ///
    /// The memory tier is shared across clones, so the bound applies to (and
    /// is visible from) every clone of this cache.
    pub fn with_memory_max_bytes(self, max_bytes: u64) -> Self {
        self.memory.set_max_bytes(Some(max_bytes));
        self
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured size bound, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// A snapshot of the hit/miss/eviction counters, aggregated over every
    /// clone of this cache.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The lifetime view of the counters: the persisted base from the
    /// directory's `cache-state` file (loaded lazily, once per cache; a
    /// missing, corrupt, or stale-versioned file contributes zero — never
    /// an error) merged with this cache's session counters
    /// ([`stats`](Self::stats)).  Persist the merged view with
    /// [`flush`](Self::flush); the last handle to drop flushes
    /// automatically.
    pub fn lifetime_stats(&self) -> CacheStats {
        self.persisted_base().merged(&self.stats())
    }

    /// Loads (once) and caches the persisted statistics base.
    fn persisted_base(&self) -> CacheStats {
        let mut base = self.stats.persisted_base.lock();
        *base.get_or_insert_with(|| {
            self.read_state().map_or_else(CacheStats::default, |(_, _, stats)| stats)
        })
    }

    /// The newest valid slot of the directory's `cache-state` file, if any
    /// (see [`newest_state_slot`]).
    fn read_state(&self) -> Option<(usize, u64, CacheStats)> {
        let bytes = self.storage.read(&self.root.join(STATE_FILE)).ok()?;
        newest_state_slot(&bytes)
    }

    /// Persists the lifetime counters ([`lifetime_stats`](Self::lifetime_stats))
    /// to the directory's `cache-state` file.
    ///
    /// The file holds two sealed slots, each a generation number plus the
    /// counters, and readers take the valid slot with the higher generation.
    /// A flush reads the file once and overwrites the *other* slot in place
    /// ([`Storage::write_at`]) with the next generation, so a crash mid-flush
    /// tears at most that slot and the previous generation survives.  Only a
    /// missing, foreign, other-version or wrong-size file is replaced whole,
    /// by the tmp + rename publish the entries use.  A handle whose session
    /// counters are all zero writes nothing: writing back the base it read
    /// could overwrite a newer state another handle stored since.
    ///
    /// Best-effort by design: a cache whose directory was removed must not
    /// resurrect it from a drop path, so failures (including a missing root)
    /// are swallowed.
    pub fn flush(&self) {
        self.flush_counters(&self.stats);
    }

    /// [`flush`](Self::flush) for one shared-counter group; the drop path
    /// passes the counters it took out of the last handle.
    fn flush_counters(&self, counters: &StatCounters) {
        let session = counters.snapshot();
        if session == CacheStats::default() {
            return;
        }
        // Held across the write: two flushes of one counter group must not
        // both pick the same spare slot.
        let mut base = counters.persisted_base.lock();
        let current = self.read_state();
        let total = base
            .get_or_insert_with(|| current.map_or_else(CacheStats::default, |(_, _, stats)| stats))
            .merged(&session);
        let state = self.root.join(STATE_FILE);
        match current {
            Some((newest, generation, _)) => {
                let spare = (1 - newest) * STATE_SLOT_LEN;
                let slot = encode_state(generation.saturating_add(1), &total);
                let _ = self.storage.write_at(&state, spare as u64, &slot);
            }
            None => {
                // A new file: the state in slot 0, slot 1 zeroed (it never
                // decodes, so the next flush overwrites it).
                let mut file = encode_state(1, &total);
                file.resize(2 * STATE_SLOT_LEN, 0);
                let tmp =
                    state.with_extension(format!("tmp-{}-{}", std::process::id(), next_seq()));
                if self.storage.write(&tmp, &file).is_err()
                    || self.storage.rename(&tmp, &state).is_err()
                {
                    let _ = self.storage.remove_file(&tmp);
                }
            }
        }
    }

    /// The entry file of `key` inside the cache directory.
    fn entry_path<K: ArtifactKind>(&self, key: &K) -> PathBuf {
        self.root.join(key.file_name())
    }

    fn io_error(&self, path: &Path, err: &io::Error) -> Error {
        Error::ProfileCache { path: path.display().to_string(), message: err.to_string() }
    }

    /// Runs a storage operation, retrying transient failures
    /// ([`IoErrorClass::Transient`]) up to [`MAX_IO_ATTEMPTS`] total
    /// attempts with doubling backoff.  The bound is deterministic — no
    /// jitter — so fault-injected tests replay identically.
    fn retrying<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        for attempt in 1..MAX_IO_ATTEMPTS {
            match op() {
                Err(e) if classify_io_error(e.kind()) == IoErrorClass::Transient => {
                    self.stats.bump(RETRIES);
                    std::thread::sleep(RETRY_BACKOFF_BASE * (1 << (attempt - 1)));
                }
                other => return other,
            }
        }
        op()
    }

    /// Reads an entry file's raw bytes.  Missing files return `Ok(None)`;
    /// other I/O failures (after transient retries) are errors.
    ///
    /// Deliberately does *not* touch the entry for LRU: a read alone proves
    /// nothing — the payload may be corrupt or stale-versioned, and marking
    /// it recently used would let garbage outlive valid entries under a size
    /// bound.  [`lookup`](Self::lookup) touches only after a successful
    /// decode.
    fn read_entry(&self, path: &Path) -> Result<Option<Vec<u8>>, Error> {
        match self.retrying(|| self.storage.read(path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(self.io_error(path, &e)),
        }
    }

    /// Marks a *validated* entry as most recently used.  Best effort —
    /// filesystems without mtime updates degrade to FIFO.
    fn touch_entry(&self, path: &Path) {
        if self.max_bytes.is_some() {
            let _ = self.storage.set_mtime(path, SystemTime::now());
        }
    }

    /// Writes an entry through a temporary file and an atomic rename so that
    /// concurrent readers never observe a torn entry, then (under the
    /// advisory lock, for size-bounded caches) cleans up orphans and
    /// enforces the size bound.  The temporary name carries the process id
    /// *and* a process-wide sequence number: two threads of one process
    /// storing the same key must not share a tmp path, or the loser's
    /// rename fails on the path the winner already consumed.
    ///
    /// On any failure the tmp file is deleted — a failed store must not
    /// leak a torn or orphaned tmp for the cleanup scan to deal with.
    fn write_entry(&self, path: &Path, bytes: &[u8]) -> Result<(), Error> {
        self.retrying(|| self.storage.create_dir_all(&self.root))
            .map_err(|e| self.io_error(&self.root, &e))?;
        let lock = if self.max_bytes.is_some() { self.try_lock() } else { None };
        let tmp = path.with_extension(format!("tmp-{}-{}", std::process::id(), next_seq()));
        if let Err(e) = self.retrying(|| self.storage.write(&tmp, bytes)) {
            // A torn write can leave a partial tmp file behind.
            let _ = self.storage.remove_file(&tmp);
            return Err(self.io_error(&tmp, &e));
        }
        if let Err(e) = self.retrying(|| self.storage.rename(&tmp, path)) {
            let _ = self.storage.remove_file(&tmp);
            return Err(self.io_error(path, &e));
        }
        if lock.is_some() {
            self.clean_and_evict(path);
        }
        drop(lock);
        Ok(())
    }

    /// Tries to acquire the directory's advisory lock: create-exclusive
    /// `.lock` file carrying `pid` and a millisecond timestamp.  A lock
    /// older than [`Self::with_lock_stale_after`]'s bound is presumed
    /// abandoned (crashed holder) and taken over; takeover claims the stale
    /// file by *renaming* it to a unique name first, so two contenders can
    /// never both win the same stale lock.  Returns `None` (and counts the
    /// contention) if the lock stays held for [`LOCK_ATTEMPTS`] rounds.
    fn try_lock(&self) -> Option<DirLock<'_>> {
        let lock_path = self.root.join(LOCK_FILE);
        let body = format!("pid {} ts-ms {}\n", std::process::id(), epoch_ms());
        for _ in 0..LOCK_ATTEMPTS {
            match self.storage.create_new(&lock_path, body.as_bytes()) {
                Ok(()) => return Some(DirLock { cache: self }),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    if self.lock_is_stale(&lock_path) {
                        self.reap_stale_lock(&lock_path);
                        // Retry the create immediately — no sleep.
                    } else {
                        std::thread::sleep(LOCK_RETRY_SLEEP);
                    }
                }
                // Anything else (root vanished, injected fault): no lock.
                Err(_) => break,
            }
        }
        self.stats.bump(LOCK_CONTENDED);
        None
    }

    /// Whether the lock file's holder looks dead.  Prefers the timestamp
    /// embedded in the lock body; an unreadable or unparseable body (e.g.
    /// the holder died between creating the file and writing it) falls back
    /// to the file's mtime.  Unknowable states read as "live": a held lock
    /// must never be reaped on a hunch.
    fn lock_is_stale(&self, lock_path: &Path) -> bool {
        let stale_ms = self.lock_stale_after.as_millis() as u64;
        match self.storage.read(lock_path) {
            Ok(bytes) => match parse_lock_ts_ms(&bytes) {
                Some(ts) => epoch_ms().saturating_sub(ts) > stale_ms,
                None => self
                    .storage
                    .read_dir(&self.root)
                    .ok()
                    .and_then(|entries| entries.into_iter().find(|e| e.path == *lock_path))
                    .is_some_and(|e| {
                        e.modified.elapsed().unwrap_or_default() > self.lock_stale_after
                    }),
            },
            // Unreadable (often: released between create_new and here).
            Err(_) => false,
        }
    }

    /// Claims and removes a stale lock.  The rename is the claim: only one
    /// contender's rename of the stale file can succeed, so a racing pair
    /// cannot both proceed to hold the next lock generation.  (There is a
    /// small window between the staleness check and the rename in which the
    /// real holder could release and a new one appear; the harm is bounded
    /// to two concurrent *scans*, which degrade byte accounting, never
    /// entry integrity — see STORAGE.md.)
    fn reap_stale_lock(&self, lock_path: &Path) {
        let reap =
            self.root.join(format!("{LOCK_FILE}-reap-{}-{}", std::process::id(), next_seq()));
        if self.storage.rename(lock_path, &reap).is_ok() {
            let _ = self.storage.remove_file(&reap);
        }
    }

    /// Removes orphaned tmp files and enforces the size bound by deleting
    /// least-recently-used entries (oldest mtime first).  **Caller must
    /// hold the advisory lock**: the lock is what makes concurrent scans
    /// from two processes safe — without it they could double-count totals
    /// and delete each other's just-renamed entries.  `just_written` is
    /// exempt so a store can never evict its own entry.
    ///
    /// Orphan cleanup reaps tmp files (crashed writers, killed between
    /// write and rename) and takeover leftovers once they are older than
    /// [`ORPHAN_GRACE`] — long enough that a degraded writer operating
    /// without the lock has renamed or deleted its own tmp.  Orphans are
    /// not valid entries: they count toward neither the bound nor the
    /// eviction statistics.
    fn clean_and_evict(&self, just_written: &Path) {
        let Some(max_bytes) = self.max_bytes else { return };
        let Ok(entries) = self.storage.read_dir(&self.root) else { return };
        let now = SystemTime::now();
        let mut files: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        for entry in entries {
            let ext = entry.path.extension().and_then(|e| e.to_str());
            match ext {
                Some(ext) if KIND_EXTENSIONS.contains(&ext) => {
                    files.push((entry.modified, entry.len, entry.path));
                }
                _ => {
                    let name = entry.path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                    let orphan = ext.is_some_and(|e| e.starts_with("tmp-"))
                        || name.starts_with(concat!(".lock", "-reap-"));
                    let age = now.duration_since(entry.modified).unwrap_or_default();
                    if orphan && age >= ORPHAN_GRACE {
                        let _ = self.storage.remove_file(&entry.path);
                    }
                }
            }
        }
        let mut total: u64 = files.iter().map(|&(_, len, _)| len).sum();
        files.sort_by_key(|&(mtime, _, _)| mtime);
        for (_, len, path) in files {
            if total <= max_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            if self.storage.remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.stats.bump(EVICTIONS);
            }
        }
    }

    /// Inserts a decoded artifact into the memory tier, charged at its
    /// encoded entry size.
    fn remember<K: ArtifactKind>(&self, key: &K, artifact: Arc<K::Artifact>, bytes: usize) {
        let evictions = &self.stats.counters[MEMORY_EVICTIONS];
        self.memory.insert(key.memory_key(), K::into_memory(artifact), bytes as u64, evictions);
    }

    /// Tiered lookup of any artifact kind: memory first, then disk (a
    /// successful disk decode touches the entry and populates the memory
    /// tier).  The boolean is `true` when the memory tier served the hit.
    /// Stale-version, corrupt, or foreign entries are misses; only I/O
    /// failures other than the entry not existing are errors.
    fn lookup<K: ArtifactKind>(&self, key: &K) -> Result<Option<Hit<K::Artifact>>, Error> {
        if let Some(artifact) = self.memory.get(&key.memory_key()).and_then(K::from_memory) {
            return Ok(Some((artifact, true)));
        }
        let path = self.entry_path(key);
        let Some(bytes) = self.read_entry(&path)? else { return Ok(None) };
        let Some(artifact) = key.decode(&bytes) else { return Ok(None) };
        self.touch_entry(&path);
        let artifact = Arc::new(artifact);
        self.remember(key, artifact.clone(), bytes.len());
        Ok(Some((artifact, false)))
    }

    /// The strict load behind every `load*` method: [`lookup`](Self::lookup)
    /// without the tier flag and without hit/miss accounting.
    fn load_kind<K: ArtifactKind>(&self, key: &K) -> Result<Option<Arc<K::Artifact>>, Error> {
        Ok(self.lookup(key)?.map(|(artifact, _)| artifact))
    }

    /// The strict store behind every `store*` method: writes through both
    /// tiers, creating the cache directory if needed.  Unlike the
    /// `load_or_*` paths it does not degrade: the caller asked for
    /// persistence and learns when it did not happen (and the memory tier
    /// is then left untouched).
    fn store_kind<K: ArtifactKind>(&self, key: &K, artifact: &K::Artifact) -> Result<(), Error> {
        let artifact = Arc::new(artifact.clone());
        let bytes = key.encode(&artifact);
        self.write_entry(&self.entry_path(key), &bytes)?;
        self.remember(key, artifact, bytes.len());
        Ok(())
    }

    /// The logical lookup of any artifact kind, with per-tier hit/miss
    /// accounting: every lookup of the `load_or_*` paths, the staged
    /// pipeline and the sweep goes through here exactly once, bumping the
    /// kind's memory-hit, disk-hit or miss counter.  A persistent read
    /// failure is demoted to a miss (the artifact will be recomputed) and
    /// recorded in [`CacheStats::degraded_loads`] instead of failing the
    /// pipeline.
    pub(crate) fn probe<K: ArtifactKind>(&self, key: &K) -> Option<Arc<K::Artifact>> {
        let found = self.lookup(key).unwrap_or_else(|_| {
            self.stats.bump(DEGRADED_LOADS);
            None
        });
        let tier = match &found {
            Some((_, true)) => 0,
            Some((_, false)) => 1,
            None => 2,
        };
        self.stats.bump(K::STATS + tier);
        found.map(|(artifact, _)| artifact)
    }

    /// Write-through store of an already-shared artifact (no deep copy) on
    /// the degrade-to-recompute paths: a persistent disk failure skips the
    /// disk store and is recorded in [`CacheStats::degraded_stores`] instead
    /// of failing the pipeline over a cache that is only an optimization.
    /// The memory tier is populated either way.
    pub(crate) fn store_arc<K: ArtifactKind>(&self, key: &K, artifact: &Arc<K::Artifact>) {
        let bytes = key.encode(artifact);
        if self.write_entry(&self.entry_path(key), &bytes).is_err() {
            self.stats.bump(DEGRADED_STORES);
        }
        self.remember(key, artifact.clone(), bytes.len());
    }

    /// Looks up the profile stored under `key`, in either tier.
    ///
    /// Returns `Ok(None)` on a miss — including stale-version or corrupt
    /// disk entries, which a later [`store`](Self::store) will overwrite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] for I/O failures other than the entry
    /// not existing.
    pub fn load(&self, key: &ProfileCacheKey) -> Result<Option<Arc<ApplicationProfile>>, Error> {
        self.load_kind(key)
    }

    /// Persists `profile` under `key` in both tiers, creating the cache
    /// directory if needed.  Unlike the `load_or_*` paths, the raw store
    /// API does not degrade: the caller asked for persistence and learns
    /// when it did not happen.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] on I/O failure (after bounded
    /// transient retries).
    pub fn store(&self, key: &ProfileCacheKey, profile: &ApplicationProfile) -> Result<(), Error> {
        self.store_kind(key, profile)
    }

    /// Looks up the selection stored under `key`, in either tier; `Ok(None)`
    /// on any miss.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] for I/O failures other than the entry
    /// not existing.
    pub fn load_selection(
        &self,
        key: &SelectionCacheKey,
    ) -> Result<Option<Arc<BarrierPointSelection>>, Error> {
        self.load_kind(key)
    }

    /// Persists `selection` under `key` in both tiers.  Does not degrade;
    /// see [`store`](Self::store).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] on I/O failure (after bounded
    /// transient retries).
    pub fn store_selection(
        &self,
        key: &SelectionCacheKey,
        selection: &BarrierPointSelection,
    ) -> Result<(), Error> {
        self.store_kind(key, selection)
    }

    /// Looks up the simulated leg stored under `key`, in either tier;
    /// `Ok(None)` on any miss (stale version, corrupt payload, wrong key).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] for I/O failures other than the entry
    /// not existing.
    pub fn load_simulated(&self, key: &SimulatedCacheKey) -> Result<Option<Arc<Simulated>>, Error> {
        self.load_kind(key)
    }

    /// Persists `simulated` under `key` in both tiers.  Does not degrade;
    /// see [`store`](Self::store).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] on I/O failure (after bounded
    /// transient retries).
    pub fn store_simulated(
        &self,
        key: &SimulatedCacheKey,
        simulated: &Simulated,
    ) -> Result<(), Error> {
        self.store_kind(key, simulated)
    }

    /// Looks up the region-segment checkpoints stored under `key`, in
    /// either tier; `Ok(None)` on any miss (stale version, corrupt payload,
    /// wrong key).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] for I/O failures other than the entry
    /// not existing.
    pub fn load_checkpoint(
        &self,
        key: &CheckpointCacheKey,
    ) -> Result<Option<Arc<WorkloadCheckpoints>>, Error> {
        self.load_kind(key)
    }

    /// Persists `checkpoints` under `key` in both tiers.  Does not degrade;
    /// see [`store`](Self::store).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProfileCache`] on I/O failure (after bounded
    /// transient retries).
    pub fn store_checkpoint(
        &self,
        key: &CheckpointCacheKey,
        checkpoints: &WorkloadCheckpoints,
    ) -> Result<(), Error> {
        self.store_kind(key, checkpoints)
    }

    /// Returns the cached profile for `workload`, profiling (under `policy`)
    /// and populating the cache on a miss.  The boolean is `true` when the
    /// profile came from the cache.
    ///
    /// Cache I/O failures degrade to recomputation (recorded in
    /// [`CacheStats::degraded_loads`]/[`CacheStats::degraded_stores`])
    /// rather than failing the pipeline; use the raw
    /// [`load`](Self::load)/[`store`](Self::store) API to observe them.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors ([`Error::EmptyWorkload`]).
    pub fn load_or_profile<W: Workload + ?Sized>(
        &self,
        workload: &W,
        policy: &ExecutionPolicy,
    ) -> Result<(Arc<ApplicationProfile>, bool), Error> {
        let key = ProfileCacheKey::for_workload(workload);
        if let Some(profile) = self.probe(&key) {
            return Ok((profile, true));
        }
        let profile = Arc::new(profile_application_with(workload, policy)?);
        self.store_arc(&key, &profile);
        Ok((profile, false))
    }

    /// Drops the profile stored under `key` from **both** tiers, so the
    /// next lookup recomputes (or re-walks) it.  Returns whether any tier
    /// held the entry.  A disk removal failure other than the entry not
    /// existing is swallowed — invalidation is best-effort, exactly like
    /// eviction — but the memory tier drop always happens, so in-process
    /// lookups can never resurrect the invalidated artifact.
    ///
    /// A forced re-profile after this exercises the checkpoint path (the
    /// sweep's segmented re-profile test does exactly that): the
    /// checkpoints themselves are keyed separately and survive.
    pub fn invalidate_profile(&self, key: &ProfileCacheKey) -> bool {
        let in_memory = self.memory.remove(&key.memory_key());
        let on_disk = self.storage.remove_file(&self.entry_path(key)).is_ok();
        in_memory || on_disk
    }
}

impl Drop for ArtifactCache {
    /// The last handle of a shared-counter group persists the lifetime
    /// statistics.  Clones share `stats`; `Arc::into_inner` hands the
    /// counters to exactly one dropping handle, even when several drop at
    /// once on different threads, so the group flushes exactly once.
    fn drop(&mut self) {
        if let Some(counters) = Arc::into_inner(std::mem::take(&mut self.stats)) {
            self.flush_counters(&counters);
        }
    }
}

/// The held advisory lock: releases (deletes) the `.lock` file on drop.
/// Release is best-effort — an undeletable lock file is exactly the crashed
/// holder case, which the staleness takeover already covers.
struct DirLock<'a> {
    cache: &'a ArtifactCache,
}

impl Drop for DirLock<'_> {
    fn drop(&mut self) {
        let _ = self.cache.storage.remove_file(&self.cache.root.join(LOCK_FILE));
    }
}

/// Extracts the `ts-ms <millis>` field from an advisory lock body.  Returns
/// `None` for torn, empty, or foreign-format bodies (the caller falls back
/// to the file mtime).
fn parse_lock_ts_ms(bytes: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut tokens = text.split_whitespace();
    while let Some(token) = tokens.next() {
        if token == "ts-ms" {
            return tokens.next()?.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_application_with;
    use crate::select::select_barrierpoints;
    use crate::storage::{Fault, FaultFs, FaultOp};
    use bp_clustering::{SimPointConfig, SimPointStrategy};
    // bp-lint: allow(std-fs) — tests exercise the real filesystem directly.
    use std::fs;
    use std::time::Duration;

    use bp_workload::{Benchmark, WorkloadConfig};

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir()
            .join(format!("bp-artifact-cache-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        ArtifactCache::new(dir)
    }

    /// A fresh handle over the same directory: cold memory tier, warm disk
    /// tier — the "new process" view of the cache.
    fn reopen(cache: &ArtifactCache) -> ArtifactCache {
        ArtifactCache::new(cache.root())
    }

    fn workload(scale: f64) -> impl Workload {
        Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(scale))
    }

    /// The selection stage's probe and select-and-store as one call: the
    /// cached selection and `true`, or a fresh (stored) one and `false`.
    fn load_or_select<W: Workload + ?Sized>(
        cache: &ArtifactCache,
        profile: &ApplicationProfile,
        workload: &W,
        signature_config: &SignatureConfig,
        strategy: &dyn SelectionStrategy,
    ) -> Result<(Arc<BarrierPointSelection>, bool), Error> {
        let key = SelectionCacheKey::for_workload(workload, signature_config, strategy);
        if let Some(selection) = crate::stages::probe_selection(Some(cache), &key) {
            return Ok((selection, true));
        }
        let selection = crate::stages::select_and_store(
            Some(cache),
            &key,
            profile,
            signature_config,
            strategy,
        )?;
        Ok((selection, false))
    }

    /// The leg stage's probe and store around `simulate`: the cached leg and
    /// `true`, or the simulated (stored) one and `false`.
    fn load_or_simulate(
        cache: &ArtifactCache,
        key: &SimulatedCacheKey,
        simulate: impl FnOnce() -> Result<Arc<Simulated>, Error>,
    ) -> Result<(Arc<Simulated>, bool), Error> {
        if let Some(leg) = crate::stages::probe_leg(Some(cache), key) {
            return Ok((leg, true));
        }
        let leg = simulate()?;
        crate::stages::store_leg(Some(cache), key, &leg);
        Ok((leg, false))
    }

    /// Golden pin for the strategy seam: selections and cache keys produced
    /// by the default SimPoint strategy must stay byte-identical to the
    /// pre-seam `(SignatureConfig, SimPointConfig)` key derivation, so warm
    /// caches built before the refactor keep serving hits afterwards.  All
    /// constants were captured on the pre-seam implementation.
    /// One golden case: benchmark, threads, config, profile fingerprint,
    /// config fingerprint, selection fingerprint, serialized length,
    /// barrierpoint count.
    type GoldenCase = (Benchmark, usize, SimPointConfig, u64, u64, u64, usize, usize);

    #[test]
    fn default_strategy_fingerprints_match_pre_seam_golden_values() {
        let cases: [GoldenCase; 4] = [
            (
                Benchmark::NpbIs,
                2,
                SimPointConfig::paper(),
                0xd6c3_71d7_a206_94b0,
                0x8540_85e3_3a45_6c6e,
                0xbb96_3799_b9cb_c17d,
                710,
                11,
            ),
            (
                Benchmark::NpbIs,
                2,
                SimPointConfig::paper().with_max_k(3),
                0xd6c3_71d7_a206_94b0,
                0xb578_ef22_2964_1d15,
                0x4574_02bd_5926_0ae5,
                390,
                3,
            ),
            (
                Benchmark::NpbCg,
                4,
                SimPointConfig::paper(),
                0xd8b3_96d5_7d3b_6d2b,
                0x8540_85e3_3a45_6c6e,
                0x392c_ef1e_d5ee_b461,
                1350,
                13,
            ),
            (
                Benchmark::NpbCg,
                4,
                SimPointConfig::paper().with_max_k(3),
                0xd8b3_96d5_7d3b_6d2b,
                0xb578_ef22_2964_1d15,
                0x511e_c982_bc5a_61a9,
                950,
                3,
            ),
        ];
        for (bench, threads, sp, profile_fp, config_fp, selection_fp, bytes, nbp) in cases {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let sig = SignatureConfig::combined();
            let key = SelectionCacheKey::for_workload(&w, &sig, &SimPointStrategy::new(sp));
            assert_eq!(key.profile_fingerprint(), profile_fp, "{threads}t profile fingerprint");
            assert_eq!(key.config_fingerprint(), config_fp, "{threads}t config fingerprint");

            let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
            let selection = select_barrierpoints(&profile, &sig, &sp).unwrap();
            assert_eq!(selection.num_barrierpoints(), nbp, "{threads}t barrierpoint count");
            assert_eq!(serde::to_vec(&selection).len(), bytes, "{threads}t selection encoding");
            assert_eq!(selection.fingerprint(), selection_fp, "{threads}t selection fingerprint");

            let sim_key = SimulatedCacheKey::new(
                &w,
                &selection,
                &SimConfig::scaled(threads),
                WarmupKind::MruReplay,
            );
            assert_eq!(sim_key.selection_fingerprint(), selection_fp, "{threads}t sim key");
        }
        assert_eq!(
            sim_config_fingerprint(&SimConfig::scaled(2), WarmupKind::MruReplay),
            0xc0a9_50fc_b523_25b5,
        );
        assert_eq!(
            sim_config_fingerprint(&SimConfig::scaled(4), WarmupKind::MruReplay),
            0x33c5_f23c_b151_f327,
        );
    }

    /// Golden pin for the on-disk entry layout: one entry of each artifact
    /// kind plus the `cache-state` file, by file name, byte length and
    /// FNV-1a fingerprint of the raw file bytes.  A reordered key echo, a
    /// moved seal, a changed magic or version, or a changed payload encoding
    /// each change a fingerprint.  The constants were captured for format
    /// version 5 (sparse LDV payloads, word-wise seal); the other kinds'
    /// lengths are those of version 4, whose payload layout they share.  The
    /// `cache-state` pin is state version 5: a new file's two slots, the
    /// first at generation 1, the second zeroed.
    #[test]
    fn entry_bytes_match_golden_layout() {
        let cache = temp_cache("golden-entries");
        let w = workload(0.02);
        let sig = SignatureConfig::combined();
        let sim_config = SimConfig::scaled(2);
        let selected = crate::BarrierPoint::new(&w)
            .with_execution_policy(ExecutionPolicy::Serial)
            .profile()
            .unwrap()
            .select()
            .unwrap();
        let profile_key = ProfileCacheKey::for_workload(&w);
        let selection_key = selected.selection_cache_key();
        let simulated_key =
            SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);
        let checkpoint_key = CheckpointCacheKey::for_workload(&w);
        cache.store(&profile_key, selected.profile()).unwrap();
        cache.store_selection(&selection_key, selected.selection()).unwrap();
        cache.store_simulated(&simulated_key, &selected.simulate(&sim_config).unwrap()).unwrap();
        cache.store_checkpoint(&checkpoint_key, &checkpoints_for(&w)).unwrap();
        // Nonzero, deterministic counters for the state file: one
        // memory-tier hit each for the profile, selection and simulated leg.
        assert!(cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap().1);
        let strategy = SimPointStrategy::new(SimPointConfig::paper());
        assert!(load_or_select(&cache, selected.profile(), &w, &sig, &strategy).unwrap().1);
        assert!(load_or_simulate(&cache, &simulated_key, || unreachable!()).unwrap().1);
        cache.flush();

        let golden: [(&str, usize, u64); 5] = [
            ("npb-is-2t-d6c371d7a20694b0.bpprof", 8020, 0x2d14_d943_4a1d_c300),
            ("npb-is-2t-d6c371d7a20694b0-854085e33a456c6e.bpsel", 764, 0x33e4_3fdf_b96c_efa5),
            (
                "npb-is-2t-d6c371d7a20694b0-bb963799b9cbc17d-c0a950fcb52325b5.bpsim",
                2118,
                0xbbf5_af48_d06f_75b7,
            ),
            ("npb-is-2t-d6c371d7a20694b0.bpckpt", 48998, 0x1b24_a3f2_9735_0089),
            ("cache-state", 336, 0x7fa3_9434_9d47_87c9),
        ];
        let names = [
            profile_key.file_name(),
            selection_key.file_name(),
            simulated_key.file_name(),
            checkpoint_key.file_name(),
            STATE_FILE.to_string(),
        ];
        for ((name, len, fingerprint), actual_name) in golden.into_iter().zip(names) {
            assert_eq!(actual_name, name, "file name");
            let bytes = fs::read(cache.root().join(name)).unwrap();
            let mut hasher = FingerprintHasher::new();
            hasher.write_bytes(&bytes);
            assert_eq!(
                (bytes.len(), hasher.finish()),
                (len, fingerprint),
                "{name}: (length, FNV-1a of the raw bytes)"
            );
        }
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn miss_then_hit_round_trips_profile() {
        let cache = temp_cache("roundtrip");
        let w = workload(0.02);
        let (first, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached);
        // Same handle: the store wrote through to the memory tier.
        let (second, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert_eq!(first, second);
        assert_eq!(cache.stats().profile_memory_hits, 1);
        assert_eq!(cache.stats().profile_hits, 0);
        assert_eq!(cache.stats().profile_misses, 1);
        // A reopened handle decodes the same artifact from disk.
        let reopened = reopen(&cache);
        let (third, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert_eq!(first, third);
        assert_eq!(reopened.stats().profile_hits, 1);
        assert_eq!(reopened.stats().profile_memory_hits, 0);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn different_workload_configs_do_not_alias() {
        let cache = temp_cache("alias");
        let small = workload(0.02);
        let large = workload(0.05);
        assert_ne!(small.profile_fingerprint(), large.profile_fingerprint());
        let (p_small, _) = cache.load_or_profile(&small, &ExecutionPolicy::Serial).unwrap();
        let (p_large, cached) = cache.load_or_profile(&large, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached, "distinct configs must miss");
        assert_ne!(p_small, p_large);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_profile_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        let w = workload(0.02);
        let key = ProfileCacheKey::for_workload(&w);
        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();

        // Truncate the entry on disk; a cold-memory handle must miss.
        let path = cache.entry_path(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let reopened = reopen(&cache);
        assert_eq!(reopened.load(&key).unwrap(), None);

        // A re-store heals it.
        reopened.store(&key, &profile).unwrap();
        assert_eq!(reopen(&reopened).load(&key).unwrap().as_deref(), Some(&*profile));
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn stale_format_version_reads_as_miss() {
        let cache = temp_cache("version");
        let w = workload(0.02);
        let key = ProfileCacheKey::for_workload(&w);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();

        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1); // bump the stored version
        fs::write(&path, &bytes).unwrap();
        assert_eq!(reopen(&cache).load(&key).unwrap(), None);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn key_file_names_are_sanitized() {
        let key = ProfileCacheKey {
            workload_name: "np/b is!".into(),
            threads: 4,
            fingerprint: 0xdead_beef,
        };
        let name = key.file_name();
        assert!(name.starts_with("np_b_is_-4t-"));
        assert!(name.ends_with(".bpprof"));
        assert!(!name.contains('/'));
    }

    #[test]
    fn selection_miss_then_hit_skips_clustering_and_accounts() {
        let cache = temp_cache("sel-roundtrip");
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let sig = SignatureConfig::combined();
        let sp = SimPointStrategy::new(SimPointConfig::paper());

        let (first, cached) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        assert!(!cached);
        let (second, cached) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        assert!(cached);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.selection_misses, 1);
        assert_eq!(stats.selection_memory_hits, 1, "same handle hits the memory tier");
        let reopened = reopen(&cache);
        let (third, cached) = load_or_select(&reopened, &profile, &w, &sig, &sp).unwrap();
        assert!(cached);
        assert_eq!(first, third);
        assert_eq!(reopened.stats().selection_hits, 1, "cold memory falls back to disk");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn changed_simpoint_config_produces_a_distinct_key_and_misses() {
        let cache = temp_cache("sel-config");
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let sig = SignatureConfig::combined();
        let paper = SimPointStrategy::new(SimPointConfig::paper());
        let reseeded = SimPointStrategy::new(SimPointConfig::paper().with_seed(0xfeed));
        let small_k = SimPointStrategy::new(SimPointConfig::paper().with_max_k(3));

        let paper_key = SelectionCacheKey::for_workload(&w, &sig, &paper);
        for other in [&reseeded, &small_k] {
            let other_key = SelectionCacheKey::for_workload(&w, &sig, other);
            assert_ne!(paper_key, other_key);
            assert_ne!(paper_key.file_name(), other_key.file_name());
        }
        // And a changed signature config likewise.
        let bbv_key = SelectionCacheKey::for_workload(&w, &SignatureConfig::bbv_only(), &paper);
        assert_ne!(paper_key.config_fingerprint(), bbv_key.config_fingerprint());

        load_or_select(&cache, &profile, &w, &sig, &paper).unwrap();
        let (_, cached) = load_or_select(&cache, &profile, &w, &sig, &small_k).unwrap();
        assert!(!cached, "a changed SimPointConfig must miss");
        assert_eq!(cache.stats().selection_misses, 2);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_selection_entry_self_heals_as_a_miss() {
        let cache = temp_cache("sel-corrupt");
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let sig = SignatureConfig::combined();
        let sp = SimPointStrategy::new(SimPointConfig::paper());
        let key = SelectionCacheKey::for_workload(&w, &sig, &sp);
        let (selection, _) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();

        // Corrupt the payload: flip a byte past the header.  A cold-memory
        // handle sees the corruption and must miss.
        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        bytes.push(0); // and leave trailing garbage
        fs::write(&path, &bytes).unwrap();
        let reopened = reopen(&cache);
        assert_eq!(reopened.load_selection(&key).unwrap(), None);

        // The next load_or_select re-clusters, restores, and heals the entry.
        let (healed, cached) = load_or_select(&reopened, &profile, &w, &sig, &sp).unwrap();
        assert!(!cached);
        assert_eq!(healed, selection);
        assert_eq!(reopen(&reopened).load_selection(&key).unwrap(), Some(selection));
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn size_bound_evicts_least_recently_used_entries() {
        // Memory tier off: this test pins the *disk* tier's LRU behavior.
        let cache = temp_cache("evict").with_max_bytes(1).with_memory_max_bytes(0);
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let profile_key = ProfileCacheKey::for_workload(&w);
        let sig = SignatureConfig::combined();
        let sp = SimPointConfig::paper();
        let selection_key = SelectionCacheKey::for_workload(&w, &sig, &SimPointStrategy::new(sp));

        // With a 1-byte budget, storing the selection after the profile must
        // evict the (older) profile but keep the entry just written.
        cache.store(&profile_key, &profile).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // distinct mtimes
        let selection = select_barrierpoints(&profile, &sig, &sp).unwrap();
        cache.store_selection(&selection_key, &selection).unwrap();

        assert_eq!(cache.load(&profile_key).unwrap(), None, "older entry evicted");
        assert_eq!(cache.load_selection(&selection_key).unwrap().as_deref(), Some(&selection));
        assert_eq!(cache.stats().evictions, 1);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn stale_orphaned_tmp_files_are_cleaned_up() {
        let cache = temp_cache("tmp-orphan").with_max_bytes(64 * 1024 * 1024);
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let key = ProfileCacheKey::for_workload(&w);

        // Simulate a writer killed between write and rename, long ago.
        fs::create_dir_all(cache.root()).unwrap();
        let orphan = cache.root().join("npb-is-2t-0000000000000000.tmp-99999");
        fs::write(&orphan, b"torn").unwrap();
        let old = SystemTime::now() - Duration::from_secs(120);
        fs::OpenOptions::new().write(true).open(&orphan).unwrap().set_modified(old).unwrap();

        // A fresh tmp file (a concurrent writer) must be left alone.
        let live = cache.root().join("npb-is-2t-1111111111111111.tmp-88888");
        fs::write(&live, b"in-flight").unwrap();

        cache.store(&key, &profile).unwrap();
        assert!(!orphan.exists(), "stale orphan must be deleted by the store's scan");
        assert!(live.exists(), "recent tmp files must survive");
        assert_eq!(cache.stats().evictions, 0, "orphan cleanup is not an eviction");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn generous_size_bound_keeps_everything() {
        let cache = temp_cache("no-evict").with_max_bytes(64 * 1024 * 1024);
        let w = workload(0.02);
        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let (_, _) = load_or_select(
            &cache,
            &profile,
            &w,
            &SignatureConfig::combined(),
            &SimPointStrategy::new(SimPointConfig::paper()),
        )
        .unwrap();
        let (_, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert_eq!(cache.stats().evictions, 0);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn simulated_miss_then_hit_skips_simulation_and_accounts() {
        let cache = temp_cache("sim-roundtrip");
        let w = workload(0.02);
        let selected = crate::BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let sim_config = SimConfig::scaled(2);
        let key =
            SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);

        let (first, was_cached) =
            load_or_simulate(&cache, &key, || selected.simulate(&sim_config)).unwrap();
        assert!(!was_cached);
        let (second, was_cached) =
            load_or_simulate(&cache, &key, || panic!("a hit must not re-simulate")).unwrap();
        assert!(was_cached);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.simulated_misses, stats.simulated_memory_hits), (1, 1));
        // A cold-memory handle serves the same leg from disk.
        let reopened = reopen(&cache);
        let (third, was_cached) =
            load_or_simulate(&reopened, &key, || panic!("a disk hit must not re-simulate"))
                .unwrap();
        assert!(was_cached);
        assert_eq!(first, third);
        assert_eq!(reopened.stats().simulated_hits, 1);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn changed_sim_config_or_warmup_produces_a_distinct_simulated_key() {
        let w = workload(0.02);
        let selected = crate::BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 1.5;

        let base_key =
            SimulatedCacheKey::new(&w, selected.selection(), &base, WarmupKind::MruReplay);
        let fast_key =
            SimulatedCacheKey::new(&w, selected.selection(), &fast, WarmupKind::MruReplay);
        let cold_key = SimulatedCacheKey::new(&w, selected.selection(), &base, WarmupKind::Cold);
        assert_ne!(base_key, fast_key, "a changed SimConfig must not alias");
        assert_ne!(base_key, cold_key, "a changed WarmupKind must not alias");
        assert_ne!(base_key.file_name(), fast_key.file_name());
        assert_ne!(base_key.file_name(), cold_key.file_name());

        // And on disk: a base-config entry never serves the others.
        let cache = temp_cache("sim-config");
        let (_, _) = load_or_simulate(&cache, &base_key, || selected.simulate(&base)).unwrap();
        assert_eq!(cache.load_simulated(&fast_key).unwrap(), None);
        assert_eq!(cache.load_simulated(&cold_key).unwrap(), None);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_simulated_entry_self_heals_as_a_miss() {
        let cache = temp_cache("sim-corrupt");
        let w = workload(0.02);
        let selected = crate::BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let sim_config = SimConfig::scaled(2);
        let key =
            SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);
        let (simulated, _) =
            load_or_simulate(&cache, &key, || selected.simulate(&sim_config)).unwrap();

        // Corrupt the payload: flip a byte past the header and add garbage.
        // A cold-memory handle sees the corruption and must miss.
        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        bytes.push(0);
        fs::write(&path, &bytes).unwrap();
        let reopened = reopen(&cache);
        assert_eq!(reopened.load_simulated(&key).unwrap(), None);

        // The next load_or_simulate re-simulates and heals the entry.
        let (healed, was_cached) =
            load_or_simulate(&reopened, &key, || selected.simulate(&sim_config)).unwrap();
        assert!(!was_cached);
        assert_eq!(healed, simulated);
        assert_eq!(reopen(&reopened).load_simulated(&key).unwrap(), Some(simulated));
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn simulated_entries_participate_in_lru_eviction() {
        // Memory tier off: this test pins the *disk* tier's LRU behavior.
        let cache = temp_cache("sim-evict").with_max_bytes(1).with_memory_max_bytes(0);
        let w = workload(0.02);
        let selected = crate::BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let profile_key = ProfileCacheKey::for_workload(&w);
        cache.store(&profile_key, selected.profile()).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // distinct mtimes

        // Storing the (large) simulated leg with a 1-byte budget must evict
        // the older profile entry but keep the leg just written.
        let sim_config = SimConfig::scaled(2);
        let key =
            SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);
        let simulated = selected.simulate(&sim_config).unwrap();
        cache.store_simulated(&key, &simulated).unwrap();
        assert_eq!(cache.load(&profile_key).unwrap(), None, "older profile evicted");
        assert_eq!(cache.load_simulated(&key).unwrap(), Some(simulated.clone()));
        assert!(cache.stats().evictions >= 1);

        // And a newer profile store evicts the simulated entry in turn.
        std::thread::sleep(Duration::from_millis(20));
        cache.store(&profile_key, selected.profile()).unwrap();
        assert_eq!(cache.load_simulated(&key).unwrap(), None, "simulated leg evicted by LRU");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn loads_touch_entries_so_recently_used_survive_eviction() {
        let w_small = workload(0.02);
        let w_large = workload(0.05);
        let cache = temp_cache("lru-touch");
        // Measure real entry sizes, then bound the cache so only two fit.
        let (p_small, _) = cache.load_or_profile(&w_small, &ExecutionPolicy::Serial).unwrap();
        let (_p_large, _) = cache.load_or_profile(&w_large, &ExecutionPolicy::Serial).unwrap();
        let total: u64 = fs::read_dir(cache.root())
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        fs::remove_dir_all(cache.root()).ok();

        // Memory tier off: this test pins the disk tier's touch-on-load LRU.
        let cache = temp_cache("lru-touch").with_max_bytes(total).with_memory_max_bytes(0);
        cache.store(&ProfileCacheKey::for_workload(&w_small), &p_small).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        cache.load_or_profile(&w_large, &ExecutionPolicy::Serial).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Touch the small profile: it becomes most recently used.
        let (_, cached) = cache.load_or_profile(&w_small, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        std::thread::sleep(Duration::from_millis(20));
        // A third entry (a selection) pushes the cache over budget; the
        // least-recently-used entry is now the *large* profile.
        let (sel, _) = load_or_select(
            &cache,
            &p_small,
            &w_small,
            &SignatureConfig::combined(),
            &SimPointStrategy::new(SimPointConfig::paper()),
        )
        .unwrap();
        let _ = sel;
        assert!(cache.stats().evictions >= 1);
        let (_, small_cached) = cache.load_or_profile(&w_small, &ExecutionPolicy::Serial).unwrap();
        assert!(small_cached, "recently touched entry must survive eviction");
        fs::remove_dir_all(cache.root()).ok();
    }

    /// Regression test: a *failed* load (corrupt payload) must not mark the
    /// entry recently used.  The pre-fix `read_entry` touched the mtime
    /// before validating, so a corrupt entry became MRU and LRU eviction
    /// deleted valid older entries while protecting the garbage.
    #[test]
    fn failed_loads_do_not_promote_corrupt_entries_over_valid_ones() {
        let w_corrupt = workload(0.02);
        let w_valid = workload(0.05);
        let setup = temp_cache("corrupt-lru").with_max_bytes(u64::MAX).with_memory_max_bytes(0);
        let (_p_corrupt, _) = setup.load_or_profile(&w_corrupt, &ExecutionPolicy::Serial).unwrap();
        let (p_valid, _) = setup.load_or_profile(&w_valid, &ExecutionPolicy::Serial).unwrap();
        let key_corrupt = ProfileCacheKey::for_workload(&w_corrupt);
        let key_valid = ProfileCacheKey::for_workload(&w_valid);
        let path_corrupt = setup.entry_path(&key_corrupt);
        let path_valid = setup.entry_path(&key_valid);

        // Corrupt the first entry and back-date it far into the past: it is
        // now both garbage and the LRU victim-to-be.
        let bytes = fs::read(&path_corrupt).unwrap();
        fs::write(&path_corrupt, &bytes[..bytes.len() / 2]).unwrap();
        let old = SystemTime::now() - Duration::from_secs(600);
        fs::OpenOptions::new().write(true).open(&path_corrupt).unwrap().set_modified(old).unwrap();

        // Stage a third entry so its size is known, then remove it again.
        let sig = SignatureConfig::combined();
        let sp = SimPointConfig::paper();
        let selection = select_barrierpoints(&p_valid, &sig, &sp).unwrap();
        let selection_key =
            SelectionCacheKey::for_workload(&w_valid, &sig, &SimPointStrategy::new(sp));
        setup.store_selection(&selection_key, &selection).unwrap();
        let path_selection = setup.entry_path(&selection_key);
        let size_selection = fs::metadata(&path_selection).unwrap().len();
        let size_valid = fs::metadata(&path_valid).unwrap().len();
        fs::remove_file(&path_selection).unwrap();

        // Load the corrupt entry through a size-bounded handle: a miss — and
        // it must NOT touch the corrupt file's mtime.
        let bounded = ArtifactCache::new(setup.root())
            .with_max_bytes(size_valid + size_selection)
            .with_memory_max_bytes(0);
        assert_eq!(bounded.load(&key_corrupt).unwrap(), None);

        // The next store must evict the corrupt entry (oldest mtime), not
        // the valid one.  Pre-fix, the failed load had just made the corrupt
        // entry MRU, so the valid profile was deleted and garbage retained.
        bounded.store_selection(&selection_key, &selection).unwrap();
        assert!(!path_corrupt.exists(), "the corrupt entry must be the eviction victim");
        assert!(
            bounded.load(&key_valid).unwrap().is_some(),
            "the valid older entry must survive eviction"
        );
        fs::remove_dir_all(setup.root()).ok();
    }

    #[test]
    fn memory_tier_accounts_hits_per_artifact_kind() {
        let cache = temp_cache("mem-accounting");
        let w = workload(0.02);
        let sig = SignatureConfig::combined();
        let sp = SimPointStrategy::new(SimPointConfig::paper());
        let sim_config = SimConfig::scaled(2);

        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let (selection, _) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        let selected = crate::BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let key = SimulatedCacheKey::new(&w, &selection, &sim_config, WarmupKind::MruReplay);
        load_or_simulate(&cache, &key, || selected.simulate(&sim_config)).unwrap();

        let before = cache.stats();
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        load_or_simulate(&cache, &key, || panic!("memory hit expected")).unwrap();
        let after = cache.stats();
        assert_eq!(after.profile_memory_hits - before.profile_memory_hits, 1);
        assert_eq!(after.selection_memory_hits - before.selection_memory_hits, 1);
        assert_eq!(after.simulated_memory_hits - before.simulated_memory_hits, 1);
        assert_eq!(after.disk_hits(), before.disk_hits(), "no disk decode on a warm handle");
        assert_eq!(after.memory_hits() - before.memory_hits(), 3);
        fs::remove_dir_all(cache.root()).ok();
    }

    /// The tier must be invisible in the artifacts: a memory-tier hit
    /// returns exactly what a cold-memory handle decodes from disk.
    #[test]
    fn memory_tier_hits_equal_disk_tier_decodes() {
        let cache = temp_cache("mem-bit-identity");
        let w = workload(0.02);
        let sig = SignatureConfig::combined();
        let sp = SimPointStrategy::new(SimPointConfig::paper());
        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let (selection, _) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();

        let (mem_profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let (mem_selection, _) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        assert_eq!(cache.stats().memory_hits(), 2);

        let disk = reopen(&cache);
        let (disk_profile, _) = disk.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let (disk_selection, _) = load_or_select(&disk, &profile, &w, &sig, &sp).unwrap();
        assert_eq!(disk.stats().disk_hits(), 2);
        assert_eq!(mem_profile, disk_profile);
        assert_eq!(mem_selection, disk_selection);
        assert_eq!(selection, disk_selection);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn memory_tier_byte_bound_evicts_lru_down_to_disk_hits() {
        let w_a = workload(0.02);
        let w_b = workload(0.05);
        // Measure the serialized entry sizes first.
        let sizing = temp_cache("mem-bound-sizing");
        sizing.load_or_profile(&w_a, &ExecutionPolicy::Serial).unwrap();
        let size_a =
            fs::metadata(sizing.entry_path(&ProfileCacheKey::for_workload(&w_a))).unwrap().len();
        sizing.load_or_profile(&w_b, &ExecutionPolicy::Serial).unwrap();
        let size_b =
            fs::metadata(sizing.entry_path(&ProfileCacheKey::for_workload(&w_b))).unwrap().len();
        fs::remove_dir_all(sizing.root()).ok();

        // Room for the larger entry but never both: inserting B evicts A
        // from memory; A's disk copy still serves.
        let cache = temp_cache("mem-bound").with_memory_max_bytes(size_b.max(size_a));
        cache.load_or_profile(&w_a, &ExecutionPolicy::Serial).unwrap();
        cache.load_or_profile(&w_b, &ExecutionPolicy::Serial).unwrap();
        assert!(cache.stats().memory_evictions >= 1, "the bound must evict");
        let before = cache.stats();
        let (_, cached) = cache.load_or_profile(&w_a, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        let after = cache.stats();
        assert_eq!(after.profile_hits - before.profile_hits, 1, "degrades to a disk hit");
        assert_eq!(after.profile_misses, before.profile_misses, "never to a miss");
        fs::remove_dir_all(cache.root()).ok();
    }

    /// An artifact that on its own exceeds the memory bound is declined up
    /// front — it must not flush the resident (and fitting) entries out of
    /// the tier while failing to make room for itself.
    #[test]
    fn oversized_memory_entries_do_not_flush_the_tier() {
        let w = workload(0.02);
        let sig = SignatureConfig::combined();
        let sp = SimPointStrategy::new(SimPointConfig::paper());
        let sizing = temp_cache("mem-oversize-sizing");
        let (profile, _) = sizing.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        load_or_select(&sizing, &profile, &w, &sig, &sp).unwrap();
        let size_profile =
            fs::metadata(sizing.entry_path(&ProfileCacheKey::for_workload(&w))).unwrap().len();
        let size_selection =
            fs::metadata(sizing.entry_path(&SelectionCacheKey::for_workload(&w, &sig, &sp)))
                .unwrap()
                .len();
        fs::remove_dir_all(sizing.root()).ok();
        assert!(size_profile > size_selection, "a profile must outweigh its selection");

        // Exactly room for the selection; the profile can never fit.
        let cache = temp_cache("mem-oversize").with_memory_max_bytes(size_selection);
        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        // The oversized profile insert (store and re-decode alike) must
        // neither evict the resident selection nor count as an eviction.
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(
            cache.stats().memory_evictions,
            0,
            "declining an oversized insert evicts nothing"
        );
        let before = cache.stats();
        let (_, cached) = load_or_select(&cache, &profile, &w, &sig, &sp).unwrap();
        assert!(cached);
        let after = cache.stats();
        assert_eq!(
            after.selection_memory_hits - before.selection_memory_hits,
            1,
            "the fitting entry must survive the oversized insert"
        );
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn memory_tier_write_through_and_reopen_coherence() {
        let cache = temp_cache("mem-coherence");
        let w = workload(0.02);
        let key = ProfileCacheKey::for_workload(&w);
        let (profile, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();

        // Delete the disk entry behind the cache's back: the memory tier
        // still serves the artifact to this process.
        fs::remove_file(cache.entry_path(&key)).unwrap();
        let (hit, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached, "memory tier survives disk deletion");
        assert_eq!(hit, profile);
        assert_eq!(cache.stats().profile_memory_hits, 1);

        // A fresh handle (drop + reopen) misses both tiers for the deleted
        // entry and recomputes; for a surviving entry it hits disk.
        let reopened = reopen(&cache);
        let (_, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached, "deleted disk entry + cold memory = miss");
        let (_, cached) = reopen(&reopened).load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached, "the recompute re-persisted the entry");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn memory_tier_is_shared_across_clones() {
        let cache = temp_cache("mem-clones");
        let w = workload(0.02);
        let (first, _) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        let clone = cache.clone();
        let (second, cached) = clone.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert!(
            Arc::ptr_eq(&first, &second),
            "clones must share the memory tier's allocation, not re-decode"
        );
        assert_eq!(clone.stats().profile_memory_hits, 1, "stats shared too");
        fs::remove_dir_all(cache.root()).ok();
    }

    /// A fault-injected cache over a fresh directory; the [`FaultFs`]
    /// handle programs the plan.
    fn faulty_cache(tag: &str) -> (ArtifactCache, Arc<FaultFs>) {
        let dir = std::env::temp_dir()
            .join(format!("bp-artifact-cache-fault-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let faults = Arc::new(FaultFs::new());
        (ArtifactCache::new(dir).with_storage(faults.clone()), faults)
    }

    #[test]
    fn transient_read_faults_are_retried_and_recover() {
        let (cache, faults) = faulty_cache("retry");
        let w = workload(0.02);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();

        // EINTR twice on the entry read; the bounded retry absorbs both.
        let reopened = ArtifactCache::new(cache.root()).with_storage(faults.clone());
        faults.inject(
            Fault::fail(FaultOp::Read, ErrorKind::Interrupted)
                .on_path(ProfileCacheKey::EXT)
                .times(2),
        );
        let (_, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached, "transient faults within the retry bound stay invisible");
        assert_eq!(reopened.stats().retries, 2);
        assert_eq!(reopened.stats().degraded_loads, 0);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn enospc_store_degrades_to_memory_tier_and_clean_reopen_miss() {
        let (cache, faults) = faulty_cache("enospc");
        let w = workload(0.02);
        faults.inject(Fault::fail(FaultOp::Write, ErrorKind::StorageFull));

        // The store fails persistently; the pipeline must not.
        let (profile, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached);
        assert_eq!(cache.stats().degraded_stores, 1);
        assert_eq!(cache.stats().retries, 0, "ENOSPC is persistent — never retried");

        // This process still serves the artifact from the memory tier…
        let (again, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&profile, &again));

        // …and a fresh process sees a clean miss, never a torn entry.
        let reopened = ArtifactCache::new(cache.root());
        let (_, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached, "nothing was persisted, so the reopen recomputes");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn persistent_read_fault_degrades_to_recompute_and_heals() {
        let (cache, faults) = faulty_cache("read-degrade");
        let w = workload(0.02);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();

        let reopened = ArtifactCache::new(cache.root()).with_storage(faults.clone());
        faults.inject(
            Fault::fail(FaultOp::Read, ErrorKind::PermissionDenied).on_path(ProfileCacheKey::EXT),
        );
        let (_, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached, "an unreadable entry is a miss, not an error");
        assert_eq!(reopened.stats().degraded_loads, 1);
        assert_eq!(reopened.stats().profile_misses, 1);

        // The recompute re-stored the entry; an unfaulted handle hits disk.
        let healed = ArtifactCache::new(cache.root());
        let (_, cached) = healed.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached, "the degraded miss healed the entry on disk");
        fs::remove_dir_all(cache.root()).ok();
    }

    /// Regression for the historical leak: a failed rename must delete its
    /// tmp file, not orphan it for a later cleanup scan.
    #[test]
    fn failed_rename_deletes_the_tmp_file() {
        let (cache, faults) = faulty_cache("rename-cleanup");
        let w = workload(0.02);
        faults.inject(Fault::fail(FaultOp::Rename, ErrorKind::PermissionDenied).on_path("tmp-"));

        let (_, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached);
        assert_eq!(cache.stats().degraded_stores, 1);
        let leftovers: Vec<String> = fs::read_dir(cache.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains("tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must not leak: {leftovers:?}");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn held_lock_skips_the_guarded_scan_but_not_the_store() {
        let cache = temp_cache("lock-contended").with_max_bytes(1);
        let w = workload(0.02);
        fs::create_dir_all(cache.root()).unwrap();
        // A live holder: fresh timestamp, never released during the test.
        fs::write(cache.root().join(LOCK_FILE), format!("pid {} ts-ms {}\n", u32::MAX, epoch_ms()))
            .unwrap();

        let (_, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached);
        assert_eq!(cache.stats().lock_contended, 1);
        assert_eq!(cache.stats().evictions, 0, "the guarded eviction scan was skipped");
        let key = ProfileCacheKey::for_workload(&w);
        assert!(cache.entry_path(&key).exists(), "the store itself must still land");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn stale_lock_is_taken_over_and_released() {
        let cache = temp_cache("lock-stale")
            .with_max_bytes(u64::MAX)
            .with_lock_stale_after(Duration::from_millis(10));
        let w = workload(0.02);
        fs::create_dir_all(cache.root()).unwrap();
        // A holder that died long ago (epoch timestamp zero).
        fs::write(cache.root().join(LOCK_FILE), "pid 1 ts-ms 0\n").unwrap();

        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(cache.stats().lock_contended, 0, "a stale lock must be taken over");
        assert!(!cache.root().join(LOCK_FILE).exists(), "released after the store");
        assert!(
            !fs::read_dir(cache.root())
                .unwrap()
                .any(|e| { e.unwrap().file_name().to_string_lossy().starts_with(LOCK_FILE) }),
            "no takeover leftovers either"
        );
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn persisted_stats_merge_across_reopen() {
        let cache = temp_cache("state-persist");
        let w = workload(0.02);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(cache.lifetime_stats(), cache.stats(), "no base before the first flush");
        cache.flush();

        let reopened = reopen(&cache);
        let (_, cached) = reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(cached);
        assert_eq!(reopened.stats().profile_misses, 0, "session view: this run never missed");
        let lifetime = reopened.lifetime_stats();
        assert_eq!(lifetime.profile_misses, 1, "lifetime view: the first run's miss persists");
        assert_eq!(lifetime.profile_hits, 1, "merged with this session's disk hit");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_state_file_resets_stats_never_errors() {
        let cache = temp_cache("state-corrupt");
        let w = workload(0.02);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        cache.flush();
        fs::write(cache.root().join(STATE_FILE), b"not a state file").unwrap();

        let reopened = reopen(&cache);
        reopened.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(
            reopened.lifetime_stats(),
            reopened.stats(),
            "a corrupt base contributes zero, silently"
        );
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn state_codec_round_trips_and_rejects_foreign_bytes() {
        let stats = CacheStats {
            profile_hits: 7,
            degraded_stores: 2,
            lock_contended: 1,
            ..CacheStats::default()
        };
        assert_eq!(decode_state(&encode_state(3, &stats)), Some((3, stats)));
        assert_eq!(encode_state(3, &stats).len(), STATE_SLOT_LEN);

        assert_eq!(decode_state(b""), None, "empty");
        assert_eq!(decode_state(b"BPSTjunk"), None, "torn after magic");
        let mut trailing = encode_state(3, &stats);
        trailing.push(0);
        assert_eq!(decode_state(&trailing), None, "trailing bytes");

        let wrong_version = encode_sealed(STATE_MAGIC, STATE_VERSION + 1, |out| {
            out.write_u64(3);
            (0..STATS_FIELDS).for_each(|_| out.write_u64(0));
        });
        assert_eq!(
            decode_state(&wrong_version),
            None,
            "future version (validly sealed, so the version check is what rejects it)"
        );
    }

    /// The `cache-state` file's bytes and its two decoded slots.
    fn state_slots(cache: &ArtifactCache) -> (Vec<u8>, [Option<(u64, CacheStats)>; 2]) {
        let bytes = fs::read(cache.root().join(STATE_FILE)).unwrap();
        assert_eq!(bytes.len(), 2 * STATE_SLOT_LEN, "two slots");
        let (first, second) = bytes.split_at(STATE_SLOT_LEN);
        let slots = [decode_state(first), decode_state(second)];
        (bytes, slots)
    }

    /// Counts one profile miss on `cache` without touching its directory.
    fn one_miss(cache: &ArtifactCache) {
        let key = ProfileCacheKey::for_workload(&workload(0.02));
        assert!(cache.probe(&key).is_none());
    }

    /// A new file is published whole with the state in slot 0; after that
    /// each flush is one read and one in-place write of the older slot, at
    /// the next generation, and a reader takes the newest.
    #[test]
    fn flushes_alternate_slots_in_place() {
        let faults = Arc::new(FaultFs::new());
        let cache = temp_cache("state-slots").with_storage(faults.clone());
        fs::create_dir_all(cache.root()).unwrap();
        one_miss(&cache);
        cache.flush();
        let (bytes, slots) = state_slots(&cache);
        assert_eq!(slots, [Some((1, cache.stats())), None], "slot 1 starts zeroed");
        assert!(bytes[STATE_SLOT_LEN..].iter().all(|&b| b == 0));

        // From here on no rename may happen: the update is in place.
        faults.inject(Fault::fail(FaultOp::Rename, ErrorKind::PermissionDenied));
        one_miss(&cache);
        let before = faults.ops();
        cache.flush();
        assert_eq!(faults.ops() - before, 2, "one read, one in-place write");
        let (second, slots) = state_slots(&cache);
        assert_eq!(second[..STATE_SLOT_LEN], bytes[..STATE_SLOT_LEN], "slot 0 untouched");
        assert_eq!(slots[1], Some((2, cache.stats())));

        one_miss(&cache);
        cache.flush();
        let (third, slots) = state_slots(&cache);
        assert_eq!(third[STATE_SLOT_LEN..], second[STATE_SLOT_LEN..], "slot 1 untouched");
        assert_eq!(slots[0], Some((3, cache.stats())), "slot 0 holds the newest");
        assert_eq!(reopen(&cache).lifetime_stats().profile_misses, 3);

        // A torn in-place write damages only the spare slot: the previous
        // generation still reads, and the next flush overwrites the torn one.
        faults.inject(Fault::torn_write(ErrorKind::StorageFull));
        one_miss(&cache);
        cache.flush();
        assert_eq!(state_slots(&cache).1[1], None, "the torn slot does not decode");
        assert_eq!(reopen(&cache).lifetime_stats().profile_misses, 3, "generation 3 survives");
        cache.flush();
        assert_eq!(state_slots(&cache).1[1], Some((4, cache.stats())));
        fs::remove_dir_all(cache.root()).ok();
    }

    /// A handle with zero session counters writes nothing — not even the
    /// base it read, which would overwrite a newer state stored since.
    #[test]
    fn idle_handles_never_overwrite_a_newer_state() {
        let dir = temp_cache("state-idle").root().to_path_buf();
        let w = workload(0.02);
        let seeded = ArtifactCache::new(&dir);
        seeded.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        drop(seeded);

        let idle = ArtifactCache::new(&dir);
        assert_eq!(idle.lifetime_stats().profile_misses, 1, "the seeded base");
        let busy = ArtifactCache::new(&dir);
        assert!(busy.probe(&ProfileCacheKey::for_workload(&w)).is_some(), "one disk hit");
        drop(busy);
        drop(idle);

        let lifetime = ArtifactCache::new(&dir).lifetime_stats();
        assert_eq!((lifetime.profile_misses, lifetime.profile_hits), (1, 1), "{lifetime:?}");
        fs::remove_dir_all(&dir).ok();
    }

    /// Two clones dropped at the same moment on two threads: exactly one of
    /// them must flush the group's counters, every round.
    #[test]
    fn racing_last_drops_flush_exactly_once() {
        let dir = temp_cache("state-race").root().to_path_buf();
        fs::create_dir_all(&dir).unwrap();
        for round in 1..=1000 {
            let cache = ArtifactCache::new(&dir);
            one_miss(&cache);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for clone in [cache.clone(), cache] {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drop(clone);
                    });
                }
            });
            let lifetime = ArtifactCache::new(&dir).lifetime_stats();
            assert_eq!(lifetime.profile_misses, round, "round {round}: the session was persisted");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The seal catches what header validation cannot: any single bit flip
    /// anywhere in an entry — header, payload, or the checksum itself —
    /// must read as a miss, never decode to wrong data.
    #[test]
    fn any_single_bit_flip_in_an_entry_is_rejected() {
        let stats = CacheStats { profile_hits: 3, ..CacheStats::default() };
        let encoded = encode_state(1, &stats);
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut flipped = encoded.clone();
                flipped[byte] ^= 1 << bit;
                assert_eq!(
                    decode_state(&flipped),
                    None,
                    "flip of bit {bit} in byte {byte} must not decode"
                );
            }
        }

        // Every artifact kind: about 500 flips per entry at an odd stride
        // (so every bit position of a byte is hit) keep the sweep fast while
        // covering header and payload, plus every bit of the checksum.
        for (kind, encoded, decodes) in sealed_entries() {
            let bits = encoded.len() * 8;
            for bit_index in (0..bits).step_by((bits / 500) | 1).chain(bits - 64..bits) {
                let mut flipped = encoded.clone();
                flipped[bit_index / 8] ^= 1 << (bit_index % 8);
                assert!(!decodes(&flipped), "{kind}: flip of bit {bit_index} must not decode");
            }
        }
    }

    /// A named sealed entry and a check that reports whether given bytes
    /// decode under its key.
    type SealedEntry = (&'static str, Vec<u8>, Box<dyn Fn(&[u8]) -> bool>);

    /// One sealed entry of every kind plus the `cache-state` file.
    fn sealed_entries() -> Vec<SealedEntry> {
        let w = workload(0.02);
        let sim_config = SimConfig::scaled(2);
        let selected = crate::BarrierPoint::new(&w)
            .with_execution_policy(ExecutionPolicy::Serial)
            .select()
            .unwrap();
        let simulated = selected.simulate(&sim_config).unwrap();
        let profile_key = ProfileCacheKey::for_workload(&w);
        let selection_key = selected.selection_cache_key();
        let simulated_key =
            SimulatedCacheKey::new(&w, selected.selection(), &sim_config, WarmupKind::MruReplay);
        let checkpoint_key = CheckpointCacheKey::for_workload(&w);
        let stats = CacheStats { profile_hits: 3, checkpoint_misses: 1, ..CacheStats::default() };
        vec![
            (
                "profile",
                profile_key.encode(selected.profile()),
                Box::new(move |b| profile_key.decode(b).is_some()),
            ),
            (
                "selection",
                selection_key.encode(selected.selection()),
                Box::new(move |b| selection_key.decode(b).is_some()),
            ),
            (
                "simulated",
                simulated_key.encode(&simulated),
                Box::new(move |b| simulated_key.decode(b).is_some()),
            ),
            (
                "checkpoint",
                checkpoint_key.encode(&checkpoints_for(&w)),
                Box::new(move |b| checkpoint_key.decode(b).is_some()),
            ),
            ("cache-state", encode_state(1, &stats), Box::new(|b| decode_state(b).is_some())),
        ]
    }

    /// A word-wise seal that only xors and multiplies lets a flip of the
    /// top bit of one word cancel the same flip in any later word (the
    /// multiply never carries out of bit 63).  The seal must catch two
    /// flips of one bit position in two different words, whatever the
    /// position — every pair of the state file's words, and pairs spread
    /// over each artifact entry.
    #[test]
    fn two_flips_of_one_bit_in_two_words_are_rejected() {
        for (kind, encoded, decodes) in sealed_entries() {
            assert!(decodes(&encoded), "{kind}: the pristine entry decodes");
            let words = encoded.len() / 8;
            let pairs: Vec<(usize, usize)> = if kind == "cache-state" {
                (0..words).flat_map(|a| (a + 1..words).map(move |b| (a, b))).collect()
            } else {
                let mid = words / 2;
                vec![(0, 1), (0, words - 1), (1, 2), (mid, mid + 1), (words / 3, 2 * words / 3)]
            };
            for (a, b) in pairs {
                for bit in 0..64 {
                    let mut flipped = encoded.clone();
                    flipped[a * 8 + bit / 8] ^= 1 << (bit % 8);
                    flipped[b * 8 + bit / 8] ^= 1 << (bit % 8);
                    assert!(!decodes(&flipped), "{kind}: bit {bit} of words {a} and {b}");
                }
            }
        }
    }

    /// Serialized profiles that decode field by field but break a shape
    /// invariant selection indexes by, each named.  The first is the
    /// regression case: a second region holding 2 BBVs but 1 LDV and 1
    /// instruction count, which used to decode and then panic in
    /// selection with an out-of-bounds index.
    fn malformed_profiles() -> Vec<(&'static str, Vec<u8>)> {
        let empty_ldv = serde::to_vec(&bp_signature::Ldv::new());
        let mut too_many = serde::Serializer::new();
        too_many.write_len(bp_signature::LDV_BUCKETS + 1);
        (0..=bp_signature::LDV_BUCKETS + 1).for_each(|_| too_many.write_u64(1));
        let too_many = too_many.into_bytes();
        // One region: its per-thread BBVs, serialized LDVs, instructions.
        type Region<'a> = (Vec<Vec<u64>>, Vec<&'a [u8]>, Vec<u64>);
        let profile = |threads: u64, regions: Vec<Region<'_>>| {
            let mut out = serde::Serializer::new();
            out.write_str("malformed");
            out.write_u64(threads);
            out.write_len(regions.len());
            for (bbvs, ldvs, instructions) in regions {
                bbvs.serialize(&mut out);
                out.write_len(ldvs.len());
                ldvs.iter().for_each(|ldv| out.write_bytes(ldv));
                instructions.serialize(&mut out);
            }
            out.into_bytes()
        };
        let ldv = &empty_ldv[..];
        vec![
            ("well-formed", profile(1, vec![(vec![vec![5, 0]], vec![ldv], vec![5]); 2])),
            (
                "region 1 holds 2 BBVs, 1 LDV and 1 instruction count",
                profile(
                    1,
                    vec![
                        (vec![vec![5, 0]], vec![ldv], vec![5]),
                        (vec![vec![5, 0], vec![0, 3]], vec![ldv], vec![3]),
                    ],
                ),
            ),
            (
                "region 1 has fewer threads than the profile",
                profile(
                    2,
                    vec![
                        (vec![vec![5, 0]; 2], vec![ldv; 2], vec![5; 2]),
                        (vec![vec![5, 0]], vec![ldv], vec![5]),
                    ],
                ),
            ),
            (
                "region 1 has another BBV dimension",
                profile(
                    1,
                    vec![
                        (vec![vec![5, 0]], vec![ldv], vec![5]),
                        (vec![vec![5, 0, 1]], vec![ldv], vec![6]),
                    ],
                ),
            ),
            (
                "an LDV has more than LDV_BUCKETS buckets",
                profile(1, vec![(vec![vec![5, 0]], vec![&too_many[..]], vec![5])]),
            ),
        ]
    }

    #[test]
    fn malformed_profiles_fail_to_decode() {
        for (what, bytes) in malformed_profiles() {
            let decoded = serde::from_slice::<ApplicationProfile>(&bytes);
            assert_eq!(decoded.is_ok(), what == "well-formed", "{what}: {decoded:?}");
        }
    }

    /// A sealed entry holding a malformed profile — intact seal, matching
    /// key — is a miss: the staged chain recomputes the profile, selects
    /// from it, and self-heals the entry, never erroring or panicking.
    #[test]
    fn sealed_malformed_profiles_read_as_misses_and_recompute() {
        let w = workload(0.02);
        let key = ProfileCacheKey::for_workload(&w);
        let reference = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        for (what, payload) in malformed_profiles().into_iter().skip(1) {
            let cache = temp_cache("malformed-profile");
            let (name, threads, [fingerprint]) = key.echo();
            let entry = encode_sealed(ProfileCacheKey::MAGIC, FORMAT_VERSION, |out| {
                out.write_str(name);
                out.write_u64(threads as u64);
                out.write_u64(fingerprint);
                out.write_bytes(&payload);
            });
            fs::create_dir_all(cache.root()).unwrap();
            fs::write(cache.entry_path(&key), entry).unwrap();

            let selected = crate::BarrierPoint::new(&w)
                .with_execution_policy(ExecutionPolicy::Serial)
                .with_cache(cache.clone())
                .select()
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert!(!selected.profile_was_cached(), "{what}: must be a miss");
            assert_eq!(selected.profile(), &reference, "{what}: recomputed");
            let stats = cache.stats();
            assert_eq!((stats.profile_misses, stats.degraded_loads), (1, 0), "{what}");
            assert_eq!(*reopen(&cache).load(&key).unwrap().unwrap(), reference, "{what}: healed");
            fs::remove_dir_all(cache.root()).ok();
        }
    }

    #[test]
    fn lock_timestamps_parse_leniently() {
        assert_eq!(parse_lock_ts_ms(b"pid 42 ts-ms 1234\n"), Some(1234));
        assert_eq!(parse_lock_ts_ms(b"ts-ms 0"), Some(0));
        assert_eq!(parse_lock_ts_ms(b"pid 42\n"), None, "missing field");
        assert_eq!(parse_lock_ts_ms(b"pid 42 ts-ms\n"), None, "truncated");
        assert_eq!(parse_lock_ts_ms(b"ts-ms twelve"), None, "non-numeric");
        assert_eq!(parse_lock_ts_ms(&[0xff, 0xfe]), None, "not UTF-8");
    }

    /// Builds a real checkpoint set for `w` (4 segments, capacity 256).
    fn checkpoints_for(w: &impl Workload) -> WorkloadCheckpoints {
        crate::segment::TraceWalk::profile()
            .with_mru(crate::segment::MruBoundaries::Every, 256)
            .emitting_checkpoints(4)
            .run(w, &ExecutionPolicy::Serial, None)
            .unwrap()
            .checkpoints
            .unwrap()
    }

    #[test]
    fn checkpoint_miss_then_hit_round_trips_both_tiers_and_accounts() {
        let cache = temp_cache("ckpt-roundtrip");
        let w = workload(0.02);
        let key = CheckpointCacheKey::for_workload(&w);

        assert_eq!(cache.probe(&key), None);
        assert_eq!(cache.stats().checkpoint_misses, 1);

        let ckpts = checkpoints_for(&w);
        cache.store_checkpoint(&key, &ckpts).unwrap();
        // Same handle: the store wrote through to the memory tier.
        let hit = cache.probe(&key).expect("stored entry must hit");
        assert_eq!(*hit, ckpts);
        assert_eq!(cache.stats().checkpoint_memory_hits, 1);
        assert_eq!(cache.stats().checkpoint_hits, 0);

        // A reopened handle decodes the identical artifact from disk.
        let reopened = reopen(&cache);
        let disk = reopened.probe(&key).expect("disk tier must serve");
        assert_eq!(*disk, ckpts);
        assert_eq!(reopened.stats().checkpoint_hits, 1);
        assert_eq!(reopened.stats().checkpoint_memory_hits, 0);
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn checkpoint_key_is_config_independent_but_content_addressed() {
        let small = workload(0.02);
        let large = workload(0.05);
        let key_small = CheckpointCacheKey::for_workload(&small);
        let key_large = CheckpointCacheKey::for_workload(&large);
        assert_ne!(key_small, key_large, "distinct content must not alias");
        assert_ne!(key_small.file_name(), key_large.file_name());
        assert!(key_small.file_name().ends_with(CheckpointCacheKey::EXT));
        // Same identity fields as the profile key: config knobs play no part.
        let profile_key = ProfileCacheKey::for_workload(&small);
        assert_eq!(key_small.workload_name(), profile_key.workload_name());
        assert_eq!(key_small.fingerprint(), profile_key.fingerprint());
    }

    #[test]
    fn corrupt_checkpoint_entries_self_heal_as_misses() {
        let cache = temp_cache("ckpt-corrupt");
        let w = workload(0.02);
        let key = CheckpointCacheKey::for_workload(&w);
        let ckpts = checkpoints_for(&w);
        cache.store_checkpoint(&key, &ckpts).unwrap();
        let path = cache.entry_path(&key);
        let pristine = fs::read(&path).unwrap();

        // Truncation, a payload bit flip plus trailing garbage, and a stale
        // format version must all read as misses from a cold-memory handle.
        fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert_eq!(reopen(&cache).load_checkpoint(&key).unwrap(), None, "truncated");

        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        flipped.push(0);
        fs::write(&path, &flipped).unwrap();
        assert_eq!(reopen(&cache).load_checkpoint(&key).unwrap(), None, "bit flip + garbage");

        let mut stale = pristine.clone();
        stale[4] = stale[4].wrapping_add(1); // bump the stored version
        fs::write(&path, &stale).unwrap();
        let reopened = reopen(&cache);
        assert_eq!(reopened.load_checkpoint(&key).unwrap(), None, "stale version");

        // A re-store heals the entry for cold handles.
        reopened.store_checkpoint(&key, &ckpts).unwrap();
        assert_eq!(reopen(&reopened).load_checkpoint(&key).unwrap().as_deref(), Some(&ckpts));
        fs::remove_dir_all(cache.root()).ok();
    }

    /// Regression: the LRU eviction scan and the orphan cleanup must treat
    /// the `ckpt` kind as a first-class citizen — evictable by newer stores,
    /// able to evict older entries, its tmp orphans reaped.
    #[test]
    fn checkpoint_entries_participate_in_lru_eviction_and_orphan_cleanup() {
        // Memory tier off: this test pins the *disk* tier's LRU behavior.
        let cache = temp_cache("ckpt-evict").with_max_bytes(1).with_memory_max_bytes(0);
        let w = workload(0.02);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let profile_key = ProfileCacheKey::for_workload(&w);
        let ckpt_key = CheckpointCacheKey::for_workload(&w);
        let ckpts = checkpoints_for(&w);

        // Storing the checkpoints with a 1-byte budget must evict the older
        // profile but keep the entry just written.
        cache.store(&profile_key, &profile).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // distinct mtimes
        cache.store_checkpoint(&ckpt_key, &ckpts).unwrap();
        assert_eq!(cache.load(&profile_key).unwrap(), None, "older profile evicted");
        assert_eq!(cache.load_checkpoint(&ckpt_key).unwrap().as_deref(), Some(&ckpts));
        assert!(cache.stats().evictions >= 1);

        // And a newer profile store evicts the checkpoint entry in turn.
        std::thread::sleep(Duration::from_millis(20));
        cache.store(&profile_key, &profile).unwrap();
        assert_eq!(cache.load_checkpoint(&ckpt_key).unwrap(), None, "ckpt evicted by LRU");

        // Orphan cleanup: a stale bpckpt tmp file is reaped by the next
        // store's scan, a fresh one survives.
        let orphan = cache.root().join(format!("x.{}.tmp-99999", CheckpointCacheKey::EXT));
        fs::write(&orphan, b"torn").unwrap();
        let old = SystemTime::now() - Duration::from_secs(120);
        fs::OpenOptions::new().write(true).open(&orphan).unwrap().set_modified(old).unwrap();
        let live = cache.root().join(format!("y.{}.tmp-88888", CheckpointCacheKey::EXT));
        fs::write(&live, b"in-flight").unwrap();
        cache.store_checkpoint(&ckpt_key, &ckpts).unwrap();
        assert!(!orphan.exists(), "stale ckpt tmp orphan must be reaped");
        assert!(live.exists(), "fresh ckpt tmp files must survive");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn invalidate_profile_drops_both_tiers_but_leaves_checkpoints() {
        let cache = temp_cache("ckpt-invalidate");
        let w = workload(0.02);
        let profile_key = ProfileCacheKey::for_workload(&w);
        let ckpt_key = CheckpointCacheKey::for_workload(&w);
        cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        cache.store_checkpoint(&ckpt_key, &checkpoints_for(&w)).unwrap();

        assert!(cache.invalidate_profile(&profile_key), "entry existed");
        let (_, cached) = cache.load_or_profile(&w, &ExecutionPolicy::Serial).unwrap();
        assert!(!cached, "both tiers dropped: the next load recomputes");
        assert!(
            cache.load_checkpoint(&ckpt_key).unwrap().is_some(),
            "checkpoints are keyed separately and must survive"
        );
        // Idempotent on the now re-stored entry, and false once truly gone.
        assert!(cache.invalidate_profile(&profile_key));
        assert!(!cache.invalidate_profile(&profile_key), "nothing left to drop");
        fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn checkpoint_io_failures_degrade_to_misses_never_errors() {
        let (cache, faults) = faulty_cache("ckpt-degrade");
        let w = workload(0.02);
        let key = CheckpointCacheKey::for_workload(&w);
        let ckpts = checkpoints_for(&w);
        cache.store_checkpoint(&key, &ckpts).unwrap();

        let reopened = ArtifactCache::new(cache.root()).with_storage(faults.clone());
        faults.inject(
            Fault::fail(FaultOp::Read, ErrorKind::PermissionDenied)
                .on_path(CheckpointCacheKey::EXT),
        );
        assert_eq!(reopened.probe(&key), None, "an unreadable checkpoint is a miss, not an error");
        assert_eq!(reopened.stats().degraded_loads, 1);
        assert_eq!(reopened.stats().checkpoint_misses, 1);

        // Stores degrade too: the memory tier still serves this process.
        faults.inject(Fault::fail(FaultOp::Write, ErrorKind::StorageFull));
        let degraded = ArtifactCache::new(cache.root()).with_storage(faults.clone());
        degraded.store_arc(&key, &Arc::new(ckpts.clone()));
        assert_eq!(degraded.stats().degraded_stores, 1);
        assert_eq!(*degraded.probe(&key).unwrap(), ckpts);
        fs::remove_dir_all(cache.root()).ok();
    }
}
