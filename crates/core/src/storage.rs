//! Storage seam for the on-disk tier of [`crate::ArtifactCache`].
//!
//! Every byte the cache reads from or writes to disk flows through the
//! [`Storage`] trait, so the cache's failure behaviour can be exercised
//! deterministically in tests. Two implementations ship with the crate:
//!
//! * [`RealFs`] — the production backend, a thin veneer over `std::fs`
//!   with an optional fsync-before-rename durability mode.
//! * [`FaultFs`] — a fault-injecting decorator around any other storage.
//!   Tests program it with a plan of injected errors (ENOSPC, permission
//!   failures, EINTR-style transients), torn writes, and crash-at-op-N
//!   kill points, then assert the cache degrades instead of corrupting.
//!
//! `FaultFs` is compiled unconditionally so integration tests in
//! dependent crates can use it, but it is a testing tool: production
//! callers should never wrap their storage in it.
//!
//! The seam is deliberately narrow: it exposes exactly the primitives
//! the cache needs (whole-file read/write, an in-place overwrite of an
//! existing file's bytes, create-exclusive, rename, remove, directory
//! scan, mtime touch) rather than a general filesystem API. Locking is built *on top of* these primitives by the
//! cache (create-exclusive lock files), not inside the trait, so fault
//! plans cover the lock protocol too.

use std::fmt;
use std::fs;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

/// Metadata for one regular file returned by [`Storage::read_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntryInfo {
    /// Absolute path of the file.
    pub path: PathBuf,
    /// Size of the file in bytes.
    pub len: u64,
    /// Last-modification time of the file.
    pub modified: SystemTime,
}

/// The narrow filesystem surface [`crate::ArtifactCache`] is built on.
///
/// Implementations must be safe to share across threads; the cache
/// holds one behind an `Arc` and clones freely. All operations are
/// path-addressed and, apart from [`write_at`](Storage::write_at),
/// whole-file — there are no open handles to leak across a fault
/// boundary.
pub trait Storage: fmt::Debug + Send + Sync {
    /// Read the entire contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Write `bytes` to `path`, replacing any existing file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Overwrite the bytes of the existing file at `path` from byte
    /// `offset` on with `bytes`, without creating or truncating it (a
    /// missing file fails with `NotFound`).  Not atomic: a crash can leave
    /// any part of `bytes` written, so callers overwrite in place only
    /// bytes whose damage they can detect — the `cache-state` file's
    /// sealed slots.
    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Create `path` exclusively (failing with `AlreadyExists` if it is
    /// present) and write `bytes` to it. Used for advisory lock files.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create `path` and any missing parent directories.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// List the regular files directly inside `path`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>>;

    /// Set the last-modification time of `path` to `mtime`.
    fn set_mtime(&self, path: &Path, mtime: SystemTime) -> io::Result<()>;
}

/// Production storage: `std::fs`, optionally fsyncing file contents
/// before they become visible under their final name.
///
/// The default (non-durable) mode matches what the cache always did:
/// write a temp file, rename it into place, and rely on the entry
/// self-validating on load if the machine loses power mid-write. The
/// [`RealFs::durable`] mode additionally calls `sync_all` on the temp
/// file before the rename, so a renamed entry's *contents* survive a
/// power cut, at a measurable cost per store, and `sync_data` after an
/// in-place [`write_at`](Storage::write_at).
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs {
    fsync_writes: bool,
}

impl RealFs {
    /// Storage with the default (no-fsync) write path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage that fsyncs file contents before `rename` makes them
    /// visible, trading store latency for power-cut durability.
    pub fn durable() -> Self {
        Self { fsync_writes: true }
    }
}

impl Storage for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fsync_writes {
            let mut file = fs::File::create(path)?;
            file.write_all(bytes)?;
            file.sync_all()
        } else {
            fs::write(path, bytes)
        }
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(bytes)?;
        if self.fsync_writes {
            file.sync_data()?;
        }
        Ok(())
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::File::create_new(path)?;
        file.write_all(bytes)?;
        file.flush()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(path)? {
            let entry = entry?;
            let metadata = entry.metadata()?;
            if !metadata.is_file() {
                continue;
            }
            entries.push(DirEntryInfo {
                path: entry.path(),
                len: metadata.len(),
                modified: metadata.modified()?,
            });
        }
        Ok(entries)
    }

    fn set_mtime(&self, path: &Path, mtime: SystemTime) -> io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_modified(mtime)
    }
}

/// The storage operation a [`Fault`] matches against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Match [`Storage::read`].
    Read,
    /// Match [`Storage::write`] and [`Storage::write_at`].
    Write,
    /// Match [`Storage::create_new`].
    CreateNew,
    /// Match [`Storage::rename`].
    Rename,
    /// Match [`Storage::remove_file`].
    Remove,
    /// Match [`Storage::create_dir_all`].
    CreateDir,
    /// Match [`Storage::read_dir`].
    ReadDir,
    /// Match [`Storage::set_mtime`].
    SetMtime,
    /// Match every operation.
    Any,
}

impl FaultOp {
    fn matches(self, op: FaultOp) -> bool {
        self == FaultOp::Any || self == op
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Fail the operation with the given error kind, without touching
    /// the underlying storage.
    Error(io::ErrorKind),
    /// For writes (whole-file or in place): persist only the first half
    /// of the payload, then fail. Models a torn write that ran out of
    /// space or was cut off.
    TornWrite(io::ErrorKind),
}

/// One programmable fault in a [`FaultFs`] plan.
///
/// A fault fires on operations whose type matches [`FaultOp`] and whose
/// path contains the configured substring (if any). `after(n)` skips
/// the first `n` matching operations; `times(k)` limits the fault to
/// `k` firings, which is how EINTR-style transients are modelled.
#[derive(Debug, Clone)]
pub struct Fault {
    op: FaultOp,
    kind: FaultKind,
    path_contains: Option<String>,
    skip: u64,
    times: u64,
    matched: u64,
    fired: u64,
}

impl Fault {
    /// A fault that fails every matching operation with `kind`.
    pub fn fail(op: FaultOp, kind: io::ErrorKind) -> Self {
        Self {
            op,
            kind: FaultKind::Error(kind),
            path_contains: None,
            skip: 0,
            times: u64::MAX,
            matched: 0,
            fired: 0,
        }
    }

    /// A fault that persists half of one write's payload, then fails it
    /// with `kind`.
    pub fn torn_write(kind: io::ErrorKind) -> Self {
        Self {
            op: FaultOp::Write,
            kind: FaultKind::TornWrite(kind),
            path_contains: None,
            skip: 0,
            times: 1,
            matched: 0,
            fired: 0,
        }
    }

    /// Restrict the fault to paths whose string form contains `needle`.
    pub fn on_path(mut self, needle: &str) -> Self {
        self.path_contains = Some(needle.to_owned());
        self
    }

    /// Skip the first `n` matching operations before firing.
    pub fn after(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Fire at most `n` times, then let matching operations through.
    pub fn times(mut self, n: u64) -> Self {
        self.times = n;
        self
    }

    /// Fire exactly once — the shape of a transient fault.
    pub fn once(self) -> Self {
        self.times(1)
    }

    fn try_fire(&mut self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        if !self.op.matches(op) {
            return None;
        }
        if let Some(needle) = &self.path_contains {
            if !path.to_string_lossy().contains(needle.as_str()) {
                return None;
            }
        }
        self.matched += 1;
        if self.matched <= self.skip || self.fired >= self.times {
            return None;
        }
        self.fired += 1;
        Some(self.kind)
    }
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    crash_at: Option<u64>,
    crashed: bool,
    faults: Vec<Fault>,
}

/// Fault-injecting storage decorator for tests.
///
/// Wraps another [`Storage`] and applies a programmable plan of
/// failures to the operations flowing through it. Every operation —
/// including reads and directory scans — consumes one slot of a global
/// op counter, which makes two things deterministic:
///
/// * **Single faults** fire on exactly the Nth matching op
///   ([`Fault::after`]) or the first K ([`Fault::times`]), so a test
///   replays the same failure every run.
/// * **Kill points** ([`FaultFs::crash_at_op`]) simulate a process
///   death: the Nth operation half-applies (a write persists a torn
///   prefix; any other mutation does nothing) and every operation after
///   it fails. A torture suite counts the ops in a healthy store, then
///   replays the store crashing at each index in turn.
///
/// This type is a testing tool. It is compiled unconditionally so
/// integration suites in dependent crates can drive it, but production
/// code should never construct one.
#[derive(Debug)]
pub struct FaultFs {
    inner: Box<dyn Storage>,
    state: Mutex<FaultState>,
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

/// The error kind used for operations refused after a simulated crash.
/// Deliberately a *persistent* kind so retry loops fail fast instead of
/// spinning against a dead process.
const CRASH_ERROR_KIND: io::ErrorKind = io::ErrorKind::Other;

impl FaultFs {
    /// Fault-injecting storage over the real filesystem.
    pub fn new() -> Self {
        Self::wrapping(RealFs::new())
    }

    /// Fault-injecting storage over an arbitrary backend.
    pub fn wrapping(inner: impl Storage + 'static) -> Self {
        Self { inner: Box::new(inner), state: Mutex::new(FaultState::default()) }
    }

    /// Add a fault to the plan. Faults are evaluated in insertion order
    /// and the first one that fires wins for that operation.
    pub fn inject(&self, fault: Fault) {
        self.lock_state().faults.push(fault);
    }

    /// Simulate a process crash at global op index `n` (0-based): op
    /// `n` half-applies and fails, every later op fails outright.
    pub fn crash_at_op(&self, n: u64) {
        self.lock_state().crash_at = Some(n);
    }

    /// Number of operations issued so far.
    pub fn ops(&self) -> u64 {
        self.lock_state().ops
    }

    /// Remove all faults and kill points and reset the op counter.
    pub fn reset(&self) {
        let mut state = self.lock_state();
        *state = FaultState::default();
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panic while holding this mutex leaves only fault-plan
        // bookkeeping behind; the poisoned state is still coherent.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Account one operation and decide its fate.
    fn check(&self, op: FaultOp, path: &Path) -> io::Result<Action> {
        let mut state = self.lock_state();
        let index = state.ops;
        state.ops += 1;
        if state.crashed {
            return Err(crash_error());
        }
        if state.crash_at == Some(index) {
            state.crashed = true;
            return Ok(Action::Crash);
        }
        for fault in &mut state.faults {
            match fault.try_fire(op, path) {
                Some(FaultKind::Error(kind)) => {
                    return Err(io::Error::new(kind, format!("injected {op:?} fault")));
                }
                Some(FaultKind::TornWrite(kind)) => return Ok(Action::Torn(kind)),
                None => {}
            }
        }
        Ok(Action::Proceed)
    }
}

fn crash_error() -> io::Error {
    io::Error::new(CRASH_ERROR_KIND, "storage unavailable: simulated crash")
}

enum Action {
    Proceed,
    /// Persist a torn prefix of the write, then fail with the kind.
    Torn(io::ErrorKind),
    /// The kill point: half-apply this op, fail it, fail everything after.
    Crash,
}

impl Storage for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.check(FaultOp::Read, path)? {
            Action::Proceed => self.inner.read(path),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected read fault")),
            Action::Crash => Err(crash_error()),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.check(FaultOp::Write, path)? {
            Action::Proceed => self.inner.write(path, bytes),
            Action::Torn(kind) => {
                let _ = self.inner.write(path, &bytes[..bytes.len() / 2]);
                Err(io::Error::new(kind, "injected torn write"))
            }
            Action::Crash => {
                // The process died mid-write: a torn prefix is on disk.
                let _ = self.inner.write(path, &bytes[..bytes.len() / 2]);
                Err(crash_error())
            }
        }
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let torn = &bytes[..bytes.len() / 2];
        match self.check(FaultOp::Write, path)? {
            Action::Proceed => self.inner.write_at(path, offset, bytes),
            Action::Torn(kind) => {
                let _ = self.inner.write_at(path, offset, torn);
                Err(io::Error::new(kind, "injected torn write"))
            }
            Action::Crash => {
                // The process died mid-write: a torn prefix is in place.
                let _ = self.inner.write_at(path, offset, torn);
                Err(crash_error())
            }
        }
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.check(FaultOp::CreateNew, path)? {
            Action::Proceed => self.inner.create_new(path, bytes),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected create_new fault")),
            Action::Crash => {
                // Died between creating the lock file and writing its
                // body: an empty lock is left behind.
                let _ = self.inner.create_new(path, &[]);
                Err(crash_error())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.check(FaultOp::Rename, from)? {
            Action::Proceed => self.inner.rename(from, to),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected rename fault")),
            Action::Crash => Err(crash_error()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.check(FaultOp::Remove, path)? {
            Action::Proceed => self.inner.remove_file(path),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected remove fault")),
            Action::Crash => Err(crash_error()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.check(FaultOp::CreateDir, path)? {
            Action::Proceed => self.inner.create_dir_all(path),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected create_dir fault")),
            Action::Crash => Err(crash_error()),
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        match self.check(FaultOp::ReadDir, path)? {
            Action::Proceed => self.inner.read_dir(path),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected read_dir fault")),
            Action::Crash => Err(crash_error()),
        }
    }

    fn set_mtime(&self, path: &Path, mtime: SystemTime) -> io::Result<()> {
        match self.check(FaultOp::SetMtime, path)? {
            Action::Proceed => self.inner.set_mtime(path, mtime),
            Action::Torn(kind) => Err(io::Error::new(kind, "injected set_mtime fault")),
            Action::Crash => Err(crash_error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn real_fs_round_trips_and_lists_files() {
        let dir = scratch("roundtrip");
        let fs_ = RealFs::new();
        let file = dir.join("a.bin");
        fs_.write(&file, b"payload").expect("write");
        assert_eq!(fs_.read(&file).expect("read"), b"payload");

        let listing = fs_.read_dir(&dir).expect("read_dir");
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].path, file);
        assert_eq!(listing[0].len, 7);

        fs_.rename(&file, &dir.join("b.bin")).expect("rename");
        assert!(fs_.read(&file).is_err());
        assert_eq!(fs_.read(&dir.join("b.bin")).expect("read renamed"), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_durable_mode_round_trips() {
        let dir = scratch("durable");
        let fs_ = RealFs::durable();
        let file = dir.join("a.bin");
        fs_.write(&file, b"synced").expect("durable write");
        assert_eq!(fs_.read(&file).expect("read"), b"synced");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_write_at_overwrites_in_place_only() {
        let dir = scratch("write-at");
        for fs_ in [RealFs::new(), RealFs::durable()] {
            let file = dir.join("a.bin");
            fs_.write(&file, b"0123456789").expect("write");
            fs_.write_at(&file, 3, b"abc").expect("write_at");
            assert_eq!(fs_.read(&file).expect("read"), b"012abc6789", "no truncation");
            let missing = fs_.write_at(&dir.join("missing.bin"), 0, b"x");
            assert_eq!(missing.expect_err("never creates").kind(), ErrorKind::NotFound);
            assert!(fs_.read(&dir.join("missing.bin")).is_err());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_new_is_exclusive() {
        let dir = scratch("excl");
        let fs_ = RealFs::new();
        let lock = dir.join(".lock");
        fs_.create_new(&lock, b"pid 1").expect("first create");
        let second = fs_.create_new(&lock, b"pid 2");
        assert_eq!(second.expect_err("must be exclusive").kind(), ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_fires_on_matching_op_only() {
        let dir = scratch("fault-match");
        let fs_ = FaultFs::new();
        fs_.inject(Fault::fail(FaultOp::Write, ErrorKind::StorageFull).on_path("victim"));

        fs_.write(&dir.join("other.bin"), b"ok").expect("unmatched path passes");
        let err = fs_.write(&dir.join("victim.bin"), b"no").expect_err("matched path fails");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        // The failed write must not have touched the filesystem.
        assert!(fs_.read(&dir.join("victim.bin")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fault_fires_a_bounded_number_of_times() {
        let dir = scratch("fault-transient");
        let fs_ = FaultFs::new();
        fs_.inject(Fault::fail(FaultOp::Write, ErrorKind::Interrupted).times(2));

        let file = dir.join("a.bin");
        assert!(fs_.write(&file, b"x").is_err());
        assert!(fs_.write(&file, b"x").is_err());
        fs_.write(&file, b"x").expect("third attempt passes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_skips_matching_ops_before_firing() {
        let dir = scratch("fault-after");
        let fs_ = FaultFs::new();
        fs_.inject(Fault::fail(FaultOp::Write, ErrorKind::PermissionDenied).after(1).once());

        let file = dir.join("a.bin");
        fs_.write(&file, b"first").expect("skipped");
        assert!(fs_.write(&file, b"second").is_err());
        fs_.write(&file, b"third").expect("exhausted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_persists_half_the_payload() {
        let dir = scratch("fault-torn");
        let fs_ = FaultFs::new();
        fs_.inject(Fault::torn_write(ErrorKind::StorageFull));

        let file = dir.join("a.bin");
        let err = fs_.write(&file, b"12345678").expect_err("torn write fails");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(fs_.read(&file).expect("torn prefix on disk"), b"1234");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_crashed_write_at_persist_half_the_payload_in_place() {
        let dir = scratch("fault-torn-at");
        let fs_ = FaultFs::new();
        let file = dir.join("a.bin");
        fs_.write(&file, b"........").expect("seed");
        fs_.inject(Fault::torn_write(ErrorKind::StorageFull));
        let err = fs_.write_at(&file, 2, b"abcd").expect_err("torn write_at fails");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(fs_.read(&file).expect("read"), b"..ab....");

        fs_.crash_at_op(fs_.ops());
        assert_eq!(
            fs_.write_at(&file, 4, b"wxyz").expect_err("kill point").kind(),
            CRASH_ERROR_KIND
        );
        assert_eq!(RealFs::new().read(&file).expect("torn prefix"), b"..abwx..");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_at_op_half_applies_then_kills_everything_after() {
        let dir = scratch("fault-crash");
        let fs_ = FaultFs::new();
        // Op 0 is the read below, op 1 is the write that crashes.
        fs_.crash_at_op(1);

        assert!(fs_.read(&dir.join("missing.bin")).is_err());
        let err = fs_.write(&dir.join("a.bin"), b"12345678").expect_err("kill point");
        assert_eq!(err.kind(), CRASH_ERROR_KIND);
        // Dead process: every later op fails, even ones that would succeed.
        assert!(fs_.write(&dir.join("b.bin"), b"x").is_err());
        assert!(fs_.read_dir(&dir).is_err());
        // But the torn prefix from the dying write is on disk for a
        // *fresh* storage (a reopened process) to observe.
        assert_eq!(RealFs::new().read(&dir.join("a.bin")).expect("torn prefix"), b"1234");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_counter_counts_every_operation() {
        let dir = scratch("fault-ops");
        let fs_ = FaultFs::new();
        assert_eq!(fs_.ops(), 0);
        let _ = fs_.read(&dir.join("missing.bin"));
        let _ = fs_.write(&dir.join("a.bin"), b"x");
        let _ = fs_.read_dir(&dir);
        assert_eq!(fs_.ops(), 3);
        fs_.reset();
        assert_eq!(fs_.ops(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
