//! The virtual filesystem under every store I/O, and its fault-injecting
//! double.
//!
//! All file traffic in this crate — WAL appends, segment writes, renames,
//! fsyncs, directory listings — goes through the [`Vfs`] trait. Production
//! uses [`RealVfs`] (thin `std::fs` passthrough). Tests and chaos runs use
//! [`FaultVfs`], which wraps the real filesystem and injects faults
//! *deterministically*: a SplitMix64 stream seeded by [`FaultConfig::seed`]
//! decides, per operation, whether to fail it, and scheduled faults fire at
//! exact per-class operation counts (the 3rd fsync, the 7th write, …).
//!
//! The injectable fault surface mirrors what real disks do to serving
//! systems:
//!
//! * clean I/O errors on read, write, fsync, and rename;
//! * `ENOSPC` on writes (a full disk);
//! * **short writes** — a prefix of the buffer lands, then the call fails,
//!   exactly the torn-write shape the WAL's CRC framing exists to catch;
//! * configurable latency, so slow disks (not just broken ones) are
//!   reproducible.
//!
//! Open/create/list/remove metadata calls pass through unfaulted: the
//! interesting failure domains are the data path and the durability path,
//! and keeping metadata reliable keeps every injected run recoverable.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One open file behind the [`Vfs`] abstraction.
///
/// The handle owns its cursor semantics: [`read_all`](VfsFile::read_all)
/// reads from the start, [`append`](VfsFile::append) writes at the end,
/// [`truncate`](VfsFile::truncate) cuts to `len` and repositions there,
/// and [`read_exact_at`](VfsFile::read_exact_at) is positioned.
pub trait VfsFile: Send {
    /// Read the whole file (from offset 0) into memory.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;

    /// Append `buf` at the end of the file, fully. A short write is an
    /// error (the prefix may have landed — exactly a torn write).
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures, including injected
    /// `ENOSPC` and short writes.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flush file contents to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Underlying (or injected) sync failures.
    fn sync(&mut self) -> io::Result<()>;

    /// Cut the file to `len` bytes and position the cursor there.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures (never injected: recovery must be able to
    /// truncate a damaged tail even on a misbehaving disk).
    fn truncate(&mut self, len: u64) -> io::Result<()>;

    /// Read exactly `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

/// The filesystem the store runs on. Implementations must be shareable
/// across the store's threads.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Open `path` read+write, creating it if absent (the WAL shape).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Create (or truncate) `path` for writing (the segment-tmp shape).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Open `path` read-only (the segment shape).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically move `from` over `to`.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) failures — a crashed rename must leave
    /// `to` either absent or fully the old file, never half of each.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create `path` and any missing parents.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The entries directly inside `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Flush the *directory entry* at `path` to stable storage.
    ///
    /// A rename is only crash-durable once the parent directory's entry
    /// list is on disk; fsyncing the file alone leaves the publish
    /// vulnerable to vanishing with the dir cache. Counted as an `Fsync`
    /// class operation by the fault injector.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) sync failures.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------------

/// Direct `std::fs` passthrough — production behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.0.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.0.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::End(0))?;
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len)).map(|_| ())
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.read_exact(buf)
    }
}

impl Vfs for RealVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::open(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(path)?.map(|e| e.map(|e| e.path())).collect()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// The operation classes faults attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `read_all` / `read_exact_at`.
    Read,
    /// `append` (WAL records, segment bodies).
    Write,
    /// `sync` (durability points).
    Fsync,
    /// `rename` (segment publication).
    Rename,
}

impl FaultOp {
    /// All classes, in counter order.
    pub const ALL: [FaultOp; 4] = [FaultOp::Read, FaultOp::Write, FaultOp::Fsync, FaultOp::Rename];

    fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
            FaultOp::Fsync => 2,
            FaultOp::Rename => 3,
        }
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A clean I/O error; nothing reached the disk.
    Error,
    /// `ENOSPC` — the disk is full (write classes only; elsewhere it
    /// degrades to [`FaultKind::Error`]).
    Enospc,
    /// A deterministic prefix of the buffer lands, then the call fails —
    /// the torn-write shape (write class only; elsewhere an error).
    ShortWrite,
}

/// A fault pinned to an exact operation count: "the `nth` operation of
/// class `op` (1-based) fails as `kind`". Scheduled faults take priority
/// over the probabilistic stream, so tests can script exact orderings
/// like *fsync fails, then the process crashes*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The operation class to fault.
    pub op: FaultOp,
    /// Which occurrence (1-based count within the class).
    pub nth: u64,
    /// How the fault manifests.
    pub kind: FaultKind,
}

/// Everything configurable about a [`FaultVfs`]. Rates are per-mille
/// (0 = never, 1000 = always), evaluated against the deterministic
/// seeded stream once per operation.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the SplitMix64 decision stream.
    pub seed: u64,
    /// Per-mille chance each read fails.
    pub read_error_permille: u32,
    /// Per-mille chance each write (append) fails.
    pub write_error_permille: u32,
    /// Per-mille chance each fsync fails.
    pub fsync_error_permille: u32,
    /// Per-mille chance each rename fails.
    pub rename_error_permille: u32,
    /// Of the write faults that fire, per-mille that manifest as `ENOSPC`.
    pub enospc_permille: u32,
    /// Of the write faults that fire, per-mille that manifest as a short
    /// write (after the `ENOSPC` share).
    pub short_write_permille: u32,
    /// Per-mille chance any faultable operation is delayed by
    /// [`latency`](FaultConfig::latency) before running.
    pub latency_permille: u32,
    /// The injected delay.
    pub latency: Duration,
    /// Exact-count faults, consulted before the probabilistic stream.
    pub scheduled: Vec<ScheduledFault>,
}

impl FaultConfig {
    /// A configuration that injects nothing — a counting passthrough.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_permille: 0,
            write_error_permille: 0,
            fsync_error_permille: 0,
            rename_error_permille: 0,
            enospc_permille: 0,
            short_write_permille: 0,
            latency_permille: 0,
            latency: Duration::ZERO,
            scheduled: Vec::new(),
        }
    }
}

/// A snapshot of what the injector has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations seen per class (`FaultOp::ALL` order).
    pub ops: [u64; 4],
    /// Faults injected per class (`FaultOp::ALL` order).
    pub injected: [u64; 4],
    /// Of the injected write faults, how many were short writes.
    pub short_writes: u64,
    /// Of the injected write faults, how many were `ENOSPC`.
    pub enospc: u64,
    /// Latency injections applied.
    pub delays: u64,
}

/// SplitMix64 — the same deterministic generator the rest of the
/// workspace uses; reimplemented here because this crate is
/// dependency-free by policy. Unlike the other copies, `next_below` maps
/// by modulo, not multiply-shift, and every seeded fault schedule of the
/// crash and chaos suites depends on that mapping.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

struct FaultState {
    config: FaultConfig,
    rng: SplitMix64,
    /// Per-class operation counts (for scheduled faults).
    counts: [u64; 4],
}

struct FaultShared {
    state: Mutex<FaultState>,
    injected: [AtomicU64; 4],
    short_writes: AtomicU64,
    enospc: AtomicU64,
    delays: AtomicU64,
}

/// What one operation should do, as decided by the shared state.
struct Decision {
    delay: Option<Duration>,
    fault: Option<FaultKind>,
}

impl FaultShared {
    fn decide(&self, op: FaultOp) -> Decision {
        let mut st = self.state.lock().expect("fault state poisoned");
        st.counts[op.index()] += 1;
        let n = st.counts[op.index()];

        let delay = (st.config.latency_permille > 0
            && st.rng.next_below(1000) < u64::from(st.config.latency_permille))
        .then_some(st.config.latency);

        let scheduled =
            st.config.scheduled.iter().find(|s| s.op == op && s.nth == n).map(|s| s.kind);
        let fault = scheduled.or_else(|| {
            let permille = match op {
                FaultOp::Read => st.config.read_error_permille,
                FaultOp::Write => st.config.write_error_permille,
                FaultOp::Fsync => st.config.fsync_error_permille,
                FaultOp::Rename => st.config.rename_error_permille,
            };
            if permille == 0 || st.rng.next_below(1000) >= u64::from(permille) {
                return None;
            }
            if op == FaultOp::Write {
                // Split the write-fault budget: ENOSPC, then short write,
                // then a clean error.
                let roll = st.rng.next_below(1000);
                if roll < u64::from(st.config.enospc_permille) {
                    Some(FaultKind::Enospc)
                } else if roll
                    < u64::from(st.config.enospc_permille)
                        + u64::from(st.config.short_write_permille)
                {
                    Some(FaultKind::ShortWrite)
                } else {
                    Some(FaultKind::Error)
                }
            } else {
                Some(FaultKind::Error)
            }
        });
        drop(st);

        if let Some(kind) = fault {
            self.injected[op.index()].fetch_add(1, Ordering::Relaxed);
            match kind {
                FaultKind::ShortWrite => {
                    self.short_writes.fetch_add(1, Ordering::Relaxed);
                }
                FaultKind::Enospc => {
                    self.enospc.fetch_add(1, Ordering::Relaxed);
                }
                FaultKind::Error => {}
            }
        }
        if delay.is_some() {
            self.delays.fetch_add(1, Ordering::Relaxed);
        }
        Decision { delay, fault }
    }

    /// A deterministic prefix length for a short write of `len` bytes —
    /// always strictly shorter than the buffer, so the write is torn.
    fn short_prefix(&self, len: usize) -> usize {
        let mut st = self.state.lock().expect("fault state poisoned");
        usize::try_from(st.rng.next_below(len.max(1) as u64)).unwrap_or(0)
    }
}

fn injected_err(op: FaultOp, kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => {
            io::Error::other(format!("injected {op:?} fault: no space left on device (ENOSPC)"))
        }
        FaultKind::ShortWrite => io::Error::other(format!("injected {op:?} fault: short write")),
        FaultKind::Error => io::Error::other(format!("injected {op:?} fault: I/O error")),
    }
}

/// A [`Vfs`] that passes through to [`RealVfs`] while deterministically
/// injecting faults per [`FaultConfig`]. Share the `Arc` you give the
/// store to reconfigure the fault mix mid-run ([`set_config`](Self::set_config))
/// and to read [`stats`](Self::stats).
pub struct FaultVfs {
    inner: RealVfs,
    shared: Arc<FaultShared>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FaultVfs").field("stats", &stats).finish_non_exhaustive()
    }
}

impl FaultVfs {
    /// An injector over the real filesystem.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        let rng = SplitMix64(config.seed ^ 0x5DEE_CE66_D1CE_C0DE);
        FaultVfs {
            inner: RealVfs,
            shared: Arc::new(FaultShared {
                state: Mutex::new(FaultState { config, rng, counts: [0; 4] }),
                injected: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
                short_writes: AtomicU64::new(0),
                enospc: AtomicU64::new(0),
                delays: AtomicU64::new(0),
            }),
        }
    }

    /// Swap the fault mix mid-run (chaos phases: storm → calm). The
    /// operation counts and the decision stream continue; scheduled
    /// faults in the new config match against the continuing counts.
    pub fn set_config(&self, config: FaultConfig) {
        let mut st = self.shared.state.lock().expect("fault state poisoned");
        st.rng = SplitMix64(config.seed ^ 0x5DEE_CE66_D1CE_C0DE);
        st.config = config;
    }

    /// Stop injecting anything (counting passthrough from here on).
    pub fn quiesce(&self) {
        let seed = self.shared.state.lock().expect("fault state poisoned").config.seed;
        self.set_config(FaultConfig::quiet(seed));
    }

    /// Snapshot the injection counters.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        let counts = self.shared.state.lock().expect("fault state poisoned").counts;
        FaultStats {
            ops: counts,
            injected: [
                self.shared.injected[0].load(Ordering::Relaxed),
                self.shared.injected[1].load(Ordering::Relaxed),
                self.shared.injected[2].load(Ordering::Relaxed),
                self.shared.injected[3].load(Ordering::Relaxed),
            ],
            short_writes: self.shared.short_writes.load(Ordering::Relaxed),
            enospc: self.shared.enospc.load(Ordering::Relaxed),
            delays: self.shared.delays.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile { inner: file, shared: Arc::clone(&self.shared) })
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    shared: Arc<FaultShared>,
}

impl FaultFile {
    fn gate(&self, op: FaultOp) -> io::Result<()> {
        let decision = self.shared.decide(op);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            Some(kind) => Err(injected_err(op, kind)),
            None => Ok(()),
        }
    }
}

impl VfsFile for FaultFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.gate(FaultOp::Read)?;
        self.inner.read_all()
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let decision = self.shared.decide(FaultOp::Write);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            None => self.inner.append(buf),
            Some(FaultKind::ShortWrite) => {
                // The torn-write shape: a prefix lands, the call fails.
                let prefix = self.shared.short_prefix(buf.len());
                let _ = self.inner.append(&buf[..prefix]);
                Err(injected_err(FaultOp::Write, FaultKind::ShortWrite))
            }
            Some(kind) => Err(injected_err(FaultOp::Write, kind)),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.gate(FaultOp::Fsync)?;
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Never injected: recovery must be able to cut a damaged tail.
        self.inner.truncate(len)
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.gate(FaultOp::Read)?;
        self.inner.read_exact_at(offset, buf)
    }
}

impl Vfs for FaultVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_rw(path).map(|f| self.wrap(f))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_read(path).map(|f| self.wrap(f))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let decision = self.shared.decide(FaultOp::Rename);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            Some(kind) => Err(injected_err(FaultOp::Rename, kind)),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Durability-point class, same as file fsync: a dir sync that
        // fails means the rename it covers may not survive a crash.
        let decision = self.shared.decide(FaultOp::Fsync);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            Some(kind) => Err(injected_err(FaultOp::Fsync, kind)),
            None => self.inner.sync_dir(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `name` in a fresh directory of its own, so tests running in
    /// parallel share none; [`remove_tmp`] deletes the directory.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memo-vfs-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn remove_tmp(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().expect("a tmp path has a directory"));
    }

    #[test]
    fn real_vfs_roundtrips_append_truncate_and_positioned_reads() {
        let path = tmp("real.bin");
        let vfs = RealVfs;
        let mut f = vfs.open_rw(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world");
        // Appends after a full read still land at the end.
        f.append(b"!").unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world!");
        f.truncate(5).unwrap();
        f.append(b"?").unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello?");
        let mut buf = [0u8; 2];
        f.read_exact_at(1, &mut buf).unwrap();
        assert_eq!(&buf, b"el");
        remove_tmp(&path);
    }

    #[test]
    fn quiet_fault_vfs_is_a_counting_passthrough() {
        let path = tmp("quiet.bin");
        let vfs = FaultVfs::new(FaultConfig::quiet(7));
        let mut f = vfs.open_rw(&path).unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"data");
        let stats = vfs.stats();
        assert_eq!(stats.ops, [1, 1, 1, 0]);
        assert_eq!(stats.injected, [0; 4]);
        remove_tmp(&path);
    }

    #[test]
    fn scheduled_faults_fire_at_exact_operation_counts() {
        let path = tmp("sched.bin");
        let vfs = FaultVfs::new(FaultConfig {
            scheduled: vec![
                ScheduledFault { op: FaultOp::Write, nth: 2, kind: FaultKind::Error },
                ScheduledFault { op: FaultOp::Fsync, nth: 1, kind: FaultKind::Error },
            ],
            ..FaultConfig::quiet(3)
        });
        let mut f = vfs.open_rw(&path).unwrap();
        f.append(b"a").unwrap(); // write #1: clean
        assert!(f.append(b"b").is_err(), "write #2 is scheduled to fail");
        f.append(b"c").unwrap(); // write #3: clean again
        assert!(f.sync().is_err(), "fsync #1 is scheduled to fail");
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"ac", "the failed write left nothing behind");
        let stats = vfs.stats();
        assert_eq!(stats.injected, [0, 1, 1, 0]);
        remove_tmp(&path);
    }

    #[test]
    fn short_writes_land_a_strict_prefix() {
        let path = tmp("short.bin");
        let vfs = FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Write,
                nth: 1,
                kind: FaultKind::ShortWrite,
            }],
            ..FaultConfig::quiet(11)
        });
        let mut f = vfs.open_rw(&path).unwrap();
        let payload = vec![0xAB; 64];
        assert!(f.append(&payload).is_err());
        let on_disk = f.read_all().unwrap();
        assert!(on_disk.len() < payload.len(), "a short write must be torn");
        assert_eq!(on_disk, payload[..on_disk.len()], "the prefix that landed is intact");
        assert_eq!(vfs.stats().short_writes, 1);
        remove_tmp(&path);
    }

    #[test]
    fn rate_based_faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let path = tmp(&format!("rate-{seed}.bin"));
            let vfs = FaultVfs::new(FaultConfig {
                write_error_permille: 400,
                ..FaultConfig::quiet(seed)
            });
            let mut f = vfs.open_rw(&path).unwrap();
            let outcomes = (0..64).map(|_| f.append(b"x").is_ok()).collect();
            remove_tmp(&path);
            outcomes
        };
        assert_eq!(run(5), run(5), "same seed, same fault pattern");
        assert_ne!(run(5), run(6), "different seeds diverge");
        assert!(run(5).iter().any(|ok| !ok), "a 40% rate must fire within 64 ops");
        assert!(run(5).iter().any(|ok| *ok), "and must not fire always");
    }

    #[test]
    fn enospc_faults_name_the_condition() {
        let vfs = FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault { op: FaultOp::Write, nth: 1, kind: FaultKind::Enospc }],
            ..FaultConfig::quiet(1)
        });
        let path = tmp("enospc.bin");
        let mut f = vfs.open_rw(&path).unwrap();
        let err = f.append(b"z").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(vfs.stats().enospc, 1);
        remove_tmp(&path);
    }

    #[test]
    fn reconfiguration_mid_run_changes_the_mix() {
        let path = tmp("reconf.bin");
        let vfs = FaultVfs::new(FaultConfig {
            write_error_permille: 1000,
            ..FaultConfig::quiet(9)
        });
        let mut f = vfs.open_rw(&path).unwrap();
        assert!(f.append(b"x").is_err(), "storm phase: every write fails");
        vfs.quiesce();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.stats().ops[FaultOp::Write.index()], 2);
        remove_tmp(&path);
    }
}
