//! Child processes under drop guards.
//!
//! Servers bind `127.0.0.1:0` and announce the bound address on stdout;
//! the guard reads it from the `listening on http://…` line. Dropping a
//! [`Server`] on any exit path sends `/quitquitquit`, waits for a drain,
//! then kills and reaps the process, so a failed run leaves nothing
//! behind. [`Helper`] does the same for the benchmark's own child
//! processes, which talk over stdin and stdout.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::client::fetch;

/// How long a server may take to print its address or turn healthy.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Per-request timeout of setup fetches and scrapes.
pub const FETCH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained process may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// The release server binaries, built from the repository's workspace
/// next to the benchmark's own executable.
#[derive(Debug, Clone)]
pub struct Bins {
    pub serve: PathBuf,
    pub router: PathBuf,
}

impl Bins {
    /// Build `memo-serve` and `memo-router` into `target` (the cargo
    /// target directory the benchmark itself was built into).
    pub fn build(repo: &Path, target: &Path) -> Result<Bins, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(repo)
            .args(["build", "--release", "--offline", "--quiet"])
            .args([
                "-p",
                "memo-serve",
                "--bin",
                "memo-serve",
                "-p",
                "memo-cluster",
                "--bin",
                "memo-router",
            ])
            .arg("--target-dir")
            .arg(target)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the server binaries failed ({status})"));
        }
        let bins = Bins {
            serve: target.join("release/memo-serve"),
            router: target.join("release/memo-router"),
        };
        for bin in [&bins.serve, &bins.router] {
            if !bin.is_file() {
                return Err(format!("{} missing after build", bin.display()));
            }
        }
        Ok(bins)
    }
}

/// A command with every inherited `MEMO_*` knob removed, so only the
/// settings the benchmark passes reach the program under test.
pub fn clean_command(program: impl AsRef<std::ffi::OsStr>) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MEMO_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Spawn `cmd` with piped stdio; a thread forwards stdout lines to the
/// returned channel and keeps draining after the receiver is gone, so
/// the child never blocks on a full pipe.
fn spawn_piped(
    mut cmd: Command,
    stdin: bool,
) -> Result<(Child, Receiver<String>, JoinHandle<()>), String> {
    cmd.stdin(if stdin { Stdio::piped() } else { Stdio::null() })
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let _ = tx.send(line);
        }
    });
    Ok((child, rx, reader))
}

/// Wait up to `timeout` for `child` to exit; `true` if it did.
fn wait_exit(child: &mut Child, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) | Err(_) => return true,
            Ok(None) if Instant::now() >= deadline => return false,
            Ok(None) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// A running memo-serve or memo-router process.
pub struct Server {
    name: String,
    child: Child,
    addr: String,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn and wait for the `listening on http://ADDR` line.
    pub fn spawn(name: &str, cmd: Command) -> Result<Server, String> {
        let (child, lines, reader) = spawn_piped(cmd, false)?;
        let mut server = Server {
            name: name.to_string(),
            child,
            addr: String::new(),
            reader: Some(reader),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = lines
                .recv_timeout(left)
                .map_err(|_| format!("{name} did not report a listening address"))?;
            if let Some(rest) = line.split("listening on http://").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok(server);
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Peak resident set so far, in KiB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        vm_hwm_kb(self.child.id())
    }

    /// Poll `/healthz` until it answers 200 with `want`.
    pub fn wait_healthy(&self, want: &[u8]) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(r) = fetch(&self.addr, "/healthz", FETCH_TIMEOUT) {
                if r.status == 200 && r.body == want {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "{} at {} never reported healthy",
                    self.name, self.addr
                ));
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drain through `/quitquitquit` and wait for a clean exit (memo-serve
    /// flushes its store on the way out).
    pub fn quit(mut self) -> Result<(), String> {
        let _ = fetch(&self.addr, "/quitquitquit", FETCH_TIMEOUT);
        if !wait_exit(&mut self.child, EXIT_TIMEOUT) {
            return Err(format!("{} did not exit after /quitquitquit", self.name));
        }
        match self.child.try_wait() {
            Ok(Some(status)) if status.success() => Ok(()),
            other => Err(format!("{} exited badly: {other:?}", self.name)),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            if !self.addr.is_empty() {
                let _ = fetch(&self.addr, "/quitquitquit", Duration::from_secs(2));
            }
            if !wait_exit(&mut self.child, EXIT_TIMEOUT) {
                kill_and_reap(&mut self.child);
            }
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The serving processes of one workload. The router is declared first
/// so it drains before the nodes it holds connections to.
pub struct Fleet {
    pub router: Option<Server>,
    pub nodes: Vec<Server>,
}

impl Fleet {
    /// Where clients connect: the router if there is one.
    pub fn entry(&self) -> &str {
        self.router
            .as_ref()
            .map_or_else(|| self.nodes[0].addr(), Server::addr)
    }

    /// Sum of the processes' peak resident sets, in MiB.
    pub fn rss_mb(&self) -> f64 {
        let kb: u64 = self
            .router
            .iter()
            .chain(&self.nodes)
            .filter_map(Server::vm_hwm_kb)
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let mb = kb as f64 / 1024.0;
        mb
    }
}

/// One of the benchmark's own child processes (a cold reproduction or a
/// layer pass), driven over stdin and read over stdout lines.
pub struct Helper {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

/// Lines the helper protocol uses start with this; anything else a child
/// prints is ignored.
pub const TAG: &str = "@bench ";

impl Helper {
    pub fn spawn(cmd: Command) -> Result<Helper, String> {
        let (mut child, lines, reader) = spawn_piped(cmd, true)?;
        let stdin = child.stdin.take();
        Ok(Helper {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    /// Send one line on the child's stdin.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("child stdin: {e}"))
    }

    /// The next protocol line (tag stripped), waiting until `deadline`.
    pub fn next_line(&mut self, deadline: Instant) -> Result<String, String> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self.lines.recv_timeout(left).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => "child timed out".to_string(),
                mpsc::RecvTimeoutError::Disconnected => "child exited early".to_string(),
            })?;
            if let Some(rest) = line.strip_prefix(TAG) {
                return Ok(rest.to_string());
            }
        }
    }

    /// Close stdin and wait for the exit status.
    pub fn finish(mut self) -> Result<(), String> {
        self.stdin = None;
        if !wait_exit(&mut self.child, EXIT_TIMEOUT) {
            return Err("child did not exit".to_string());
        }
        match self.child.try_wait() {
            Ok(Some(status)) if status.success() => Ok(()),
            other => Err(format!("child exited badly: {other:?}")),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.stdin = None;
        if !wait_exit(&mut self.child, Duration::from_secs(2)) {
            kill_and_reap(&mut self.child);
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A fresh directory under the benchmark's output directory, removed
/// with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, label: &str) -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = parent.join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
