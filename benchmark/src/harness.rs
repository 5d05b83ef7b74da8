//! Plumbing between the benchmark and the program under test: building
//! the `scenarios` binary, scratch directories, child processes that are
//! reaped (or killed) on every exit path, and the interrupt flag.
//!
//! Everything a run writes lives under `benchmark/out/` in the checkout;
//! the user's cache directory and `target/figures` are never touched
//! (every child gets explicit `--cache-dir` and `--json` paths).

use scenarios::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// Connections (and server worker threads, and sweep `--threads`): one per
/// core up to four. The load generator is this one process with exactly
/// this many closed-loop client threads, so it never outnumbers the cores
/// it shares with the server.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signal: i32) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// Turn Ctrl-C into a flag the measuring loops poll, so that an
/// interrupted run unwinds through its drop guards (server killed, scratch
/// directories removed) instead of dying with children still running.
pub fn install_interrupt_flag() {
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is the C library's; the handler is an `extern "C"`
    // function that performs a single atomic store and nothing else.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

pub fn check_interrupt() -> Res<()> {
    if interrupted() {
        Err("interrupted".into())
    } else {
        Ok(())
    }
}

/// A scratch directory under `benchmark/out/`, removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(out_dir: &Path, label: &str) -> Res<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "tmp-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the checkout's binaries land: `$CARGO_TARGET_DIR` if set (the
/// driver sets it to `.bench_build`), else the workspace's `target/`.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Build `scenarios` from the root workspace and return its path and the
/// build time. A no-op after the first run in a checkout.
pub fn build_scenarios(root: &Path) -> Res<(PathBuf, f64)> {
    if !root.join("crates/bench/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no crates/bench); run from the root of a checkout",
            root.display()
        ));
    }
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "bench", "--bin", "scenarios"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the scenarios binary failed: {status}"));
    }
    let bin = target_dir(root).join("release/scenarios");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok((bin, started.elapsed().as_secs_f64()))
}

/// A spawned child that is killed and reaped if dropped before it was
/// waited for — the guard behind "no process outlives the benchmark".
struct ChildGuard {
    child: Option<Child>,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one finished `scenarios` CLI child cost.
#[derive(Debug, Clone)]
pub struct CliRun {
    /// Spawn to the `[scenarios] running N jobs` line, when it printed one.
    pub ack_s: Option<f64>,
    /// Spawn to exit.
    pub wall_s: f64,
    pub max_rss_kb: u64,
    pub success: bool,
}

/// Run one CLI child to completion, timing it from outside. Its stdout is
/// read line by line (to stamp the acknowledgement line and so that the
/// pipe never fills); stderr passes through.
pub fn run_cli(bin: &Path, args: &[String]) -> Res<CliRun> {
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut guard = ChildGuard { child: Some(child) };
    let stdout = guard
        .child
        .as_mut()
        .and_then(|c| c.stdout.take())
        .expect("stdout was piped");
    let mut ack_s = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child stdout: {e}"))?;
        if ack_s.is_none() && line.starts_with("[scenarios] running ") {
            ack_s = Some(started.elapsed().as_secs_f64());
        }
    }
    let child = guard.child.take().expect("not yet waited");
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own un-reaped child (std has not waited on it:
    // the `Child` is only dropped below, which neither waits nor kills);
    // both out-pointers refer to live, correctly laid out locals.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(format!("wait4({pid}) returned {reaped}"));
    }
    Ok(CliRun {
        ack_s,
        wall_s,
        max_rss_kb: usage.ru_maxrss.max(0) as u64,
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// A live `scenarios serve` child. Dropping it kills the server.
pub struct ServerProc {
    guard: ChildGuard,
    /// Held open until the server exited: its farewell line must not hit
    /// a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to the first successful `ping`.
    pub ready_s: f64,
}

impl ServerProc {
    /// Spawn on an OS-chosen port (`127.0.0.1:0`), read the address from
    /// the `[serve] ... listening on` line, and wait for the first `ping`.
    pub fn spawn(bin: &Path, threads: usize, cache_dir: &Path) -> Res<ServerProc> {
        let started = Instant::now();
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--threads", &threads.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut guard = ChildGuard { child: Some(child) };
        let stdout = guard
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .expect("stdout was piped");
        let mut stdout = BufReader::new(stdout);
        let mut addr = None;
        let mut line = String::new();
        while stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?
            > 0
        {
            if let Some(rest) = line.strip_prefix("[serve] what-if service listening on ") {
                let text = rest.split_whitespace().next().unwrap_or_default();
                addr = Some(
                    text.parse::<SocketAddr>()
                        .map_err(|e| format!("server address `{text}`: {e}"))?,
                );
                break;
            }
            line.clear();
        }
        let addr = addr.ok_or("the server exited before printing its listen address")?;
        Client::connect(addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("first ping: {e}"))?;
        Ok(ServerProc {
            guard,
            _stdout: stdout,
            addr,
            ready_s: started.elapsed().as_secs_f64(),
        })
    }

    /// The server's peak resident set so far, from `/proc/<pid>/status`.
    pub fn vm_hwm_kb(&self) -> Res<u64> {
        let pid = self.guard.child.as_ref().expect("server is live").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
    }

    /// Ask the server to stop and wait for it; kill it if it lingers.
    pub fn shutdown(mut self) -> Res<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let mut child = self.guard.child.take().expect("server is live");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the server did not exit within 10 s of `shutdown`".into());
                }
            }
        }
        asked.map_err(|e| format!("shutdown verb: {e}"))
    }
}
