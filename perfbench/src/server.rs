//! The `wmlp-serve` process under test, and the kernel counters read
//! around it.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use wmlp_loadgen::timing::Clock;

use crate::workload::{
    Workload, EPOCH_LEN, K, LEVELS, PAGES, POLICY, SHARDS, VALUE_SIZE, WEIGHT_SEED,
};

/// How long a shut-down server may take to exit before it is killed.
const EXIT_WAIT: Duration = Duration::from_secs(20);

/// A running server process. Dropping it kills and reaps the process if
/// it has not exited yet, so no error path leaves it behind.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    exited: bool,
}

/// The flags the server is started with for `wl`.
pub fn serve_args(wl: &Workload, seed: u64, store_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &SHARDS.to_string(),
        "--pages",
        &PAGES.to_string(),
        "--levels",
        &LEVELS.to_string(),
        "--k",
        &K.to_string(),
        "--weight-seed",
        &WEIGHT_SEED.to_string(),
        "--policy",
        POLICY,
        "--seed",
        &seed.to_string(),
        "--io-mode",
        "epoll",
        "--partition",
        wl.partition,
        "--epoch-len",
        &EPOCH_LEN.to_string(),
        "--value-size",
        &VALUE_SIZE.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = store_dir {
        args.push("--store".into());
        args.push(dir.display().to_string());
        args.push("--recover".into());
        args.push("warm".into());
    }
    args
}

impl ServerProc {
    /// Start the server and wait for its `listening on` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            reap(&mut child);
            return Err("server stdout was not captured".into());
        };
        let mut proc = ServerProc {
            child,
            stdout: BufReader::new(out),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            exited: false,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match proc.stdout.read_line(&mut line) {
                Ok(0) => return Err("server exited before listening".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read server stdout: {e}")),
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                proc.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(proc);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit after a SHUTDOWN; true when it exited
    /// with status 0 after printing its final `served` line.
    pub fn wait_clean(&mut self) -> Result<bool, String> {
        let mut rest = String::new();
        let mut served = false;
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server stdout: {e}"))?
            > 0
        {
            served |= line.starts_with("served ");
            rest.push_str(&line);
            line.clear();
        }
        let clock = Clock::start();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.exited = true;
                    return Ok(status.success() && served);
                }
                Ok(None) if clock.now_nanos() < EXIT_WAIT.as_nanos() as u64 => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

/// Kill `child` and wait for it to end.
fn reap(child: &mut Child) {
    let _ = child.kill();
    // lint:allow(C1): a process wait, not a condvar wait; it returns once
    // the killed child has exited.
    let _ = child.wait();
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.exited {
            reap(&mut self.child);
        }
    }
}

/// Connect to `addr`, returning the stream and the connect time in ns.
pub fn connect(addr: SocketAddr, clock: &Clock) -> Result<(TcpStream, u64), String> {
    let t0 = clock.now_nanos();
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let ns = clock.now_nanos() - t0;
    // The client sends each write at once, as a latency-bound client
    // does; what the server does with its own writes is under test.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY: {e}"))?;
    Ok((stream, ns))
}

/// Peak resident set (VmHWM) of process `pid`, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `TcpExt` counters of interest: (ListenOverflows, TCPSynRetrans).
pub fn netstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/net/netstat").unwrap_or_default();
    let mut lines = text.lines().filter(|l| l.starts_with("TcpExt:"));
    let (Some(names), Some(values)) = (lines.next(), lines.next()) else {
        return (0, 0);
    };
    let get = |key: &str| {
        names
            .split_whitespace()
            .zip(values.split_whitespace())
            .find(|(n, _)| *n == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0)
    };
    (get("ListenOverflows"), get("TCPSynRetrans"))
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
