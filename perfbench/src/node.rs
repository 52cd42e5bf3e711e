//! `mine serve` child processes: start on a free port, wait until ready,
//! read CPU and peak memory from `/proc`, kill and reap. A [`Node`] kills
//! its process when dropped, so no exit path leaves a server behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mine_server::HttpClient;

pub type Result<T> = std::result::Result<T, String>;

const START_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug)]
pub struct Node {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
    pub repl_addr: Option<String>,
    pub dir: PathBuf,
    pid: u32,
}

/// The environment every child runs with: scratch files stay inside the
/// benchmark's work directory.
pub fn command(mine: &Path, tmp: &Path) -> Command {
    let mut command = Command::new(mine);
    command.env("TMPDIR", tmp).env_remove("MINE_FAULT_PLAN");
    command
}

impl Node {
    /// Starts `mine serve <bank> --data-dir <dir> <extra…>` on a free
    /// port and waits for its listening line (and the replication
    /// listener's, when `--repl-addr` is among `extra`).
    pub fn start(
        mine: &Path,
        tmp: &Path,
        bank: &Path,
        dir: &Path,
        extra: &[String],
        log: &Path,
    ) -> Result<Node> {
        let stderr =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut child = command(mine, tmp)
            .arg("serve")
            .arg(bank)
            .args(["--addr", "127.0.0.1:0", "--threads", "4", "--data-dir"])
            .arg(dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mine.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("piped");
        let (lines, rx) = mpsc::channel::<String>();
        // Keeps draining the server's stdout until it exits.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = lines.send(line);
            }
        });
        let mut node = Node {
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
            repl_addr: None,
            dir: dir.to_path_buf(),
            pid,
        };
        let wants_repl = extra.iter().any(|a| a == "--repl-addr");
        let deadline = Instant::now() + START_TIMEOUT;
        while node.addr.is_empty() || (wants_repl && node.repl_addr.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!("server did not report its address (see {})", log.display())
            })?;
            if let Some(addr) = line.strip_prefix("listening on http://") {
                node.addr = addr
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            } else if let Some(addr) = line.strip_prefix("replication listener on ") {
                node.repl_addr = Some(addr.trim().to_string());
            }
        }
        Ok(node)
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }

    /// (user + system CPU seconds, peak RSS in MiB) from `/proc`.
    pub fn usage(&self, clk_tck: f64) -> Result<(f64, f64)> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("reading /proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let cpu = (ticks(11) + ticks(12)) / clk_tck;
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("reading /proc/{}/status: {e}", self.pid))?;
        let hwm_kb = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok((cpu, hwm_kb / 1024.0))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One GET on a fresh connection (probes and checks, never timed).
pub fn get(addr: &str, path: &str) -> Result<(u16, String)> {
    let mut client = HttpClient::with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let response = client
        .get(path)
        .map_err(|e| format!("GET {path} on {addr}: {e}"))?;
    Ok((response.status, response.body))
}

/// Polls until `ready` holds, or fails after `timeout`.
pub fn wait_until(what: &str, timeout: Duration, mut ready: impl FnMut() -> bool) -> Result<()> {
    let deadline = Instant::now() + timeout;
    while !ready() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// An unlabelled Prometheus sample (`name value`), 0 when absent.
pub fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| line.strip_prefix(name))
        .filter_map(|rest| rest.strip_prefix(' '))
        .find_map(|value| value.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The `last_applied_seq` a node reports on `/healthz`.
pub fn head_seq(addr: &str) -> Result<u64> {
    let (_, body) = get(addr, "/healthz")?;
    let value: serde::Value = serde_json::from_str(&body).map_err(|e| format!("healthz: {e}"))?;
    match value.get("last_applied_seq") {
        Some(serde::Value::Number(serde::Number::PosInt(n))) => Ok(*n),
        _ => Err(format!("healthz without last_applied_seq: {body}")),
    }
}

/// The filesystem type mounted under `path` (longest mount-point prefix).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Bytes of every WAL segment and snapshot under `dir`.
pub fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(std::result::Result::ok)
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name.starts_with("wal-") && name.ends_with(".log"))
                        || (name.starts_with("snapshot-") && name.ends_with(".snap"))
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
