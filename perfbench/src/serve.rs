//! The system under test: building the shipped `graphflow-serve` binary, preparing its data
//! directory, and running it as a child process on loopback.

use crate::client::Conn;
use graphflow_rs::core::json::Json;
use graphflow_rs::graph::Graph;
use graphflow_rs::{Durability, GraphflowDB};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Build `graphflow-serve` from the repository's own workspace (release profile) and return
/// the executable's path.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "graphflow-serve",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building graphflow-serve failed: {}",
            output.status
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .find(|exe| exe.file_stem().and_then(|s| s.to_str()) == Some("graphflow-serve"))
        .ok_or_else(|| "cargo reported no graphflow-serve executable".to_string())
}

/// Write `graph` into a fresh fsync data directory, as a deployment would before serving it.
pub fn write_data_dir(graph: &Arc<Graph>, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let db = GraphflowDB::builder(graph.clone())
        .data_dir(dir)
        .durability(Durability::Fsync)
        .open()
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    db.checkpoint()
        .map_err(|e| format!("checkpoint {}: {e}", dir.display()))
}

/// A running `graphflow-serve` child.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start the server on an ephemeral loopback port over `data_dir`, with `workers` HTTP
    /// workers, and wait until `/healthz` answers.
    pub fn start(bin: &Path, data_dir: &Path, workers: usize) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--data-dir"])
            .arg(data_dir)
            .args([
                "--addr",
                "127.0.0.1",
                "--port",
                "0",
                "--durability",
                "fsync",
            ])
            .args(["--threads", &workers.to_string()])
            .args([
                "--max-inflight",
                "8",
                "--queue-cap",
                "16",
                "--timeout-ms",
                "120000",
            ])
            .arg("--enable-shutdown")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {line:?}"));
        };
        let server = ServerProc {
            child,
            stdout,
            addr,
        };
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        match conn.request("GET", "/healthz", "") {
            Ok(r) if r.status == 200 => Ok(server),
            other => Err(format!("server not healthy: {other:?}")),
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Graceful stop through `POST /shutdown`; waits for the process to exit. A server that
    /// does not exit within 60 s is killed and reported as an error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return match (status.success(), asked) {
                        (true, Ok(r)) if r.status == 200 => Ok(()),
                        (ok, asked) => Err(format!("shutdown: exit {status} ({ok}), {asked:?}")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after POST /shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached when a run aborts without `shutdown`: never leave the child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `GET /metrics`, every series summed over its labels.
pub fn scrape(conn: &mut Conn) -> Result<HashMap<String, f64>, String> {
    let response = conn
        .request("GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /metrics: status {}", response.status));
    }
    let mut out = HashMap::new();
    for line in response.body.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    Ok(out)
}
