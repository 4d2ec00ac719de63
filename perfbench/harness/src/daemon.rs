//! The program under test as a black box: spawn `repro serve` or
//! `repro cluster`, talk to it over its wire protocol, and read its
//! processes' CPU time and peak RSS from `/proc`.

use silentcert_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon or cluster router.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// Clock ticks per second for `/proc/<pid>/stat` times (USER_HZ).
const TICKS_PER_S: f64 = 100.0;

impl Daemon {
    /// Start `repro <args...>` and wait for its `LISTENING <addr>` line.
    pub fn start(repro: &Path, args: &[String], stderr: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(repro)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(stderr)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix("LISTENING ")
            .and_then(|a| a.trim().parse().ok());
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "repro {} did not report LISTENING (got {line:?})",
                    args.join(" ")
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// This process and its children (a cluster's shards).
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.pid()];
        pids.extend(children(self.pid()));
        pids
    }

    pub fn request(&self, frame: &str) -> std::io::Result<String> {
        request(self.addr, frame)
    }

    pub fn metrics(&self) -> std::io::Result<Value> {
        metrics(self.addr)
    }

    /// Drain via the `shutdown` verb; return whatever the process printed
    /// on stdout after `LISTENING` (a cluster's summary line).
    pub fn shutdown(mut self, timeout: Duration) -> std::io::Result<String> {
        let asked = self.request(r#"{"op":"shutdown","id":"perfbench"}"#);
        let start = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if start.elapsed() > timeout || asked.is_err() {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        match status {
            Some(_) => Ok(rest),
            None => Err(std::io::Error::other("daemon did not drain in time")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here is one the benchmark gave up on.
        if matches!(self.child.try_wait(), Ok(None)) {
            for pid in children(self.child.id()) {
                kill(pid);
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

extern "C" {
    #[link_name = "kill"]
    fn kill_pid(pid: i32, sig: i32) -> i32;
}

fn kill(pid: u32) {
    // SAFETY: plain syscall wrapper; SIGKILL to a child we spawned.
    unsafe { kill_pid(pid as i32, 9) };
}

/// Send one frame to `addr` and read its answer line.
pub fn request(addr: SocketAddr, frame: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(20)))?;
    s.write_all(frame.as_bytes())?;
    s.write_all(b"\n")?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    Ok(line)
}

/// The `metrics` verb's snapshot at `addr`, as a flat name → value map.
pub fn metrics(addr: SocketAddr) -> std::io::Result<Value> {
    let line = request(addr, r#"{"op":"metrics","id":"perfbench"}"#)?;
    json::parse(line.trim_end())
        .ok()
        .and_then(|v| v.get("metrics").cloned())
        .ok_or_else(|| std::io::Error::other(format!("bad metrics answer: {line:.200}")))
}

/// Direct children of `pid`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| stat_fields(p).is_some_and(|f| f.get(1) == Some(&pid.to_string())))
        .collect()
}

/// `/proc/<pid>/stat` fields after the command name, starting at state.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &stat[stat.rfind(')')? + 2..];
    Some(after.split_whitespace().map(str::to_string).collect())
}

/// User plus system CPU of one process, seconds.
pub fn cpu_s(pid: u32) -> f64 {
    stat_fields(pid)
        .map(|f| {
            let t = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            // utime and stime are fields 14 and 15 of stat; state is 3.
            (t(11) + t(12)) / TICKS_PER_S
        })
        .unwrap_or(0.0)
}

/// Peak resident set (VmHWM) of one process, MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A counter or gauge from a metrics snapshot (0 when absent).
pub fn metric(m: &Value, name: &str) -> f64 {
    m.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The sum of every series of a labelled family (`name{...}`).
pub fn metric_family(m: &Value, name: &str) -> f64 {
    m.as_object().map_or(0.0, |o| {
        o.iter()
            .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
            .filter_map(|(_, v)| v.as_f64())
            .sum()
    })
}

/// A histogram quantile field (`p50`, `p99`, ...) from a snapshot.
pub fn metric_hist(m: &Value, name: &str, field: &str) -> f64 {
    m.get(name)
        .and_then(|h| h.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}
