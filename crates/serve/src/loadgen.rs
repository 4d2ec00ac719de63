//! Load generator parameters, the report, and the fault plan.
//!
//! [`run`] replays a prepared set of request lines against a running
//! daemon at a target aggregate QPS across many connections, driven by
//! the one load engine ([`crate::openloop`]). A fraction of request
//! slots can be turned into hostile transport behaviour instead — the
//! same fault lottery idiom as `silentcert_sim::faults` — each on its
//! own short-lived connection:
//!
//! * **slow-loris**: write half a frame, stall past the server's read
//!   timeout, expect the connection to be closed on us;
//! * **disconnect**: write half a frame and hang up mid-frame;
//! * **oversize**: send a frame past the server's size cap, expect `413`;
//! * **garbage**: send bytes that are not JSON at all, expect `400`.
//!
//! Every request slot is counted exactly once: answered, a transport
//! error, or one of the `faults_*` counters. The report aggregates
//! latency percentiles and per-code counts so the CI smoke jobs (and
//! `repro loadgen`) can assert on shed rates and clean survival.

use rand::rngs::StdRng;
use rand::Rng;
use silentcert_net::client::round_trip;
use std::time::Duration;

/// Fault-injection rates, each the probability a given send is replaced
/// by that fault (checked in order; at most one fault per send).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientFaultPlan {
    pub slow_loris_rate: f64,
    pub disconnect_rate: f64,
    pub oversize_rate: f64,
    pub garbage_rate: f64,
}

impl ClientFaultPlan {
    /// The transport-chaos preset the CI smoke job uses.
    pub fn chaos() -> ClientFaultPlan {
        ClientFaultPlan {
            slow_loris_rate: 0.02,
            disconnect_rate: 0.03,
            oversize_rate: 0.02,
            garbage_rate: 0.05,
        }
    }

    pub(crate) fn draw(&self, rng: &mut StdRng) -> Option<Fault> {
        let roll: f64 = rng.gen_range(0.0..1.0);
        let mut acc = self.slow_loris_rate;
        if roll < acc {
            return Some(Fault::SlowLoris);
        }
        acc += self.disconnect_rate;
        if roll < acc {
            return Some(Fault::Disconnect);
        }
        acc += self.oversize_rate;
        if roll < acc {
            return Some(Fault::Oversize);
        }
        acc += self.garbage_rate;
        if roll < acc {
            return Some(Fault::Garbage);
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    SlowLoris,
    Disconnect,
    Oversize,
    Garbage,
}

/// One scheduled admin action for a mid-run fleet reconfiguration.
#[derive(Debug, Clone)]
pub enum AdminAction {
    /// A raw admin frame (newline-free), sent verbatim.
    Frame(String),
    /// `remove_shard` targeting the highest-id Up shard at fire time —
    /// the shard a preceding `add_shard` created, if it has joined; an
    /// original shard otherwise (the supervisor serialises admin ops,
    /// so the removal queues behind the in-flight add either way).
    RemoveNewest,
}

/// Loadgen parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests to send across all connections.
    pub requests: usize,
    /// Aggregate target rate; `0` means as fast as possible.
    pub qps: u64,
    pub faults: ClientFaultPlan,
    pub seed: u64,
    /// How long a slow-loris stall holds the socket.
    pub stall_ms: u64,
    /// Bytes in an oversize frame (should exceed the server cap).
    pub oversize_bytes: usize,
    /// Scrape the daemon's `metrics` verb after the run and fold the
    /// snapshot into [`LoadReport::daemon_metrics`].
    pub scrape_metrics: bool,
    /// Cluster chaos: once the aggregate send count reaches this, fire
    /// a `chaos_kill_shard` frame on a throwaway connection —
    /// SIGKILLing one shard mid-run so failover happens under live load.
    pub kill_shard_at: Option<usize>,
    /// Pipelining window: requests kept in flight per connection
    /// before waiting for responses (`1` is request/response lockstep).
    pub pipeline: usize,
    /// Connection ramp: connection `c` of `N` is established at
    /// `ramp_ms * c / N` into the run, so tens of thousands of connects
    /// don't land on the listener in one burst.
    pub ramp_ms: u64,
    /// Admin actions fired once the aggregate send count crosses each
    /// threshold. Each action runs on its own thread (a rolling restart
    /// legitimately blocks for many seconds) and every thread is joined
    /// before the report is assembled, so the run cannot end — and a
    /// trailing `--shutdown` cannot fire — mid-reconfiguration.
    pub admin_frames: Vec<(usize, AdminAction)>,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            addr: String::new(),
            connections: 4,
            requests: 1_000,
            qps: 0,
            faults: ClientFaultPlan::default(),
            seed: 0x10adbeef,
            stall_ms: 3_000,
            oversize_bytes: 2 << 20,
            scrape_metrics: true,
            kill_shard_at: None,
            pipeline: 1,
            ramp_ms: 0,
            admin_frames: Vec::new(),
        }
    }
}

/// Per-phase slice of a run (connection ramp vs. steady state), so a
/// report can show whether throughput held once every connection was
/// established.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub answered: u64,
    pub elapsed_ms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

impl PhaseReport {
    /// Throughput achieved within this phase.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.answered as f64 * 1_000.0 / self.elapsed_ms as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"answered\":{},\"elapsed_ms\":{},",
                "\"qps\":{:.1},\"p50_us\":{},\"p99_us\":{}}}"
            ),
            self.name,
            self.answered,
            self.elapsed_ms,
            self.qps(),
            self.p50_us,
            self.p99_us,
        )
    }
}

/// Aggregated outcome of a loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Well-formed requests that got a response line back.
    pub answered: u64,
    pub code_200: u64,
    pub code_400: u64,
    pub code_408: u64,
    pub code_413: u64,
    pub code_500: u64,
    /// Router-level refusals (cluster front only).
    pub code_502: u64,
    pub code_503: u64,
    /// Responses with any other code, or unparsable response lines.
    pub code_other: u64,
    /// Fault sends, by kind.
    pub faults_slow_loris: u64,
    pub faults_disconnect: u64,
    pub faults_oversize: u64,
    pub faults_garbage: u64,
    /// Sends that failed at the transport level (connect/write/read).
    pub transport_errors: u64,
    /// `chaos_kill_shard` frames acknowledged (200) by the router.
    pub cluster_kills: u64,
    /// Admin actions acknowledged (200) by the router mid-run.
    pub admin_ops: u64,
    /// Admin actions refused or lost at the transport level.
    pub admin_failures: u64,
    pub elapsed_ms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// The daemon's metrics snapshot (the `metrics` verb's JSON object),
    /// scraped after the run when [`LoadgenOptions::scrape_metrics`] is
    /// set — queue depth, latency quantiles, shed/408/500 counters,
    /// breaker transitions.
    pub daemon_metrics: Option<String>,
    /// The run split into ramp / steady phases.
    pub phases: Vec<PhaseReport>,
}

impl LoadReport {
    /// Requests shed (`503`) as a fraction of answered requests.
    pub fn shed_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.code_503 as f64 / self.answered as f64
        }
    }

    /// Achieved request throughput over the whole run.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.answered as f64 * 1_000.0 / self.elapsed_ms as f64
        }
    }

    /// One-line JSON rendering for reports and BENCH.json embedding.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"answered\":{},\"code_200\":{},\"code_400\":{},\"code_408\":{},",
                "\"code_413\":{},\"code_500\":{},\"code_502\":{},\"code_503\":{},\"code_other\":{},",
                "\"faults_slow_loris\":{},\"faults_disconnect\":{},\"faults_oversize\":{},",
                "\"faults_garbage\":{},\"transport_errors\":{},\"cluster_kills\":{},",
                "\"admin_ops\":{},\"admin_failures\":{},\"elapsed_ms\":{},",
                "\"qps\":{:.1},\"shed_rate\":{:.4},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}"
            ),
            self.answered,
            self.code_200,
            self.code_400,
            self.code_408,
            self.code_413,
            self.code_500,
            self.code_502,
            self.code_503,
            self.code_other,
            self.faults_slow_loris,
            self.faults_disconnect,
            self.faults_oversize,
            self.faults_garbage,
            self.transport_errors,
            self.cluster_kills,
            self.admin_ops,
            self.admin_failures,
            self.elapsed_ms,
            self.qps(),
            self.shed_rate(),
            self.p50_us,
            self.p99_us,
            self.max_us,
        );
        if !self.phases.is_empty() {
            out.push_str(",\"phases\":[");
            for (i, phase) in self.phases.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&phase.to_json());
            }
            out.push(']');
        }
        if let Some(m) = &self.daemon_metrics {
            out.push_str(",\"daemon_metrics\":");
            out.push_str(m);
        }
        out.push('}');
        out
    }

    /// Count one answered request by its response code.
    pub(crate) fn count_answer(&mut self, code: Option<u32>) {
        self.answered += 1;
        match code {
            Some(200) => self.code_200 += 1,
            Some(400) => self.code_400 += 1,
            Some(408) => self.code_408 += 1,
            Some(413) => self.code_413 += 1,
            Some(500) => self.code_500 += 1,
            Some(502) => self.code_502 += 1,
            Some(503) => self.code_503 += 1,
            _ => self.code_other += 1,
        }
    }
}

/// Fires the run's scheduled [`AdminAction`]s as their send-count
/// thresholds are crossed. Each action gets its own thread and a long
/// read timeout (a rolling restart holds the connection open until the
/// last shard has rejoined); [`AdminDriver::finish`] joins them all.
pub(crate) struct AdminDriver {
    addr: String,
    /// Sorted descending so due actions pop off the back.
    pending: Vec<(usize, AdminAction)>,
    handles: Vec<std::thread::JoinHandle<bool>>,
}

impl AdminDriver {
    /// `None` when the run schedules no admin actions (the hot loops
    /// skip the counter entirely).
    pub(crate) fn new(opts: &LoadgenOptions) -> Option<AdminDriver> {
        if opts.admin_frames.is_empty() {
            return None;
        }
        let mut pending = opts.admin_frames.clone();
        pending.sort_by_key(|(at, _)| std::cmp::Reverse(*at));
        Some(AdminDriver {
            addr: opts.addr.clone(),
            pending,
            handles: Vec::new(),
        })
    }

    /// Fire every action whose threshold `sent_total` has crossed.
    pub(crate) fn poll(&mut self, sent_total: usize) {
        while self.pending.last().is_some_and(|(at, _)| sent_total >= *at) {
            let (_, action) = self.pending.pop().expect("checked non-empty");
            let addr = self.addr.clone();
            self.handles.push(std::thread::spawn(move || {
                send_admin_action(&addr, &action)
            }));
        }
    }

    /// Fire anything the run never reached, then join every action
    /// thread, folding outcomes into the report.
    pub(crate) fn finish(mut self, report: &mut LoadReport) {
        self.poll(usize::MAX);
        for h in self.handles {
            match h.join() {
                Ok(true) => report.admin_ops += 1,
                _ => report.admin_failures += 1,
            }
        }
    }
}

/// Bound on connecting and on each reply for the helper round trips.
const HELPER_TIMEOUT: Duration = Duration::from_secs(10);

/// One blocking admin round trip; true iff the router answered `200`.
fn send_admin_action(addr: &str, action: &AdminAction) -> bool {
    let frame = match action {
        AdminAction::Frame(frame) => frame.clone(),
        AdminAction::RemoveNewest => {
            let Some(shard) = newest_up_shard(addr) else {
                return false;
            };
            format!(r#"{{"op":"remove_shard","id":"reconf-remove","shard":{shard}}}"#)
        }
    };
    // A rolling restart blocks until the whole fleet has cycled.
    round_trip(addr, &frame, HELPER_TIMEOUT, Duration::from_secs(600))
        .is_ok_and(|resp| response_code(&resp) == Some(200))
}

/// Ask the router's `topology` verb for the highest-id Up shard.
fn newest_up_shard(addr: &str) -> Option<u32> {
    let resp = round_trip(
        addr,
        r#"{"op":"topology","id":"reconf"}"#,
        HELPER_TIMEOUT,
        HELPER_TIMEOUT,
    )
    .ok()?;
    let value = silentcert_obs::json::parse(&resp).ok()?;
    if value.get("code").and_then(|v| v.as_f64()) != Some(200.0) {
        return None;
    }
    let shards = value.get("shards")?.as_array()?;
    shards
        .iter()
        .filter(|s| s.get("health").and_then(|h| h.as_str()) == Some("up"))
        .filter_map(|s| s.get("id").and_then(|v| v.as_f64()))
        .map(|id| id as u32)
        .max()
}

/// One blocking `chaos_kill_shard` against the router (cluster chaos
/// runs only), folded into the report.
pub(crate) fn fire_kill_shard(addr: &str, report: &mut LoadReport) {
    let Ok(resp) = round_trip(
        addr,
        r#"{"op":"chaos_kill_shard","id":"chaos"}"#,
        HELPER_TIMEOUT,
        HELPER_TIMEOUT,
    ) else {
        return;
    };
    match response_code(&resp) {
        Some(200) => report.cluster_kills += 1,
        _ => report.code_other += 1,
    }
}

/// Scrape the daemon's `metrics` verb: returns the raw JSON object of
/// metric series, or `None` on any transport or parse failure.
pub fn fetch_metrics(addr: &str) -> Option<String> {
    let resp = round_trip(
        addr,
        r#"{"op":"metrics","id":"loadgen"}"#,
        HELPER_TIMEOUT,
        HELPER_TIMEOUT,
    )
    .ok()?;
    if response_code(&resp) != Some(200) {
        return None;
    }
    // `metrics` is the last field of the response line, so its object
    // runs to the response's closing brace.
    let idx = resp.find("\"metrics\":")?;
    let obj = &resp[idx + "\"metrics\":".len()..resp.len() - 1];
    silentcert_obs::json::parse(obj).ok()?;
    Some(obj.to_string())
}

/// Extract `"code":N` from a response line without a full JSON parse
/// or UTF-8 validation (the engine's hot loop should stay cheap).
pub(crate) fn response_code(line: impl AsRef<[u8]>) -> Option<u32> {
    let line = line.as_ref();
    let needle = b"\"code\":";
    let idx = line.windows(needle.len()).position(|w| w == needle)?;
    let rest = &line[idx + needle.len()..];
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Run the load generator against `opts.addr`, cycling through
/// `requests` (pre-rendered request lines, newline-free). The engine is
/// epoll-driven, so this exists on Linux only.
///
/// # Panics
///
/// Panics if `requests` is empty.
#[cfg(target_os = "linux")]
pub fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    crate::openloop::run(opts, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::SeedableRng;

    #[test]
    fn fault_lottery_respects_rates() {
        let plan = ClientFaultPlan {
            slow_loris_rate: 0.0,
            disconnect_rate: 0.0,
            oversize_rate: 0.0,
            garbage_rate: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(plan.draw(&mut rng), Some(Fault::Garbage));
        }
        let none = ClientFaultPlan::default();
        for _ in 0..100 {
            assert_eq!(none.draw(&mut rng), None);
        }
    }

    #[test]
    fn response_code_extraction() {
        assert_eq!(
            response_code(r#"{"id":"a","code":503,"error":"x"}"#),
            Some(503)
        );
        assert_eq!(response_code(r#"{"code":200}"#), Some(200));
        assert_eq!(response_code("garbage"), None);
    }

    #[test]
    fn report_json_is_valid() {
        let r = LoadReport {
            answered: 10,
            code_200: 8,
            code_503: 2,
            elapsed_ms: 100,
            ..LoadReport::default()
        };
        let v = silentcert_obs::json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("answered").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("shed_rate").unwrap().as_f64(), Some(0.2));
    }
}
