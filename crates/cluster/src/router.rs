//! The failover router: the cluster's single client-facing front.
//!
//! Speaks exactly the shard protocol (newline-delimited JSON), so a
//! client cannot tell a cluster from a single daemon — except that the
//! cluster answers `health`/`stats`/`metrics` with fleet-wide views
//! and may answer `502` where a single shard would block or die.
//!
//! Per request the router:
//!
//! 1. fingerprints the leaf certificate (SHA-256 of the DER) and asks
//!    the [`Directory`] ring which shard owns the key;
//! 2. forwards the raw frame to that shard with a short first-attempt
//!    deadline (`hedge_after_ms`);
//! 3. on a dead or slow primary, spends one token from the client
//!    connection's retry budget and tries the ring successor (the
//!    shard that would own the key if the primary were removed — so a
//!    kill mid-run lands exactly where routing will point next) with
//!    the full shard timeout;
//! 4. if no token, no successor, or the retry also fails: answers an
//!    explicit `502`. **Journaled-or-refused**: the router never
//!    silently drops a request — every frame gets a response line, and
//!    every `200` it relays was journaled by the shard that produced
//!    it before the response bytes existed.
//!
//! The retry budget is a token bucket per client connection: `burst`
//! tokens up front, `ratio` earned per forwarded request, so a client
//! whose requests keep failing over cannot multiply fleet load
//! unboundedly (retry storms are the classic metastable failure).
//! Duplicate execution from a hedged retry is harmless — classification
//! is a pure function — and is bounded by the hedge/retry counters.
//!
//! Since the event-loop rework (DESIGN.md §14) the router shares the
//! serve daemon's readiness core: one epoll thread owns every client
//! connection and frame state machine, and a bounded relay pool does the
//! blocking shard forwards. High fan-in (tens of thousands of client
//! connections) costs one fd per connection, not one thread; the relay
//! queue bounds concurrent upstream work, and a full queue is an
//! explicit `502`, never an unbounded backlog.

use crate::aggregator::AggregatorHandle;
use crate::directory::Directory;
use crate::fleet;
use crate::supervisor::{AdminOp, AdminResult};
use silentcert_crypto::sha256;
use silentcert_net::client::round_trip;
use silentcert_obs::metrics::{Counter, Registry, Snapshot};
use silentcert_serve::protocol::{self, code, Op};
use silentcert_serve::queue::{BoundedQueue, PushError};
use silentcert_serve::{Completion, CoreConfig, EventCore, LoopStats, Service, SystemClock, Token};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Kills one Up shard (the supervisor provides this; see
/// [`crate::Supervisor::killer`]).
pub type KillFn = Arc<dyn Fn(Option<u32>) -> Option<u32> + Send + Sync>;

/// Executes one admin verb against the supervisor, blocking until the
/// fleet reaches the requested topology (see
/// [`crate::Supervisor::admin_fn`]).
pub type AdminFn = Arc<dyn Fn(AdminOp) -> AdminResult + Send + Sync>;

/// Supplies the non-router half of the `metrics` exposition (the
/// supervisor's lifecycle counters).
pub type MetricsBase = Arc<dyn Fn() -> Snapshot + Send + Sync>;

#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// First-attempt deadline before the hedged retry fires.
    pub hedge_after_ms: u64,
    /// Full deadline for the retry attempt.
    pub shard_timeout_ms: u64,
    /// Per-attempt TCP connect deadline.
    pub connect_timeout_ms: u64,
    /// Idle read timeout on client connections (slow-loris guard).
    pub client_read_timeout_ms: u64,
    /// Client frame size cap.
    pub max_frame_bytes: usize,
    /// Retry tokens a fresh client connection starts with.
    pub retry_burst: f64,
    /// Retry tokens earned per forwarded request (capped at burst).
    pub retry_ratio: f64,
    /// Shard `stats` scrape deadline for fleet metrics.
    pub scrape_timeout_ms: u64,
    /// Honour `chaos_kill_shard` frames.
    pub enable_chaos_ops: bool,
    /// Honour the admin plane (`add_shard`, `remove_shard`,
    /// `drain_shard`, `rolling_restart`; `topology` is always allowed —
    /// it is read-only).
    pub enable_admin_ops: bool,
    /// Relay worker threads doing the blocking shard forwards.
    pub relay_workers: usize,
    /// Relay queue capacity; beyond it requests are refused `502`.
    pub relay_queue: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            hedge_after_ms: 250,
            shard_timeout_ms: 3_000,
            connect_timeout_ms: 500,
            client_read_timeout_ms: 10_000,
            max_frame_bytes: 1 << 20,
            retry_burst: 8.0,
            retry_ratio: 0.1,
            scrape_timeout_ms: 1_000,
            enable_chaos_ops: false,
            enable_admin_ops: false,
            relay_workers: 16,
            relay_queue: 1_024,
        }
    }
}

/// The router's own counters (fleet series come from the scraper).
struct Stats {
    requests: Arc<Counter>,
    relayed: Arc<Counter>,
    retries: Arc<Counter>,
    hedges: Arc<Counter>,
    refused_no_shard: Arc<Counter>,
    refused_budget: Arc<Counter>,
    refused_failed: Arc<Counter>,
    shed_relay: Arc<Counter>,
    bad_frames: Arc<Counter>,
    oversize: Arc<Counter>,
    slow_loris: Arc<Counter>,
    chaos_kills: Arc<Counter>,
    admin_ops: Arc<Counter>,
    admin_failures: Arc<Counter>,
}

impl Stats {
    fn register(r: &Registry) -> Stats {
        let c = |name: &str| r.counter(&format!("silentcert_router_{name}_total"));
        Stats {
            requests: c("requests"),
            relayed: c("relayed"),
            retries: c("retries"),
            hedges: c("hedges"),
            refused_no_shard: c("refused_no_shard"),
            refused_budget: c("refused_budget"),
            refused_failed: c("refused_failed"),
            shed_relay: c("shed_relay"),
            bad_frames: c("bad_frames"),
            oversize: c("oversize_frames"),
            slow_loris: c("slow_loris_closed"),
            chaos_kills: c("chaos_kills"),
            admin_ops: c("admin_ops"),
            admin_failures: c("admin_failures"),
        }
    }
}

/// Work handed from the event loop to the relay pool (everything that
/// blocks on upstream I/O).
enum RelayJob {
    Forward {
        line: String,
        id: String,
        der: Vec<u8>,
        token: Token,
        /// Topology epoch at admission: the request routes against the
        /// ring it was admitted under, even across a live cutover.
        epoch: u64,
        done: Completion,
    },
    /// Fleet metrics scrape (blocks up to the scrape timeout per shard).
    Metrics {
        id: String,
        format: Option<String>,
        done: Completion,
    },
    /// Admin verb: blocks on the supervisor until the reconfiguration
    /// completes (legitimately seconds-to-minutes for a rolling
    /// restart; one relay worker carries it).
    Admin {
        op: AdminOp,
        id: String,
        done: Completion,
    },
}

struct Shared {
    config: RouterConfig,
    directory: Arc<Directory>,
    kill: Option<KillFn>,
    admin: Option<AdminFn>,
    base: Option<MetricsBase>,
    /// The fleet stats aggregator's read handle; `Op::Fleet` answers
    /// from its in-memory ring (no upstream I/O, so it stays inline).
    fleet: Option<AggregatorHandle>,
    registry: Registry,
    stats: Stats,
    relay: BoundedQueue<RelayJob>,
    /// Relay jobs admitted but not yet answered (drain conduct).
    relay_inflight: AtomicUsize,
    /// Per-client-connection retry token buckets, keyed by loop token.
    buckets: Mutex<HashMap<Token, f64>>,
    draining: AtomicBool,
    /// Millisecond timestamp of the first drain observation (0 = not
    /// yet observed); bounds how long a drain may wait for in-flight.
    drain_seen_ms: AtomicU64,
}

impl Shared {
    /// Earn back a sliver of retry budget for a forwarded request.
    fn earn(&self, token: Token) {
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(&token) {
            *bucket = (*bucket + self.config.retry_ratio).min(self.config.retry_burst);
        }
    }

    /// Spend one retry token if the connection has one.
    fn try_debit(&self, token: Token) -> bool {
        let mut buckets = self.buckets.lock().unwrap();
        match buckets.get_mut(&token) {
            Some(bucket) if *bucket >= 1.0 => {
                *bucket -= 1.0;
                true
            }
            _ => false,
        }
    }
}

/// Counts the router saw over its lifetime (drain-time report).
#[derive(Debug, Clone)]
pub struct RouterSummary {
    pub requests: u64,
    pub relayed: u64,
    pub retries: u64,
    pub hedges: u64,
    pub refused_no_shard: u64,
    pub refused_budget: u64,
    pub refused_failed: u64,
    pub chaos_kills: u64,
}

pub struct Router {
    shared: Arc<Shared>,
    addr: SocketAddr,
    core: Option<EventCore>,
    workers: Vec<JoinHandle<()>>,
}

impl Router {
    pub fn start(
        config: RouterConfig,
        directory: Arc<Directory>,
        kill: Option<KillFn>,
        admin: Option<AdminFn>,
        base: Option<MetricsBase>,
        fleet: Option<AggregatorHandle>,
    ) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let stats = Stats::register(&registry);
        let loop_stats = LoopStats::register(&registry, "silentcert_router_event_loop_");
        let core_config = CoreConfig {
            read_timeout_ms: config.client_read_timeout_ms,
            max_frame_bytes: config.max_frame_bytes,
            response_wait_ms: config.shard_timeout_ms + config.hedge_after_ms + 1_000,
            ..CoreConfig::default()
        };
        let relay_workers = config.relay_workers.max(1);
        let shared = Arc::new(Shared {
            relay: BoundedQueue::new(config.relay_queue.max(1)),
            relay_inflight: AtomicUsize::new(0),
            buckets: Mutex::new(HashMap::new()),
            config,
            directory,
            kill,
            admin,
            base,
            fleet,
            registry,
            stats,
            draining: AtomicBool::new(false),
            drain_seen_ms: AtomicU64::new(0),
        });
        let workers = (0..relay_workers)
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("router-relay-{n}"))
                    .spawn(move || relay_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let service: Arc<dyn Service> = Arc::clone(&shared) as Arc<dyn Service>;
        let core = EventCore::start(
            listener,
            service,
            core_config,
            loop_stats,
            Arc::new(SystemClock::new()),
        )?;
        Ok(Router {
            shared,
            addr,
            core: Some(core),
            workers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start the router drain (stop accepting; in-flight finishes).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A drain trigger that outlives [`Router::wait`].
    pub fn drainer(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.draining.store(true, Ordering::SeqCst)
    }

    /// Block until a drain is requested, in-flight relays finished
    /// (bounded by the shard timeout), and the event loop exited.
    pub fn wait(mut self) -> RouterSummary {
        if let Some(core) = self.core.take() {
            core.join();
        }
        self.shared.relay.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let s = &self.shared.stats;
        RouterSummary {
            requests: s.requests.value(),
            relayed: s.relayed.value(),
            retries: s.retries.value(),
            hedges: s.hedges.value(),
            refused_no_shard: s.refused_no_shard.value(),
            refused_budget: s.refused_budget.value(),
            refused_failed: s.refused_failed.value(),
            chaos_kills: s.chaos_kills.value(),
        }
    }

    /// Router registry + supervisor base + live fleet scrape.
    pub fn metrics_snapshot(&self) -> Snapshot {
        metrics_snapshot(&self.shared)
    }
}

fn metrics_snapshot(shared: &Shared) -> Snapshot {
    let mut snap = shared.registry.snapshot();
    if let Some(base) = &shared.base {
        snap.merge(&base());
    }
    let (up, total) = shared.directory.counts();
    snap.set_gauge("silentcert_cluster_shards_up", up as i64);
    snap.set_gauge("silentcert_cluster_shards_total", total as i64);
    fleet::scrape_into(
        &mut snap,
        &shared.directory,
        shared.config.scrape_timeout_ms,
    );
    snap
}

impl Service for Shared {
    fn on_frame(&self, line: String, done: Completion) {
        self.stats.requests.inc();
        let req = match protocol::parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                self.stats.bad_frames.inc();
                done.fill(protocol::error_line("", code::BAD_REQUEST, &e));
                return;
            }
        };
        match req.op {
            // Forwarding and fleet scraping block on upstream sockets,
            // so they go to the relay pool; everything else answers
            // inline on the loop.
            Op::Validate | Op::Classify => {
                self.earn(done.token());
                // Stamp the request with the topology epoch it was
                // admitted under: if a reconfiguration cuts the ring
                // over while this job queues, it still routes against
                // the ring that owned its key at admission.
                let epoch = self.directory.admit();
                let job = RelayJob::Forward {
                    line,
                    id: req.id,
                    der: req.der,
                    token: done.token(),
                    epoch,
                    done,
                };
                enqueue(self, job);
            }
            Op::Metrics => {
                let job = RelayJob::Metrics {
                    id: req.id,
                    format: req.format,
                    done,
                };
                enqueue(self, job);
            }
            Op::Fleet => {
                // Read-only compute over the aggregator's in-memory
                // ring — answered inline, stays live while shards are
                // down (the ring is local; no upstream I/O).
                match &self.fleet {
                    Some(handle) => {
                        let view = handle.view();
                        if req.format.as_deref() == Some("prometheus") {
                            done.fill(protocol::response_line(
                                &req.id,
                                code::OK,
                                &[
                                    ("format", protocol::js("prometheus")),
                                    ("exposition", protocol::js(&view.render_prometheus())),
                                ],
                            ));
                        } else {
                            done.fill(protocol::response_line(
                                &req.id,
                                code::OK,
                                &[("fleet", view.render_json())],
                            ));
                        }
                    }
                    None => {
                        self.stats.bad_frames.inc();
                        done.fill(protocol::error_line(
                            &req.id,
                            code::BAD_REQUEST,
                            "fleet aggregator not running",
                        ));
                    }
                }
            }
            Op::Health => {
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &fleet::health_fields(&self.directory),
                ));
            }
            Op::Stats => {
                let s = &self.stats;
                let (up, total) = self.directory.counts();
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &[
                        ("role", "\"router\"".to_string()),
                        ("requests", s.requests.value().to_string()),
                        ("relayed", s.relayed.value().to_string()),
                        ("retries", s.retries.value().to_string()),
                        ("hedges", s.hedges.value().to_string()),
                        ("refused_no_shard", s.refused_no_shard.value().to_string()),
                        ("refused_budget", s.refused_budget.value().to_string()),
                        ("refused_failed", s.refused_failed.value().to_string()),
                        ("shed_relay", s.shed_relay.value().to_string()),
                        ("bad_frames", s.bad_frames.value().to_string()),
                        ("chaos_kills", s.chaos_kills.value().to_string()),
                        ("shards_up", up.to_string()),
                        ("shards_total", total.to_string()),
                    ],
                ));
            }
            Op::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &[("draining", "true".to_string())],
                ));
            }
            Op::ChaosPanic => {
                self.stats.bad_frames.inc();
                done.fill(protocol::error_line(
                    &req.id,
                    code::BAD_REQUEST,
                    "router does not take chaos_panic",
                ));
            }
            Op::ChaosKillShard => {
                if !self.config.enable_chaos_ops {
                    self.stats.bad_frames.inc();
                    done.fill(protocol::error_line(
                        &req.id,
                        code::BAD_REQUEST,
                        "chaos ops disabled",
                    ));
                    return;
                }
                match self.kill.as_ref().and_then(|kill| kill(req.shard)) {
                    Some(id) => {
                        self.stats.chaos_kills.inc();
                        done.fill(protocol::response_line(
                            &req.id,
                            code::OK,
                            &[("killed", id.to_string())],
                        ));
                    }
                    None => {
                        done.fill(protocol::error_line(
                            &req.id,
                            code::UNAVAILABLE,
                            "no killable shard",
                        ));
                    }
                }
            }
            Op::Topology => {
                // Read-only, cheap, answered inline: the topology
                // epoch plus every shard's routing view.
                let mut shards = String::from("[");
                for (i, view) in self.directory.snapshot().iter().enumerate() {
                    if i > 0 {
                        shards.push(',');
                    }
                    shards.push_str(&format!(
                        "{{\"id\":{},\"health\":{},\"generation\":{}{}}}",
                        view.id,
                        protocol::js(view.health.as_str()),
                        view.generation,
                        match &view.addr {
                            Some(a) => format!(",\"addr\":{}", protocol::js(a)),
                            None => String::new(),
                        }
                    ));
                }
                shards.push(']');
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &[
                        ("epoch", self.directory.topology_epoch().to_string()),
                        ("shards", shards),
                    ],
                ));
            }
            Op::AddShard | Op::RemoveShard | Op::DrainShard | Op::RollingRestart => {
                if !self.config.enable_admin_ops {
                    self.stats.bad_frames.inc();
                    done.fill(protocol::error_line(
                        &req.id,
                        code::BAD_REQUEST,
                        "admin ops disabled (start the cluster with --admin)",
                    ));
                    return;
                }
                let op = match (req.op, req.shard) {
                    (Op::AddShard, _) => AdminOp::AddShard,
                    (Op::RollingRestart, _) => AdminOp::RollingRestart,
                    (Op::RemoveShard, Some(shard)) => AdminOp::RemoveShard(shard),
                    (Op::DrainShard, Some(shard)) => AdminOp::DrainShard(shard),
                    (Op::RemoveShard | Op::DrainShard, None) => {
                        self.stats.bad_frames.inc();
                        done.fill(protocol::error_line(
                            &req.id,
                            code::BAD_REQUEST,
                            &format!("op '{}' requires 'shard'", req.op.as_str()),
                        ));
                        return;
                    }
                    _ => unreachable!("non-admin op in admin arm"),
                };
                let job = RelayJob::Admin {
                    op,
                    id: req.id,
                    done,
                };
                enqueue(self, job);
            }
        }
    }

    fn on_oversize(&self) -> String {
        self.stats.oversize.inc();
        protocol::error_line("", code::TOO_LARGE, "frame exceeds size cap")
    }

    fn on_conn_open(&self, token: Token) {
        self.buckets
            .lock()
            .unwrap()
            .insert(token, self.config.retry_burst);
    }

    fn on_conn_close(&self, token: Token) {
        self.buckets.lock().unwrap().remove(&token);
    }

    fn on_slow_loris(&self) {
        self.stats.slow_loris.inc();
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drain_complete(&self, _open_conns: usize, now_ms: u64) -> bool {
        // In-flight relays get to finish (their clients are still
        // waiting for the response line), bounded by the shard timeout
        // so a dead upstream cannot wedge the drain.
        let seen = self.drain_seen_ms.load(Ordering::SeqCst);
        if seen == 0 {
            self.drain_seen_ms.store(now_ms.max(1), Ordering::SeqCst);
            return false;
        }
        let idle = self.relay.is_empty() && self.relay_inflight.load(Ordering::SeqCst) == 0;
        idle || now_ms.saturating_sub(seen) >= self.config.shard_timeout_ms
    }
}

/// Queue a relay job; a full or closed queue is an explicit `502`.
fn enqueue(shared: &Shared, job: RelayJob) {
    shared.relay_inflight.fetch_add(1, Ordering::SeqCst);
    match shared.relay.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full(job) | PushError::Closed(job)) => {
            shared.relay_inflight.fetch_sub(1, Ordering::SeqCst);
            shared.stats.shed_relay.inc();
            let (id, done) = match job {
                RelayJob::Forward {
                    id, done, epoch, ..
                } => {
                    // A shed request leaves the epoch's in-flight set:
                    // it will never touch a shard, so it must not hold
                    // an old ring open.
                    shared.directory.complete(epoch);
                    (id, done)
                }
                RelayJob::Metrics { id, done, .. } | RelayJob::Admin { id, done, .. } => (id, done),
            };
            done.fill(protocol::error_line(
                &id,
                code::UNAVAILABLE,
                "router overloaded",
            ));
        }
    }
}

/// One relay worker: blocking forwards and fleet scrapes.
fn relay_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.relay.pop() {
        match job {
            RelayJob::Forward {
                line,
                id,
                der,
                token,
                epoch,
                done,
            } => {
                let resp = route_and_forward(shared, &line, &id, &der, token, epoch);
                shared.directory.complete(epoch);
                done.fill(resp);
            }
            RelayJob::Metrics { id, format, done } => {
                let snap = metrics_snapshot(shared);
                let resp = match format.as_deref() {
                    Some("prometheus") => protocol::response_line(
                        &id,
                        code::OK,
                        &[("exposition", protocol::js(&snap.render_prometheus()))],
                    ),
                    _ => protocol::response_line(&id, code::OK, &[("metrics", snap.render_json())]),
                };
                done.fill(resp);
            }
            RelayJob::Admin { op, id, done } => {
                shared.stats.admin_ops.inc();
                let resp = match shared.admin.as_ref() {
                    None => {
                        shared.stats.admin_failures.inc();
                        protocol::error_line(&id, code::UNAVAILABLE, "admin plane unavailable")
                    }
                    Some(admin) => match admin(op) {
                        Ok(fields) => {
                            let rendered: Vec<(&str, String)> = fields
                                .iter()
                                .map(|(k, v)| (k.as_str(), v.clone()))
                                .collect();
                            protocol::response_line(&id, code::OK, &rendered)
                        }
                        Err(msg) => {
                            shared.stats.admin_failures.inc();
                            protocol::error_line(&id, code::UNAVAILABLE, &msg)
                        }
                    },
                };
                done.fill(resp);
            }
        }
        shared.relay_inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why a forward attempt failed (picks the hedge vs retry counter).
enum ForwardError {
    /// The shard did not answer within the attempt deadline.
    Timeout,
    /// Connect failure / reset / EOF — the shard is gone.
    Transport,
}

/// One attempt: connect, send the raw frame, read one response line.
fn forward(
    shared: &Shared,
    addr: &str,
    line: &str,
    timeout_ms: u64,
) -> Result<String, ForwardError> {
    round_trip(
        addr,
        line,
        Duration::from_millis(shared.config.connect_timeout_ms.max(1)),
        Duration::from_millis(timeout_ms.max(1)),
    )
    .map_err(|e| match e.kind() {
        ErrorKind::TimedOut => ForwardError::Timeout,
        _ => ForwardError::Transport,
    })
}

fn route_and_forward(
    shared: &Arc<Shared>,
    line: &str,
    id: &str,
    der: &[u8],
    token: Token,
    epoch: u64,
) -> String {
    let fingerprint = sha256(der);
    // Route against the topology epoch the request was admitted under:
    // during a cutover the old ring stays addressable until its last
    // in-flight request completes, so a key admitted before the epoch
    // advanced still lands on the shard that owned it then (possibly a
    // Draining shard — up, serving, just closed to fresh keys).
    let Some((primary, addr)) = shared.directory.route_at(&fingerprint, epoch) else {
        shared.stats.refused_no_shard.inc();
        return protocol::error_line(id, code::UNAVAILABLE, "no shard owns this key");
    };
    match forward(shared, &addr, line, shared.config.hedge_after_ms) {
        Ok(resp) => {
            shared.stats.relayed.inc();
            resp
        }
        Err(kind) => {
            if !shared.try_debit(token) {
                shared.stats.refused_budget.inc();
                return protocol::error_line(id, code::UNAVAILABLE, "retry budget exhausted");
            }
            match kind {
                ForwardError::Timeout => shared.stats.hedges.inc(),
                ForwardError::Transport => shared.stats.retries.inc(),
            }
            // The hedge target is the ring successor — exactly the
            // shard that owns the key once the primary is removed, so
            // failover routing agrees with post-crash routing. With a
            // single-shard ring, retry the primary with the full
            // deadline instead.
            let (_rid, raddr) = shared
                .directory
                .route_successor(&fingerprint, &[primary])
                .unwrap_or((primary, addr));
            match forward(shared, &raddr, line, shared.config.shard_timeout_ms) {
                Ok(resp) => {
                    shared.stats.relayed.inc();
                    resp
                }
                Err(_) => {
                    shared.stats.refused_failed.inc();
                    protocol::error_line(
                        id,
                        code::UNAVAILABLE,
                        "shard and successor both unavailable",
                    )
                }
            }
        }
    }
}
