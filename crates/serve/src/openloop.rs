//! The load engine: every client connection and every injected fault,
//! multiplexed on one thread over [`silentcert_net::epoll`].
//!
//! Each client connection is a [`LineConn`] plus a queue of send
//! instants: requests are queued up to the pipelining window
//! ([`LoadgenOptions::pipeline`]), the server answers in FIFO order per
//! connection, so latency attribution is popping the queue.
//!
//! * **Request slots.** Connection `c` of `N` owns an equal share of the
//!   run's requests and sends its `i`-th as line `(c + i·N) mod len`.
//!   Every slot ends in exactly one of: an answer, a transport error,
//!   or a fault. A peer close turns the requests in flight on that
//!   connection into transport errors, and the connection reconnects
//!   for the rest of its share; each failed connect costs one slot.
//! * **Pacing** ([`LoadgenOptions::qps`]): slot `k` of the aggregate
//!   schedule is not sent before `k / qps` into the run, and a paced
//!   request's latency runs from that scheduled instant, so a backed-up
//!   server cannot hide queueing delay by slowing the sender.
//! * **Faults** ([`LoadgenOptions::faults`]): a slot drawn as a fault
//!   goes out on its own short-lived connection on the same poller, and
//!   the main connection stays healthy.
//! * **Connection ramp** ([`LoadgenOptions::ramp_ms`]) and the report's
//!   `ramp` / `steady` [`PhaseReport`]s, so regressions that only
//!   appear once every connection is up are visible.
//! * Connections are held open until the post-run metrics scrape, so a
//!   scrape of `silentcert_serve_event_loop_registered_fds` observes the
//!   full connection count (the c10k CI job asserts exactly this).

use crate::loadgen::{
    fetch_metrics, fire_kill_shard, response_code, AdminDriver, Fault, LoadReport, LoadgenOptions,
    PhaseReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use silentcert_net::client::LineConn;
use silentcert_net::epoll::{Event, Poller};
use silentcert_obs::trace::{self, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection output high-water mark: refill pauses while this much
/// is unflushed, bounding memory at huge connection counts.
const MAX_OUT: usize = 64 * 1024;
/// Abort the run if no slot is sent, answered or resolved for this long
/// (a wedged server must fail the run, not hang it).
const STALL_ABORT: Duration = Duration::from_secs(30);
/// How long an oversize or garbage fault waits for its error reply.
const FAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Poller tokens at or above this name fault connections.
const FAULT_TOKEN: u64 = 1 << 63;
/// The garbage fault's frame: not JSON at all.
const GARBAGE: &[u8] = b"\x01\x02{{{ not json\n";

/// One client connection's share of the run.
struct Client {
    conn: Option<LineConn>,
    /// Request slots this connection owns, and how many it has taken.
    quota: usize,
    next: usize,
    /// Send instants of the requests awaiting answers, oldest first.
    inflight: VecDeque<Instant>,
    /// Waiting in [`Engine::paced`] for its next slot to come due.
    paced: bool,
    /// Every slot taken and resolved.
    done: bool,
}

/// A fault in progress on its own connection.
struct FaultConn {
    conn: LineConn,
    kind: Fault,
    /// Given up on (and dropped) at this instant.
    until: Instant,
}

struct Engine<'a> {
    opts: &'a LoadgenOptions,
    requests: &'a [String],
    poller: Poller,
    clients: Vec<Client>,
    /// Clients not yet `done`; the run ends at zero.
    active: usize,
    /// Fault connections in flight, indexed by token minus
    /// [`FAULT_TOKEN`]; `free` lists the empty slots.
    faults: Vec<Option<FaultConn>>,
    free: Vec<usize>,
    /// The oversize fault's frame (empty unless that fault is enabled).
    oversize: Vec<u8>,
    rng: StdRng,
    tracer: Arc<Tracer>,
    report: LoadReport,
    latencies: Vec<u64>,
    started: Instant,
    /// Slots taken across all clients: the aggregate send count.
    sent: usize,
    /// Interval between paced slots (`None`: unpaced).
    pace: Option<Duration>,
    /// Clients held back by pacing, in the order they asked.
    paced: VecDeque<usize>,
    last_progress: Instant,
}

/// Run the engine (see module docs).
pub(crate) fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    assert!(!requests.is_empty(), "loadgen needs at least one request");
    let connections = opts.connections.max(1);
    let Ok(poller) = Poller::new() else {
        // No epoll (a locked-down seccomp profile): nothing can be sent.
        return LoadReport {
            transport_errors: opts.requests as u64,
            ..LoadReport::default()
        };
    };
    let started = Instant::now();
    let clients = (0..connections)
        .map(|c| Client {
            conn: None,
            quota: opts.requests / connections + usize::from(c < opts.requests % connections),
            next: 0,
            inflight: VecDeque::new(),
            paced: false,
            done: false,
        })
        .collect();
    let mut oversize = Vec::new();
    if opts.faults.oversize_rate > 0.0 {
        oversize = vec![b'x'; opts.oversize_bytes];
        oversize.push(b'\n');
    }
    let mut e = Engine {
        opts,
        requests,
        poller,
        clients,
        active: connections,
        faults: Vec::new(),
        free: Vec::new(),
        oversize,
        rng: StdRng::seed_from_u64(opts.seed),
        tracer: trace::tracer(),
        report: LoadReport::default(),
        latencies: Vec::with_capacity(opts.requests.min(1 << 22)),
        started,
        sent: 0,
        pace: (opts.qps > 0).then(|| Duration::from_nanos(1_000_000_000 / opts.qps)),
        paced: VecDeque::new(),
        last_progress: started,
    };

    let mut next_connect = 0usize;
    let mut ramp_done: Option<(Duration, usize)> = None;
    let mut kill_at = opts.kill_shard_at;
    let mut admin = AdminDriver::new(opts);
    let mut events: Vec<Event> = Vec::new();
    loop {
        // Establish connections that are due under the ramp schedule.
        while next_connect < connections
            && started.elapsed()
                >= Duration::from_millis(opts.ramp_ms * next_connect as u64 / connections as u64)
        {
            e.connect(next_connect);
            e.pump(next_connect, false);
            next_connect += 1;
        }
        if ramp_done.is_none() && next_connect == connections {
            ramp_done = Some((started.elapsed(), e.latencies.len()));
        }
        e.release_paced();
        e.expire_faults();

        // Mid-run shard kill and the reconfiguration schedule both key
        // off the aggregate send count.
        if kill_at.is_some_and(|at| e.sent >= at) {
            kill_at = None;
            fire_kill_shard(&opts.addr, &mut e.report);
        }
        if let Some(driver) = admin.as_mut() {
            driver.poll(e.sent);
        }

        if e.active == 0 && e.free.len() == e.faults.len() {
            break;
        }
        if e.last_progress.elapsed() >= STALL_ABORT {
            e.abort();
            break;
        }

        let timeout = e.wait_timeout(next_connect < connections);
        events.clear(); // wait() appends; stale entries must not replay
        let _ = e.poller.wait(&mut events, timeout);
        for ev in &events {
            if ev.token >= FAULT_TOKEN {
                e.on_fault_event((ev.token - FAULT_TOKEN) as usize);
            } else {
                e.pump(ev.token as usize, ev.readable || ev.closing);
            }
        }
    }

    let mut report = std::mem::take(&mut e.report);
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    // A reconfiguration still in flight must finish before the run
    // reports (and before any trailing `--shutdown` drains the fleet
    // mid-restart).
    if let Some(driver) = admin.take() {
        driver.finish(&mut report);
    }
    // Scrape while every connection is still open, so gauges sampled by
    // the server (registered fds) reflect the full load.
    if opts.scrape_metrics {
        report.daemon_metrics = fetch_metrics(&opts.addr);
    }
    for client in &e.clients {
        if let Some(conn) = &client.conn {
            conn.deregister(&e.poller);
        }
    }
    drop(e.clients);

    let latencies = e.latencies;
    let (ramp_elapsed, split) = ramp_done.unwrap_or((started.elapsed(), latencies.len()));
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    report.p50_us = percentile(&sorted, 0.50);
    report.p99_us = percentile(&sorted, 0.99);
    report.max_us = sorted.last().copied().unwrap_or(0);
    let ramp_ms = ramp_elapsed.as_millis() as u64;
    report.phases = vec![
        phase("ramp", &latencies[..split], ramp_ms),
        phase(
            "steady",
            &latencies[split..],
            report.elapsed_ms.saturating_sub(ramp_ms),
        ),
    ];
    report
}

impl Engine<'_> {
    /// Connect client `c` if it has none; each failed attempt costs one
    /// of its slots, so a dead server exhausts the share instead of
    /// hanging the run.
    fn connect(&mut self, c: usize) {
        while self.clients[c].conn.is_none() {
            let attempt = LineConn::connect(&self.opts.addr).and_then(|mut conn| {
                conn.register(&self.poller, c as u64, false)?;
                Ok(conn)
            });
            let client = &mut self.clients[c];
            match attempt {
                Ok(conn) => client.conn = Some(conn),
                Err(_) if client.next < client.quota => {
                    client.next += 1;
                    self.sent += 1;
                    self.report.transport_errors += 1;
                }
                Err(_) => break,
            }
        }
        self.settle(c);
    }

    /// Make progress on client `c`: take answers (when `readable`),
    /// queue what the window and pacing allow, write, and keep the
    /// registration in step. A broken or closed connection is replaced
    /// while the client still has slots to send.
    fn pump(&mut self, c: usize, mut readable: bool) {
        loop {
            let Client { conn, inflight, .. } = &mut self.clients[c];
            let Some(conn) = conn.as_mut() else {
                return;
            };
            let mut broken = false;
            if readable {
                broken = conn.fill().is_err();
                while let Some(line) = conn.next_line() {
                    let Some(stamp) = inflight.pop_front() else {
                        continue; // an answer nobody asked for
                    };
                    let lat = stamp.elapsed();
                    let lat_us = lat.as_micros() as u64;
                    let lat_ms = lat.as_millis() as u64;
                    self.latencies.push(lat_us);
                    self.report.count_answer(response_code(line));
                    let now_ms = self.tracer.now_ms();
                    self.tracer.record_span(
                        "loadgen.request",
                        now_ms.saturating_sub(lat_ms),
                        lat_ms,
                    );
                    self.last_progress = Instant::now();
                }
                broken |= conn.at_eof();
            }
            if !broken {
                self.refill(c);
                let client = &mut self.clients[c];
                let conn = client.conn.as_mut().expect("refill keeps the connection");
                broken = conn.flush().is_err()
                    || conn
                        .reregister(&self.poller, c as u64, !client.inflight.is_empty())
                        .is_err();
            }
            if !broken {
                self.settle(c);
                return;
            }
            self.drop_conn(c);
            if self.clients[c].next < self.clients[c].quota {
                self.connect(c);
            }
            readable = false;
        }
    }

    /// Queue requests on client `c` while its window, output buffer,
    /// share and the pacing schedule allow. A slot drawn as a fault is
    /// spent on its own connection instead.
    fn refill(&mut self, c: usize) {
        let window = self.opts.pipeline.max(1);
        let connections = self.clients.len();
        let requests = self.requests;
        loop {
            let client = &mut self.clients[c];
            let Some(conn) = client.conn.as_mut() else {
                return;
            };
            if client.next >= client.quota
                || client.inflight.len() >= window
                || conn.unflushed() >= MAX_OUT
            {
                return;
            }
            let stamp = match self.pace {
                None => Instant::now(),
                Some(interval) => {
                    let due = self.started + interval * self.sent as u32;
                    if due > Instant::now() {
                        if !client.paced {
                            client.paced = true;
                            self.paced.push_back(c);
                        }
                        return;
                    }
                    due
                }
            };
            let line = &requests[(c + client.next * connections) % requests.len()];
            client.next += 1;
            self.sent += 1;
            self.last_progress = Instant::now();
            match self.opts.faults.draw(&mut self.rng) {
                None => {
                    conn.queue_line(line.as_bytes());
                    client.inflight.push_back(stamp);
                }
                Some(kind) => self.start_fault(kind, line.as_bytes()),
            }
        }
    }

    /// Hand due slots to the clients pacing held back, oldest first.
    fn release_paced(&mut self) {
        let Some(interval) = self.pace else {
            return;
        };
        while let Some(&c) = self.paced.front() {
            if self.started + interval * self.sent as u32 > Instant::now() {
                return;
            }
            self.paced.pop_front();
            self.clients[c].paced = false;
            self.pump(c, false);
        }
    }

    /// Count the requests in flight on client `c`'s connection as
    /// transport errors and close it.
    fn drop_conn(&mut self, c: usize) {
        let client = &mut self.clients[c];
        if let Some(conn) = client.conn.take() {
            conn.deregister(&self.poller);
        }
        self.report.transport_errors += client.inflight.len() as u64;
        client.inflight.clear();
        self.settle(c);
    }

    /// Mark client `c` done once its whole share is resolved.
    fn settle(&mut self, c: usize) {
        let client = &mut self.clients[c];
        if !client.done && client.next >= client.quota && client.inflight.is_empty() {
            client.done = true;
            self.active -= 1;
        }
    }

    /// Spend one slot on `kind`. Only its outcome is counted: the `413`
    /// or `400` an oversize or garbage frame must draw; a slow-loris or
    /// disconnect is done when the socket is.
    fn start_fault(&mut self, kind: Fault, line: &[u8]) {
        let r = &mut self.report;
        match kind {
            Fault::SlowLoris => r.faults_slow_loris += 1,
            Fault::Disconnect => r.faults_disconnect += 1,
            Fault::Oversize => r.faults_oversize += 1,
            Fault::Garbage => r.faults_garbage += 1,
        }
        let Ok(mut conn) = LineConn::connect(&self.opts.addr) else {
            return;
        };
        match kind {
            Fault::SlowLoris | Fault::Disconnect => conn.queue(&line[..line.len() / 2]),
            Fault::Oversize => conn.queue(&self.oversize),
            Fault::Garbage => conn.queue(GARBAGE),
        }
        if conn.flush().is_err() || kind == Fault::Disconnect {
            return; // dropping the connection hangs up mid-frame
        }
        let hold = match kind {
            Fault::SlowLoris => Duration::from_millis(self.opts.stall_ms),
            _ => FAULT_REPLY_TIMEOUT,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.faults.push(None);
            self.faults.len() - 1
        });
        if conn
            .register(&self.poller, FAULT_TOKEN + slot as u64, true)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.faults[slot] = Some(FaultConn {
            conn,
            kind,
            until: Instant::now() + hold,
        });
    }

    fn on_fault_event(&mut self, slot: usize) {
        let Some(f) = self.faults.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // Read even when the write failed: a server that cut an
        // oversize frame short has already sent its 413.
        let wrote = f.conn.flush();
        let read = f.conn.fill();
        let kind = f.kind;
        let Some(code) = f.conn.next_line().map(response_code) else {
            let open = wrote.is_ok() && read.is_ok() && !f.conn.at_eof();
            if !open
                || f.conn
                    .reregister(&self.poller, FAULT_TOKEN + slot as u64, true)
                    .is_err()
            {
                self.close_fault(slot);
            }
            return;
        };
        match (kind, code) {
            (Fault::Oversize, Some(413)) => self.report.code_413 += 1,
            (Fault::Garbage, Some(400)) => self.report.code_400 += 1,
            (Fault::Oversize | Fault::Garbage, _) => self.report.code_other += 1,
            (Fault::SlowLoris | Fault::Disconnect, _) => {}
        }
        self.close_fault(slot);
    }

    /// Drop fault connections whose hold has run out.
    fn expire_faults(&mut self) {
        let now = Instant::now();
        for slot in 0..self.faults.len() {
            if self.faults[slot].as_ref().is_some_and(|f| f.until <= now) {
                self.close_fault(slot);
            }
        }
    }

    fn close_fault(&mut self, slot: usize) {
        if let Some(f) = self.faults[slot].take() {
            f.conn.deregister(&self.poller);
            self.free.push(slot);
            self.last_progress = Instant::now();
        }
    }

    /// Give up on a wedged run: every unresolved slot is a transport
    /// error, so CI sees a hard signal.
    fn abort(&mut self) {
        let mut stuck = 0;
        for client in self.clients.iter_mut().filter(|c| !c.done) {
            stuck += 1;
            self.report.transport_errors +=
                (client.inflight.len() + client.quota - client.next) as u64;
        }
        eprintln!(
            "# loadgen stall: {stuck} connections unfinished after {}s without progress",
            STALL_ABORT.as_secs()
        );
    }

    /// How long the poller may sleep: short while the ramp is
    /// connecting, and never past the next paced slot or fault hold.
    fn wait_timeout(&self, ramping: bool) -> i32 {
        let now = Instant::now();
        let mut until = now + Duration::from_millis(if ramping { 5 } else { 100 });
        if let (Some(interval), false) = (self.pace, self.paced.is_empty()) {
            until = until.min(self.started + interval * self.sent as u32);
        }
        for f in self.faults.iter().flatten() {
            until = until.min(f.until);
        }
        // Round up so a due instant is never slept short of.
        let wait = until.saturating_duration_since(now);
        wait.as_micros().div_ceil(1_000) as i32
    }
}

fn phase(name: &'static str, lat: &[u64], elapsed_ms: u64) -> PhaseReport {
    let mut sorted = lat.to_vec();
    sorted.sort_unstable();
    PhaseReport {
        name,
        answered: lat.len() as u64,
        elapsed_ms,
        p50_us: percentile(&sorted, 0.50),
        p99_us: percentile(&sorted, 0.99),
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A line server answering `{"code":200}` per line; with
    /// `close_after`, each connection hangs up after that many answers.
    fn line_server(close_after: Option<usize>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    for _ in 0..close_after.unwrap_or(usize::MAX) {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0
                            || writer.write_all(b"{\"code\":200}\n").is_err()
                        {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn options(addr: String) -> LoadgenOptions {
        LoadgenOptions {
            addr,
            connections: 1,
            requests: 10,
            scrape_metrics: false,
            ..LoadgenOptions::default()
        }
    }

    fn lines() -> Vec<String> {
        vec![r#"{"op":"health","id":"t"}"#.to_string()]
    }

    #[test]
    fn a_peer_close_loses_no_request_slot() {
        for pipeline in [1, 4] {
            let report = run(
                &LoadgenOptions {
                    pipeline,
                    ..options(line_server(Some(3)))
                },
                &lines(),
            );
            assert_eq!(
                report.answered + report.transport_errors,
                10,
                "pipeline {pipeline}: every slot counted once: {report:?}"
            );
            // Each connection answers 3 and loses at most a window of
            // requests in flight at the close before reconnecting.
            let least = if pipeline == 1 { 8 } else { 6 };
            assert!(report.answered >= least, "pipeline {pipeline}: {report:?}");
            assert_eq!(report.code_200, report.answered);
        }
    }

    #[test]
    fn qps_paces_the_aggregate_schedule() {
        let started = Instant::now();
        let report = run(
            &LoadgenOptions {
                connections: 2,
                requests: 200,
                qps: 1_000,
                ..options(line_server(None))
            },
            &lines(),
        );
        let elapsed = started.elapsed();
        assert_eq!(report.answered, 200, "{report:?}");
        assert!(
            elapsed >= Duration::from_millis(190),
            "200 requests at 1000 qps took only {elapsed:?}"
        );
    }
}
