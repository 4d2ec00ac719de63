//! Open-loop load generator and the checks that decide whether a run
//! is valid.
//!
//! One thread multiplexes every connection with `ppoll`. Requests leave
//! on a precomputed schedule whatever the server does, and each one is
//! timed from its *intended* send time, so a stall shows in the latency
//! of every request scheduled during it (no coordinated omission). The
//! generator also records how late it ran (send lag) and integrates the
//! number of requests that are due but unanswered, for the backlog and
//! Little's-law checks.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Marks a request that never received an answer.
pub const NO_ANSWER: u64 = u64::MAX;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A splitmix64 stream: the benchmark's own deterministic randomness,
/// independent of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrivals: `n` intended send offsets (ns from phase start) at
/// `rate` requests per second.
pub fn poisson_schedule(rate: f64, n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When the last byte of the frame was written (ns from phase start).
    pub sent_ns: u64,
    /// When the answer was read (ns), or [`NO_ANSWER`].
    pub done_ns: u64,
    /// Response `code`, 0 for a transport error or no answer.
    pub code: u16,
    /// The answer's `result` token as raw JSON text (quotes included).
    pub result: Option<Box<str>>,
    /// Whether the answer echoed the frame's id.
    pub id_ok: bool,
}

/// A finished phase: the schedule, every outcome and the generator's own
/// bookkeeping.
#[derive(Debug)]
pub struct Record {
    pub intended_ns: Vec<u64>,
    pub outcomes: Vec<Outcome>,
    /// Time average of requests due but unanswered, over the whole phase.
    pub mean_inflight: f64,
    /// The same average over each quarter of the send window.
    pub quarter_inflight: [f64; 4],
    /// Phase length: first intended send to the last answer (or timeout).
    pub span_ns: u64,
    /// Generator CPU over the phase, seconds.
    pub cpu_s: f64,
    /// Answers were still outstanding when the phase ended: the
    /// connections are out of step and must not be reused.
    pub leftover: bool,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes written so far on this connection.
    written: u64,
    /// `(request, end offset)` of frames not yet fully written.
    unsent: VecDeque<(usize, u64)>,
    /// Requests awaiting their answer, in send order.
    awaiting: VecDeque<usize>,
    inbuf: Vec<u8>,
    /// The last poll reported data (or a hang-up) to read.
    readable: bool,
    broken: bool,
}

/// Extract the raw JSON value text after `"key":` in a response line
/// (`key` given with its quotes and colon, e.g. `"\"code\":"`).
fn field<'a>(line: &'a str, pat: &str) -> Option<&'a str> {
    let start = line.find(pat)? + pat.len();
    let rest = &line[start..];
    if let Some(body) = rest.strip_prefix('"') {
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&rest[..i + 2]),
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// Drive one phase: send `frames[order[i]]` at `intended[i]` over the
/// connections round-robin, read every answer, then wait up to `grace`
/// for stragglers. `ids[i]` is the id frame `order[i]` carries. Once
/// more than `abort_inflight` requests are due but unanswered the phase
/// stops sending: the rest count as unanswered.
pub fn run_phase(
    streams: &[TcpStream],
    frames: &[String],
    ids: &[String],
    order: &[u32],
    intended: &[u64],
    grace: Duration,
    abort_inflight: usize,
) -> std::io::Result<Record> {
    assert_eq!(order.len(), intended.len());
    let mut n = order.len();
    let mut conns: Vec<Conn> = streams
        .iter()
        .map(|s| {
            let stream = s.try_clone()?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            Ok(Conn {
                stream,
                out: Vec::with_capacity(1 << 16),
                out_pos: 0,
                written: 0,
                unsent: VecDeque::new(),
                awaiting: VecDeque::new(),
                inbuf: Vec::with_capacity(1 << 16),
                readable: true,
                broken: false,
            })
        })
        .collect::<std::io::Result<_>>()?;
    let mut outcomes = vec![
        Outcome {
            sent_ns: NO_ANSWER,
            done_ns: NO_ANSWER,
            code: 0,
            result: None,
            id_ok: false,
        };
        n
    ];
    let send_end = intended.last().copied().unwrap_or(0);
    let deadline = send_end + grace.as_nanos() as u64;
    let quarter = (send_end / 4).max(1);
    let mut quarter_area = [0f64; 4];
    let mut area = 0f64;
    let (mut next, mut answered, mut due_last) = (0usize, 0usize, 0usize);
    let mut last_ns = 0u64;
    let mut queued_bytes = vec![0u64; conns.len()];
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut readbuf = vec![0u8; 1 << 16];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let now_ns = |start: &Instant| start.elapsed().as_nanos() as u64;
    loop {
        let now = now_ns(&start);
        // Integrate the due-but-unanswered count since the last pass:
        // requests that fell due inside the interval count half of it.
        let due_now = intended[..n].partition_point(|&t| t <= now);
        let inflight = (due_last + due_now) as f64 / 2.0 - answered as f64;
        due_last = due_now;
        let dt = (now - last_ns) as f64;
        area += inflight * dt;
        if last_ns < send_end {
            quarter_area[((last_ns / quarter) as usize).min(3)] += inflight * dt;
        }
        last_ns = now;
        // Queue every request that is due.
        while next < n && intended[next] <= now {
            let c = next % conns.len();
            let frame = &frames[order[next] as usize];
            let conn = &mut conns[c];
            conn.out.extend_from_slice(frame.as_bytes());
            conn.out.push(b'\n');
            queued_bytes[c] += frame.len() as u64 + 1;
            conn.unsent.push_back((next, queued_bytes[c]));
            conn.awaiting.push_back(next);
            next += 1;
        }
        if next - answered > abort_inflight {
            n = next;
        }
        // Write, then read, every connection.
        for conn in conns.iter_mut().filter(|c| !c.broken) {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(k) => {
                        conn.out_pos += k;
                        conn.written += k as u64;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            let t = now_ns(&start);
            while let Some(&(req, end)) = conn.unsent.front() {
                if end > conn.written {
                    break;
                }
                outcomes[req].sent_ns = t;
                conn.unsent.pop_front();
            }
            while conn.readable {
                match conn.stream.read(&mut readbuf) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(k) => conn.inbuf.extend_from_slice(&readbuf[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => conn.readable = false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
            let t = now_ns(&start);
            let mut consumed = 0;
            while let Some(nl) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&conn.inbuf[consumed..consumed + nl]);
                consumed += nl + 1;
                let Some(req) = conn.awaiting.pop_front() else {
                    continue;
                };
                let o = &mut outcomes[req];
                o.done_ns = t;
                o.code = field(&line, "\"code\":")
                    .and_then(|c| c.parse().ok())
                    .unwrap_or(0);
                o.result = field(&line, "\"result\":").map(Box::from);
                let want = &ids[order[req] as usize];
                o.id_ok = field(&line, "\"id\":").is_some_and(|id| {
                    id.len() == want.len() + 2 && &id[1..id.len() - 1] == want.as_str()
                });
                answered += 1;
            }
            conn.inbuf.drain(..consumed);
        }
        let now = now_ns(&start);
        let live = conns.iter().any(|c| !c.broken);
        if (next == n && answered == n) || now > deadline || !live {
            area += (due_last - answered) as f64 * (now - last_ns) as f64;
            last_ns = now;
            break;
        }
        // Sleep until the next send is due or a socket is ready.
        let wait_ns = if next < n {
            intended[next].saturating_sub(now)
        } else {
            deadline - now
        }
        .min(5_000_000);
        fds.clear();
        for conn in &conns {
            let mut events = POLLIN;
            if conn.out_pos < conn.out.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: if conn.broken {
                    -1
                } else {
                    conn.stream.as_raw_fd()
                },
                events,
                revents: 0,
            });
        }
        let ts = Timespec {
            tv_sec: (wait_ns / 1_000_000_000) as i64,
            tv_nsec: (wait_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `fds` and `ts` outlive the call; a null mask keeps the
        // thread's signal mask.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            // Data, a hang-up or an error: anything but writability.
            conn.readable = fd.revents & !POLLOUT != 0;
        }
    }
    let span = last_ns.max(1);
    let q = quarter as f64;
    Ok(Record {
        intended_ns: intended.to_vec(),
        outcomes,
        mean_inflight: area / span as f64,
        quarter_inflight: quarter_area.map(|a| a / q),
        span_ns: span,
        cpu_s: process_cpu_s() - cpu0,
        leftover: answered < next,
    })
}

/// Limits a phase must meet to count.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Latency limit on p99, ms.
    pub p99_ms: f64,
    /// Largest tolerated p99 send lag, ms.
    pub lag_p99_ms: f64,
    /// Largest tolerated error share.
    pub error_share: f64,
}

/// A phase reduced to the numbers the benchmark reports, plus the
/// validity checks.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    pub offered_rps: f64,
    pub attempted: usize,
    pub ok: usize,
    pub errors: usize,
    pub achieved_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Samples beyond the p99 estimate.
    pub beyond_p99: usize,
    /// Median over consecutive windows of [`WINDOW`] requests (ten
    /// beyond each window's p99) of the window p99: the steadier
    /// estimate the benchmark reports.
    pub p99_window_median_ms: f64,
    /// Each window's p99, in time order.
    pub window_p99_ms: Vec<f64>,
    pub lag_p99_ms: f64,
    pub mean_latency_ms: f64,
    pub little_ratio: f64,
    pub backlog_growth: f64,
    pub span_s: f64,
    pub gen_cpu_us_per_req: f64,
    /// Why the phase is invalid (late generator, growing backlog,
    /// Little's law) — empty when it is valid.
    pub invalid: Vec<String>,
    /// Whether p99 and the error share met the limits.
    pub within_limits: bool,
}

/// Requests per window for the window-median p99.
pub const WINDOW: usize = 1_000;

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Little's law, L = λW: the ratio of the measured mean number of
/// requests in the system to throughput times mean latency. An honest
/// open-loop measurement gives about 1; latency stamped at actual send
/// behind a client-side window gives far more.
pub fn little_ratio(mean_inflight: f64, throughput_rps: f64, mean_latency_s: f64) -> f64 {
    mean_inflight / (throughput_rps * mean_latency_s).max(1e-12)
}

/// Whether a Little's-law ratio is within the 2x the benchmark accepts.
pub fn little_ok(ratio: f64) -> bool {
    (0.5..=2.0).contains(&ratio)
}

/// Reduce a record. A request that failed, went unanswered or was
/// refused counts as missing the latency limit: it enters the latency
/// distribution as infinitely late.
pub fn summarize(rec: &Record, offered_rps: f64, limits: &Limits) -> PhaseStats {
    let n = rec.outcomes.len();
    let mut lat = Vec::with_capacity(n);
    let mut lag = Vec::with_capacity(n);
    let (mut ok, mut lat_sum, mut done) = (0usize, 0f64, 0usize);
    for (o, &t0) in rec.outcomes.iter().zip(&rec.intended_ns) {
        if o.sent_ns != NO_ANSWER {
            lag.push(o.sent_ns.saturating_sub(t0) as f64 / 1e6);
        }
        if o.done_ns != NO_ANSWER {
            let ms = o.done_ns.saturating_sub(t0) as f64 / 1e6;
            lat_sum += ms;
            done += 1;
            if o.code == 200 {
                ok += 1;
                lat.push(ms);
                continue;
            }
        }
        lat.push(f64::INFINITY);
    }
    let window = WINDOW.min(n.max(1));
    let mut window_p99: Vec<f64> = lat
        .chunks(window)
        .filter(|c| c.len() == window)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            quantile(&c, 0.99)
        })
        .collect();
    let window_p99_ms = window_p99.clone();
    window_p99.sort_by(f64::total_cmp);
    lat.sort_by(f64::total_cmp);
    lag.sort_by(f64::total_cmp);
    let p99 = quantile(&lat, 0.99);
    let errors = n - ok;
    let span_s = rec.span_ns as f64 / 1e9;
    let achieved = done as f64 / span_s;
    let mean_latency_ms = lat_sum / done.max(1) as f64;
    let little = little_ratio(rec.mean_inflight, achieved, mean_latency_ms / 1e3);
    let q = rec.quarter_inflight;
    let backlog_growth = q[3] - q[0];
    let lag_p99 = quantile(&lag, 0.99);
    let mut invalid = Vec::new();
    if lag_p99.is_nan() || lag_p99 > limits.lag_p99_ms {
        invalid.push(format!(
            "generator ran late: send lag p99 {lag_p99:.3} ms > {} ms",
            limits.lag_p99_ms
        ));
    }
    // Growth by more than five latency limits' worth of arrivals: a
    // queue building up, not one stall.
    if backlog_growth > offered_rps * 5.0 * limits.p99_ms / 1e3 + 4.0 {
        invalid.push(format!(
            "backlog grows: {:.1} -> {:.1} requests in flight",
            q[0], q[3]
        ));
    }
    if !little_ok(little) {
        invalid.push(format!("Little's law off by {little:.2}x"));
    }
    let error_share = errors as f64 / n.max(1) as f64;
    PhaseStats {
        offered_rps,
        attempted: n,
        ok,
        errors,
        achieved_rps: achieved,
        p50_ms: quantile(&lat, 0.5),
        p99_ms: p99,
        beyond_p99: lat.iter().filter(|&&l| l > p99).count(),
        p99_window_median_ms: quantile(&window_p99, 0.5),
        window_p99_ms,
        lag_p99_ms: lag_p99,
        mean_latency_ms,
        little_ratio: little,
        backlog_growth,
        span_s,
        gen_cpu_us_per_req: rec.cpu_s * 1e6 / n.max(1) as f64,
        within_limits: p99 <= limits.p99_ms && error_share <= limits.error_share,
        invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    /// A server answering `{"id":..,"code":200}` per line after `delay`.
    /// Every connection shares one lock, and the connection that reads
    /// line number `stall_at` holds it for `stall` before answering, so
    /// the whole server stalls once.
    fn synthetic_server(stall_at: usize, stall: Duration, delay: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lock = Arc::new(Mutex::new(()));
        let seen = Arc::new(Mutex::new(0usize));
        let server_lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                let (lock, seen) = (Arc::clone(&server_lock), Arc::clone(&seen));
                std::thread::spawn(move || {
                    let mut out = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        let id = field(&line, "\"id\":").unwrap_or("\"\"").to_string();
                        let _g = lock.lock().unwrap();
                        let k = {
                            let mut s = seen.lock().unwrap();
                            *s += 1;
                            *s
                        };
                        if k == stall_at {
                            std::thread::sleep(stall);
                        }
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        let reply = format!("{{\"id\":{id},\"code\":200,\"result\":\"ok\"}}\n");
                        if out.write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn frames(n: usize) -> (Vec<String>, Vec<String>) {
        let ids: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let frames = ids
            .iter()
            .map(|id| format!("{{\"op\":\"classify\",\"id\":\"{id}\",\"cert\":\"00\"}}"))
            .collect();
        (frames, ids)
    }

    #[test]
    fn a_stall_delays_every_request_scheduled_during_it() {
        let stall = Duration::from_millis(300);
        let n = 1500;
        let addr = synthetic_server(500, stall, Duration::ZERO);
        let streams: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let (frames, ids) = frames(n);
        let order: Vec<u32> = (0..n as u32).collect();
        let intended = poisson_schedule(1000.0, n, &mut Rng::new(3));
        let rec = run_phase(
            &streams,
            &frames,
            &ids,
            &order,
            &intended,
            Duration::from_secs(3),
            usize::MAX,
        )
        .unwrap();
        assert!(rec.outcomes.iter().all(|o| o.code == 200 && o.id_ok));
        // The stall began when request 500 (in send order) reached the
        // server, and ended `stall` later; every request scheduled inside
        // it must carry the wait it had left.
        let stall_start = rec.outcomes[499].sent_ns;
        let stall_end = stall_start + stall.as_nanos() as u64;
        let mut during = 0;
        for (o, &t0) in rec.outcomes.iter().zip(&intended) {
            if t0 > stall_start && t0 < stall_end {
                during += 1;
                let latency = o.done_ns - t0;
                // 2 ms of slack for the send lag before request 500 hit
                // the server.
                assert!(
                    latency + 2_000_000 >= stall_end - t0,
                    "request due {t0} answered after {latency} ns"
                );
            }
        }
        assert!(during > 200, "only {during} requests fell in the stall");
        let stats = summarize(
            &rec,
            1000.0,
            &Limits {
                p99_ms: 10.0,
                lag_p99_ms: 5.0,
                error_share: 0.0,
            },
        );
        assert!(
            stats.p99_ms >= 150.0,
            "p99 {} hides the stall",
            stats.p99_ms
        );
        assert!(little_ok(stats.little_ratio), "{}", stats.little_ratio);
    }

    #[test]
    fn littles_law_rejects_a_window_bounded_closed_loop() {
        // The legacy shape: a schedule at 5000/s, but at most 4 requests
        // in flight, each timed from when the window let it go. The
        // server answers in about 1 ms, so the client falls behind its
        // schedule and queues requests it has not sent yet.
        let addr = synthetic_server(usize::MAX, Duration::ZERO, Duration::from_millis(1));
        let n = 2000;
        let rate = 5000.0;
        let intended = poisson_schedule(rate, n, &mut Rng::new(9));
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let window = 4;
        let start = Instant::now();
        let now = || start.elapsed().as_nanos() as u64;
        let (mut sent, mut done) = (0usize, 0usize);
        let mut sent_at = vec![0u64; n];
        let (mut area, mut last, mut lat_sum) = (0f64, 0u64, 0f64);
        let mut line = String::new();
        while done < n {
            // Send whatever is due, as far as the window allows.
            while sent < n && sent - done < window && intended[sent] <= now() {
                sent_at[sent] = now();
                writeln!(
                    writer,
                    "{{\"op\":\"classify\",\"id\":\"{sent}\",\"cert\":\"00\"}}"
                )
                .unwrap();
                sent += 1;
            }
            if sent == done {
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            line.clear();
            reader.read_line(&mut line).unwrap();
            let t = now();
            // In flight by the schedule: due but unanswered.
            let due = intended.partition_point(|&d| d <= t);
            area += (due - done) as f64 * (t - last) as f64;
            last = t;
            lat_sum += (t - sent_at[done]) as f64 / 1e9;
            done += 1;
        }
        let span = last as f64 / 1e9;
        let ratio = little_ratio(area / last as f64, n as f64 / span, lat_sum / n as f64);
        assert!(!little_ok(ratio), "closed loop passed with ratio {ratio}");
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn an_honest_open_loop_run_passes_littles_law() {
        let addr = synthetic_server(usize::MAX, Duration::ZERO, Duration::ZERO);
        let n = 3000;
        let streams: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let (frames, ids) = frames(n);
        let order: Vec<u32> = (0..n as u32).collect();
        let intended = poisson_schedule(3000.0, n, &mut Rng::new(5));
        let rec = run_phase(
            &streams,
            &frames,
            &ids,
            &order,
            &intended,
            Duration::from_secs(2),
            usize::MAX,
        )
        .unwrap();
        let limits = Limits {
            p99_ms: 10.0,
            lag_p99_ms: 5.0,
            error_share: 0.0,
        };
        let stats = summarize(&rec, 3000.0, &limits);
        assert_eq!(stats.ok, n);
        assert!(little_ok(stats.little_ratio), "{}", stats.little_ratio);
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let s = poisson_schedule(2000.0, 20_000, &mut Rng::new(1));
        let rate = s.len() as f64 / (*s.last().unwrap() as f64 / 1e9);
        assert!((rate - 2000.0).abs() < 60.0, "{rate}");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn field_reads_strings_and_numbers() {
        let line = r#"{"id":"7","code":200,"result":"invalid: \"x\"","valid":false}"#;
        assert_eq!(field(line, "\"id\":"), Some("\"7\""));
        assert_eq!(field(line, "\"code\":"), Some("200"));
        assert_eq!(field(line, "\"result\":"), Some(r#""invalid: \"x\"""#));
        assert_eq!(field(line, "\"valid\":"), Some("false"));
        assert_eq!(field(line, "\"nope\":"), None);
    }
}
