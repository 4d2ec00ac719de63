//! The serve workloads: a daemon (or a cluster) under open-loop load.
//!
//! A run sets up several times (corpus, then daemon until `LISTENING`)
//! and keeps the last set-up, warms up, measures one phase at the
//! workload's fixed offered rate, then climbs a fixed rate ladder to the
//! highest rate that holds the latency limit without a growing backlog.
//! Every 200 answer is checked against in-process `Validator::classify`.

use crate::corpus::{self, Frame, Properties};
use crate::daemon::{self, Daemon};
use crate::layers::{self, Route};
use crate::openloop::{self, Limits, PhaseStats, Record, Rng};
use silentcert_serve::json::Value;
use silentcert_validate::Classification;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A serve workload's fixed settings.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub route: Route,
    /// The offered rate `p50_ms`/`p99_ms` are measured at.
    pub fixed_rps: f64,
    /// Working-set size for cache-hit traffic (`None`: every frame once).
    pub working_set: Option<usize>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-miss",
        route: Route::Miss,
        fixed_rps: 1_500.0,
        working_set: None,
    },
    Workload {
        name: "serve-hit",
        route: Route::Hit,
        fixed_rps: 5_000.0,
        working_set: Some(256),
    },
    Workload {
        name: "router-journal",
        route: Route::Journaled,
        fixed_rps: 600.0,
        working_set: None,
    },
];

/// The limits every phase is judged by.
pub const LIMITS: Limits = Limits {
    p99_ms: 10.0,
    lag_p99_ms: 10.0,
    error_share: 0.001,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rate ladder: rung `k` offers `fixed_rps * LADDER_STEP^k`. The search
/// doubles the rate (14 rungs) until a rung fails, then bisects.
const LADDER_STEP: f64 = 1.05;
const COARSE: i32 = 14;
/// Requests per rung; cache-hit rungs also last at least `RUNG_S`.
const RUNG_REQUESTS: usize = 3_000;
const RUNG_S: f64 = 0.3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repro: PathBuf,
    pub workdir: PathBuf,
}

/// One ladder rung as measured.
pub struct Rung {
    pub stats: PhaseStats,
    pub pass: bool,
}

/// Everything a serve run measured.
pub struct Output {
    pub setup_s: Vec<f64>,
    pub fixed: PhaseStats,
    pub rungs: Vec<Rung>,
    pub sustained_rps: f64,
    pub peak_rss_mb: f64,
    /// CPU of the program's processes (daemon, or router plus shards)
    /// over the fixed-rate phase, per request answered.
    pub cpu_us_per_op: f64,
    pub properties: Properties,
    pub attempted: usize,
    pub failed: usize,
    pub wrong_answers: usize,
    /// Correctness failures other than wrong answers.
    pub problems: Vec<String>,
    /// Measurement remarks (a remeasured phase, a ladder cut short).
    pub notes: Vec<String>,
    pub layer: BTreeMap<String, f64>,
}

fn args(w: &Workload, seed: u64, journal_dir: &Path) -> Vec<String> {
    let mut a: Vec<String> = match w.route {
        Route::Journaled => vec![
            "cluster".into(),
            "--shards".into(),
            "2".into(),
            "--journal-dir".into(),
            journal_dir.display().to_string(),
        ],
        _ => vec!["serve".into()],
    };
    a.extend([
        "--scale".into(),
        "small".into(),
        "--seed".into(),
        seed.to_string(),
    ]);
    a
}

fn digest(frames: &[Frame]) -> u64 {
    // FNV-1a over every frame: set-ups must build identical corpora.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames {
        for &b in f.line.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

struct Load {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
    lines: Vec<String>,
    ids: Vec<String>,
    /// Next unused frame (cache-miss workloads).
    cursor: usize,
    working_set: Option<usize>,
    rng: Rng,
    records: Vec<(Vec<u32>, Record)>,
}

impl Load {
    fn remaining(&self) -> usize {
        match self.working_set {
            Some(_) => usize::MAX,
            None => self.lines.len() - self.cursor,
        }
    }

    fn draw(&mut self, n: usize) -> Vec<u32> {
        match self.working_set {
            Some(w) => (0..n).map(|_| self.rng.below(w) as u32).collect(),
            None => {
                let order = (self.cursor..self.cursor + n).map(|i| i as u32).collect();
                self.cursor += n;
                order
            }
        }
    }

    /// Send `order` at `rate` (Poisson) and keep the record. A phase
    /// that falls 20 latency limits (at most 5,000 requests) behind
    /// stops early (it fails anyway); one that ends with answers outstanding gets fresh
    /// connections, after a pause for the daemon to drain.
    fn phase(&mut self, order: Vec<u32>, rate: f64) -> Result<PhaseStats, String> {
        let sched = openloop::poisson_schedule(rate, order.len(), &mut self.rng);
        let abort = ((rate * LIMITS.p99_ms * 20.0 / 1e3) as usize).clamp(64, 5_000);
        let grace = Duration::from_secs(2);
        let rec = openloop::run_phase(
            &self.streams,
            &self.lines,
            &self.ids,
            &order,
            &sched,
            grace,
            abort,
        )
        .map_err(|e| format!("load phase: {e}"))?;
        let stats = openloop::summarize(&rec, rate, &LIMITS);
        if rec.leftover {
            std::thread::sleep(Duration::from_millis(500));
            self.streams = connect(self.addr, self.streams.len())?;
        }
        self.records.push((order, rec));
        Ok(stats)
    }
}

/// Counters of one standalone daemon or of every shard of a cluster.
fn scrape(d: &Daemon, cluster: bool) -> Result<Vec<Value>, String> {
    if !cluster {
        return Ok(vec![d.metrics().map_err(|e| e.to_string())?]);
    }
    let topo = d
        .request(r#"{"op":"topology","id":"perfbench"}"#)
        .map_err(|e| e.to_string())?;
    let topo = silentcert_serve::json::parse(topo.trim_end()).map_err(|e| format!("{e:?}"))?;
    let shards = topo
        .get("shards")
        .and_then(Value::as_array)
        .unwrap_or_default();
    shards
        .iter()
        .filter_map(|s| s.get("addr").and_then(Value::as_str))
        .map(|addr| {
            let addr: SocketAddr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
            daemon::metrics(addr).map_err(|e| e.to_string())
        })
        .collect()
}

fn connect(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

fn sum(ms: &[Value], f: impl Fn(&Value) -> f64) -> f64 {
    ms.iter().map(f).sum()
}

pub fn run(o: &Options) -> Result<Output, String> {
    let w = &o.workload;
    let cluster = w.route == Route::Journaled;
    std::fs::create_dir_all(&o.workdir).map_err(|e| e.to_string())?;
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let journal_dir = o.workdir.join(format!("journals-{k}"));
        let t0 = Instant::now();
        let c = corpus::build(o.seed);
        let d = Daemon::start(
            &o.repro,
            &args(w, o.seed, &journal_dir),
            &o.workdir.join(format!("daemon-{k}.log")),
        )
        .map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        digests.push(digest(&c));
        if k + 1 < SETUPS {
            d.shutdown(Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
        } else {
            kept = Some((c, d));
        }
    }
    let (corpus, d) = kept.expect("at least one set-up");
    let mut problems = Vec::new();
    if digests.windows(2).any(|p| p[0] != p[1]) {
        problems.push("corpus differs between set-ups of one seed".to_string());
    }
    let conns = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut load = Load {
        addr: d.addr,
        streams: connect(d.addr, conns)?,
        lines: corpus.iter().map(|f| f.line.clone()).collect(),
        ids: corpus.iter().map(|f| f.id.clone()).collect(),
        cursor: 0,
        working_set: w.working_set,
        rng: Rng::new(o.seed ^ 0x5e4d),
        records: Vec::new(),
    };

    // Warm-up: the working set once each (fills the response cache), or
    // half a second of fresh frames.
    let warm_order = match w.working_set {
        Some(ws) => (0..ws as u32).collect(),
        None => load.draw((w.fixed_rps * 0.5) as usize),
    };
    let warm_n = warm_order.len();
    load.phase(warm_order, w.fixed_rps.min(2_000.0))?;
    std::thread::sleep(Duration::from_millis(100));

    // The fixed-rate phase, bracketed by CPU and counter readings.
    let fixed_s = (o.seconds * 0.4).clamp(1.0, 6.0);
    let pids = d.pids();
    let mut notes = Vec::new();
    // An invalid phase (late generator, growing backlog, Little's law)
    // is no number: it is measured again, and a third invalid one fails
    // the run.
    let mut attempts = 0;
    let (fixed, fixed_order, cpu0, cpu1, before, after) = loop {
        let before = scrape(&d, cluster)?;
        let cpu0: Vec<f64> = pids.iter().map(|&p| daemon::cpu_s(p)).collect();
        let order = load.draw((w.fixed_rps * fixed_s) as usize);
        let stats = load.phase(order.clone(), w.fixed_rps)?;
        let cpu1: Vec<f64> = pids.iter().map(|&p| daemon::cpu_s(p)).collect();
        let after = scrape(&d, cluster)?;
        attempts += 1;
        if stats.invalid.is_empty() {
            break (stats, order, cpu0, cpu1, before, after);
        }
        if attempts == 3 {
            return Err(format!(
                "fixed-rate phase invalid: {}",
                stats.invalid.join("; ")
            ));
        }
        notes.push(format!(
            "fixed-rate phase remeasured: {}",
            stats.invalid.join("; ")
        ));
    };

    // Memory at the fixed rate, before the ladder overloads the daemon.
    let peak_rss_mb: f64 = pids.iter().map(|&p| daemon::peak_rss_mb(p)).sum();

    // The rate ladder, coarse then bisected, within the time left.
    let budget = Instant::now() + Duration::from_secs_f64(o.seconds - fixed_s);
    let mut rungs: Vec<Rung> = Vec::new();
    if !o.trace {
        let rate = |k: i32| w.fixed_rps * LADDER_STEP.powi(k);
        let (mut lo, mut hi): (i32, Option<i32>) = (0, None);
        // A coarse rung that fails is measured once more before the
        // search turns to bisecting: one stall fails a 3,000-request
        // rung, and a false failure there would cap the whole search.
        let mut confirm = None;
        loop {
            let (k, retry) = match (confirm.take(), hi) {
                (Some(k), _) => (k, true),
                (None, None) => (lo + COARSE, false),
                (None, Some(h)) if h - lo > 1 => ((lo + h) / 2, false),
                (None, Some(_)) => break,
            };
            let n = match w.working_set {
                Some(_) => RUNG_REQUESTS.max((rate(k) * RUNG_S) as usize),
                None => RUNG_REQUESTS,
            };
            if Instant::now() > budget || n > load.remaining() {
                break;
            }
            let order = load.draw(n);
            let stats = load.phase(order, rate(k))?;
            let pass = stats.within_limits && stats.invalid.is_empty();
            if pass {
                lo = k;
            } else if hi.is_none() && !retry {
                confirm = Some(k);
            } else {
                hi = Some(k);
            }
            rungs.push(Rung { stats, pass });
            std::thread::sleep(Duration::from_millis(100));
        }
        if hi.is_none() {
            notes.push(format!(
                "rate ladder ended without a failing rung (run too short or corpus spent at {:.0}/s)",
                rate(lo)
            ));
        }
    }
    let sustained_rps = rungs
        .iter()
        .filter(|r| r.pass)
        .map(|r| r.stats.achieved_rps)
        .fold(fixed.achieved_rps, f64::max);

    // The first pid is the daemon, or the cluster's router.
    let front_cpu = cpu1[0] - cpu0[0];
    let shard_cpu: f64 = cpu1.iter().zip(&cpu0).skip(1).map(|(a, b)| a - b).sum();
    let answered = (fixed.achieved_rps * fixed.span_s).max(1.0);
    let cpu_us_per_op = (front_cpu + shard_cpu) * 1e6 / answered;
    let router_after = if cluster {
        Some(d.metrics().map_err(|e| e.to_string())?)
    } else {
        None
    };
    drop(load.streams.drain(..));
    let summary = d
        .shutdown(Duration::from_secs(30))
        .map_err(|e| e.to_string())?;

    // Correctness: every 200 answer against in-process classification.
    let validator = corpus::validator(o.seed);
    let mut expect: Vec<Option<Classification>> = vec![None; corpus.len()];
    let mut code_200 = 0usize;
    let mut wrong = 0usize;
    for (order, rec) in &load.records {
        for (&i, out) in order.iter().zip(&rec.outcomes) {
            if out.code != 200 {
                continue;
            }
            code_200 += 1;
            let want = expect[i as usize]
                .get_or_insert_with(|| corpus::expected(&validator, &corpus[i as usize]));
            let want = silentcert_serve::protocol::js(&want.to_string());
            if !out.id_ok || out.result.as_deref() != Some(want.as_str()) {
                wrong += 1;
            }
        }
    }
    if cluster {
        let s = silentcert_serve::json::parse(summary.lines().last().unwrap_or("").trim())
            .map_err(|e| format!("cluster summary: {e:?}"))?;
        let clean = matches!(s.get("clean"), Some(Value::Bool(true)));
        let entries = s
            .get("journal_entries")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if !clean {
            problems.push("cluster did not drain clean".to_string());
        }
        if entries < code_200 as f64 {
            problems.push(format!("journal_entries {entries} < code_200 {code_200}"));
        }
    }

    // Properties of the fixed phase's requests (warm-up counted as seen).
    for &i in &fixed_order {
        if expect[i as usize].is_none() {
            expect[i as usize] = Some(corpus::expected(&validator, &corpus[i as usize]));
        }
    }
    let mut seq: Vec<u32> = load.records[0].0.clone();
    seq.extend(&fixed_order);
    let properties = corpus::properties(&corpus, &expect, &seq, warm_n);

    let mut layer = BTreeMap::new();
    if o.trace {
        let m_delta = |name: &str| {
            sum(&after, |m| daemon::metric(m, name)) - sum(&before, |m| daemon::metric(m, name))
        };
        let fam_delta = |name: &str| {
            sum(&after, |m| daemon::metric_family(m, name))
                - sum(&before, |m| daemon::metric_family(m, name))
        };
        let (hits, misses) = (
            m_delta("silentcert_serve_cache_hits_total"),
            m_delta("silentcert_serve_cache_misses_total"),
        );
        let (memo_hits, memo_misses) = (
            m_delta("silentcert_validate_memo_hits_total"),
            m_delta("silentcert_validate_memo_misses_total"),
        );
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        layer.insert("serve.cache_hit_ratio".into(), ratio(hits, misses));
        layer.insert(
            "validate.memo_hit_ratio".into(),
            ratio(memo_hits, memo_misses),
        );
        layer.insert(
            "serve.queue_wait_ms_p99".into(),
            after
                .iter()
                .map(|m| daemon::metric_hist(m, "silentcert_serve_queue_wait_ms", "p99"))
                .fold(0.0, f64::max),
        );
        layer.insert(
            "serve.shed_total".into(),
            fam_delta("silentcert_serve_shed_total"),
        );
        layer.insert(
            "serve.deadline_expired_total".into(),
            m_delta("silentcert_serve_deadline_expired_total"),
        );
        let daemon_cpu = if cluster { shard_cpu } else { front_cpu };
        let daemon_us = daemon_cpu * 1e6 / answered;
        layer.insert("serve.daemon_cpu_us_per_req".into(), daemon_us);
        let (router_us, shard_us) = if cluster {
            (front_cpu * 1e6 / answered, daemon_us)
        } else {
            (0.0, 0.0)
        };
        layer.insert("cluster.router_cpu_us_per_req".into(), router_us);
        layer.insert("cluster.shard_cpu_us_per_req".into(), shard_us);
        let r = router_after.as_ref();
        let router = |name: &str| r.map_or(0.0, |m| daemon::metric(m, name));
        layer.insert(
            "cluster.relay_shed_total".into(),
            router("silentcert_router_shed_relay_total"),
        );
        layer.insert(
            "cluster.retries_total".into(),
            router("silentcert_router_retries_total"),
        );
        layer.insert(
            "cluster.code_502_total".into(),
            router("silentcert_router_refused_no_shard_total")
                + router("silentcert_router_refused_budget_total")
                + router("silentcert_router_refused_failed_total"),
        );
        layer.insert("loadgen.lag_p99_ms".into(), fixed.lag_p99_ms);
        layer.insert("loadgen.cpu_us_per_req".into(), fixed.gen_cpu_us_per_req);

        // The same requests, replayed layer by layer in-process.
        let replay: Vec<u32> = fixed_order.iter().copied().take(4_000).collect();
        let sl = layers::serve_layers(
            w.route,
            &corpus,
            &replay,
            o.seed,
            &o.workdir,
            &o.workdir.join("spans.jsonl"),
        )
        .map_err(|e| e.to_string())?;
        let attributed: f64 = sl.us_per_req.values().sum();
        for (name, us) in &sl.us_per_req {
            layer.insert(format!("{name}_us"), *us);
        }
        layer.insert("serve.unattributed_us".into(), daemon_us - attributed);
        layer.insert(
            "serve.attributed_share".into(),
            attributed / daemon_us.max(1e-9),
        );
        layer.insert("trace.overhead_pct".into(), sl.overhead_pct);
    }

    Ok(Output {
        setup_s,
        attempted: fixed.attempted,
        failed: fixed.errors + wrong,
        wrong_answers: wrong,
        fixed,
        rungs,
        sustained_rps,
        peak_rss_mb,
        cpu_us_per_op,
        properties,
        problems,
        notes,
        layer,
    })
}
