//! `repro bench` — before/after throughput for the performance
//! architecture (DESIGN.md §8), written to `BENCH.json`.
//!
//! Three measurements, each against the retained baseline path:
//!
//! * **modpow** — Montgomery windowed exponentiation
//!   ([`BigUint::modpow`]) vs the legacy square-and-multiply
//!   (`modpow_legacy`) on an RSA-sized odd modulus.
//! * **sign** — CRT RSA signing vs the plain full-exponent baseline
//!   (`sign_baseline`), which also uses the legacy modpow.
//! * **pipeline** — the full simulate→scan→classify run
//!   ([`silentcert_sim::run_scan`] + corpus ingest), "before" with
//!   [`silentcert_crypto::perf`] baseline mode on and one worker thread,
//!   "after" with the optimized crypto and the configured thread count.
//!
//! Both switches change speed only, never bytes: the corpora produced by
//! the two pipeline runs are asserted identical before timings are
//! reported.
//!
//! A fourth, absolute measurement rides along: **serve** — steady-state
//! throughput and latency quantiles of the validation daemon
//! (DESIGN.md §10), measured by running `silentcert_serve` in-process
//! and replaying the loadgen corpus at full speed with no fault
//! injection.

use silentcert_crypto::entropy::XorShift64;
use silentcert_crypto::{perf, BigUint, RsaKeyPair};
use silentcert_obs::json;
use silentcert_obs::{info, warn};
use silentcert_sim::{ScaleConfig, ScanOptions, ScanOutcome};
use std::path::Path;
use std::time::Instant;

/// One before/after measurement.
#[derive(Debug)]
pub struct Measurement {
    /// What the baseline path is.
    pub baseline: &'static str,
    pub before_ns_per_op: f64,
    pub after_ns_per_op: f64,
    /// `before / after` — higher is better.
    pub speedup: f64,
}

/// One point of the serve connection sweep.
#[derive(Debug)]
pub struct ServePoint {
    pub connections: usize,
    /// In-flight requests per connection.
    pub pipeline: usize,
    pub requests: usize,
    /// Achieved requests/second over the whole run (unpaced).
    pub qps: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// `503`s as a fraction of answered requests — expected ~0 at
    /// steady state with an uncontended queue.
    pub shed_rate: f64,
    pub transport_errors: u64,
}

/// Daemon throughput swept across connection counts on the epoll
/// readiness core (DESIGN.md §14), compared against the committed
/// pre-event-loop number.
#[derive(Debug)]
pub struct ServeMeasurement {
    pub workers: usize,
    /// The committed blocking-core qps this PR's gate is measured
    /// against ([`BASELINE_SERVE_QPS`]).
    pub baseline_qps: f64,
    pub sweep: Vec<ServePoint>,
    /// Best sweep-point qps.
    pub best_qps: f64,
    /// `best_qps / baseline_qps` — higher is better.
    pub speedup_vs_baseline: f64,
    /// Regression guard: CI fails the bench job when the speedup falls
    /// under this floor (kept far below the committed full-mode result
    /// so shared-runner noise cannot flake the build).
    pub speedup_floor: f64,
    pub above_floor: bool,
    /// `VmHWM` of the bench process after the sweep — client and
    /// daemon together, both run in-process.
    pub peak_rss_bytes: u64,
}

/// Overhead of the `silentcert_crypto_modpow_us` timing probe
/// (DESIGN.md §11): the same Montgomery modpow timed with the histogram
/// enabled vs disabled. The ratio is the best of several attempts so a
/// single scheduler hiccup cannot fail the guard; CI checks
/// `within_bound`.
#[derive(Debug)]
pub struct ObsOverheadMeasurement {
    pub plain_ns_per_op: f64,
    pub instrumented_ns_per_op: f64,
    /// `instrumented / plain`, best attempt — lower is better.
    pub overhead_ratio: f64,
    /// The guard: instrumented modpow must stay within this ratio.
    pub bound: f64,
    pub within_bound: bool,
}

/// The whole report serialized to `BENCH.json`.
#[derive(Debug)]
pub struct BenchReport {
    pub available_parallelism: usize,
    /// Worker count used by the "after" pipeline run.
    pub threads: usize,
    /// Simulation scale of the pipeline measurement.
    pub scale: String,
    pub quick: bool,
    pub modpow: Measurement,
    pub sign: Measurement,
    pub pipeline: Measurement,
    pub serve: ServeMeasurement,
    pub obs_overhead: ObsOverheadMeasurement,
}

silentcert_obs::json_object!(Measurement {
    baseline,
    before_ns_per_op,
    after_ns_per_op,
    speedup
});
silentcert_obs::json_object!(ServePoint {
    connections,
    pipeline,
    requests,
    qps,
    p50_us,
    p99_us,
    max_us,
    shed_rate,
    transport_errors
});
silentcert_obs::json_object!(ServeMeasurement {
    workers,
    baseline_qps,
    sweep,
    best_qps,
    speedup_vs_baseline,
    speedup_floor,
    above_floor,
    peak_rss_bytes
});
silentcert_obs::json_object!(ObsOverheadMeasurement {
    plain_ns_per_op,
    instrumented_ns_per_op,
    overhead_ratio,
    bound,
    within_bound
});
silentcert_obs::json_object!(BenchReport {
    available_parallelism,
    threads,
    scale,
    quick,
    modpow,
    sign,
    pipeline,
    serve,
    obs_overhead
});

/// Nanoseconds per call of `f`, after one warm-up call.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn measure(
    baseline: &'static str,
    iters: u32,
    mut before: impl FnMut(),
    mut after: impl FnMut(),
) -> Measurement {
    let before_ns = time_ns(iters, &mut before);
    let after_ns = time_ns(iters, &mut after);
    Measurement {
        baseline,
        before_ns_per_op: before_ns,
        after_ns_per_op: after_ns,
        speedup: before_ns / after_ns,
    }
}

fn bench_modpow(iters: u32) -> Measurement {
    let mut rng = XorShift64::new(0xb31c);
    let bits = 1024;
    let base = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    let exp = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    let mut modulus = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    modulus.set_bit(bits - 1);
    modulus.set_bit(0); // odd: the Montgomery-eligible case
    let m = measure(
        "square-and-multiply modpow",
        iters,
        || {
            std::hint::black_box(base.modpow_legacy(&exp, &modulus));
        },
        || {
            std::hint::black_box(base.modpow(&exp, &modulus));
        },
    );
    assert_eq!(
        base.modpow(&exp, &modulus),
        base.modpow_legacy(&exp, &modulus),
        "Montgomery and legacy modpow disagree"
    );
    m
}

/// The 3% bound on instrumented-modpow overhead.
const OBS_OVERHEAD_BOUND: f64 = 1.03;

fn bench_obs_overhead(iters: u32) -> ObsOverheadMeasurement {
    let mut rng = XorShift64::new(0x0b5e);
    let bits = 1024;
    let base = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    let exp = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    let mut modulus = silentcert_crypto::prime::random_below(&BigUint::one().shl(bits), &mut rng);
    modulus.set_bit(bits - 1);
    modulus.set_bit(0);
    let mut best = f64::INFINITY;
    let (mut plain_best, mut inst_best) = (0.0, 0.0);
    // Best-of-5: the probe itself is two clock reads and a few relaxed
    // atomics per ~ms-scale call, so any attempt past the bound is noise
    // unless they all are.
    for _ in 0..5 {
        let plain = time_ns(iters, || {
            std::hint::black_box(base.modpow(&exp, &modulus));
        });
        let instrumented = silentcert_crypto::obs::with_modpow_timing(|| {
            time_ns(iters, || {
                std::hint::black_box(base.modpow(&exp, &modulus));
            })
        });
        let ratio = instrumented / plain;
        if ratio < best {
            best = ratio;
            plain_best = plain;
            inst_best = instrumented;
        }
        if best <= OBS_OVERHEAD_BOUND {
            break;
        }
    }
    ObsOverheadMeasurement {
        plain_ns_per_op: plain_best,
        instrumented_ns_per_op: inst_best,
        overhead_ratio: best,
        bound: OBS_OVERHEAD_BOUND,
        within_bound: best <= OBS_OVERHEAD_BOUND,
    }
}

fn bench_sign(iters: u32) -> Measurement {
    let mut rng = XorShift64::new(0x51bf);
    let kp = RsaKeyPair::generate(1024, &mut rng);
    let msg = b"repro bench: before/after signing throughput";
    assert_eq!(
        kp.sign(msg),
        kp.sign_baseline(msg),
        "CRT and baseline signatures disagree"
    );
    measure(
        "full-exponent sign with legacy modpow",
        iters,
        || {
            std::hint::black_box(kp.sign_baseline(msg));
        },
        || {
            std::hint::black_box(kp.sign(msg));
        },
    )
}

/// One full scan→ingest pipeline run into `dir`; returns the headline
/// invalid fraction as a cheap output fingerprint.
fn pipeline_once(config: &ScaleConfig, dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let outcome = silentcert_sim::run_scan(config, dir, &ScanOptions::default())
        .unwrap_or_else(|e| panic!("bench scan failed: {e}"));
    let ScanOutcome::Complete(_) = outcome else {
        panic!("bench scan interrupted")
    };
    let roots_pem = std::fs::read_to_string(dir.join("roots.pem")).expect("roots.pem");
    let roots: Vec<_> = silentcert_x509::pem::pem_decode_all("CERTIFICATE", &roots_pem)
        .expect("roots.pem")
        .iter()
        .map(|der| silentcert_x509::Certificate::from_der(der).expect("root cert"))
        .collect();
    let mut validator =
        silentcert_validate::Validator::new(silentcert_validate::TrustStore::from_roots(roots));
    let dataset = silentcert_core::ingest::load_dataset(dir, &mut validator).expect("ingest");
    silentcert_core::compare::headline(&dataset).overall_invalid_fraction()
}

fn bench_pipeline(config: &ScaleConfig, threads: usize) -> Measurement {
    // The small scales keep RSA CAs rare so the test suite stays fast,
    // but real trust stores are RSA throughout — and the crypto hot path
    // is exactly what this PR optimized. Bench the pipeline with every
    // brand on RSA so the measurement reflects the paper's workload.
    let mut config = config.clone();
    config.rsa_ca_count = usize::MAX; // every brand
    config.rsa_bits = 1024;

    let config = &config;
    let dir_before =
        std::env::temp_dir().join(format!("silentcert-bench-b-{}", std::process::id()));
    let dir_after = std::env::temp_dir().join(format!("silentcert-bench-a-{}", std::process::id()));

    // Before: legacy crypto, one worker. After: Montgomery/CRT/memo, the
    // configured worker count. Same seed, same bytes — checked below.
    perf::set_baseline_mode(true);
    silentcert_core::par::set_threads(1);
    let t0 = Instant::now();
    let headline_before = pipeline_once(config, &dir_before);
    let before_ns = t0.elapsed().as_nanos() as f64;

    perf::set_baseline_mode(false);
    silentcert_core::par::set_threads(threads);
    let t0 = Instant::now();
    let headline_after = pipeline_once(config, &dir_after);
    let after_ns = t0.elapsed().as_nanos() as f64;
    silentcert_core::par::set_threads(0);

    assert_eq!(
        headline_before, headline_after,
        "baseline and optimized pipelines disagree on the headline"
    );
    for f in ["certs.pem", "scans.csv", "completeness.csv"] {
        let a = std::fs::read(dir_before.join(f)).expect(f);
        let b = std::fs::read(dir_after.join(f)).expect(f);
        assert_eq!(a, b, "{f} differs between baseline and optimized runs");
    }
    let _ = std::fs::remove_dir_all(&dir_before);
    let _ = std::fs::remove_dir_all(&dir_after);

    Measurement {
        baseline: "legacy crypto, single-threaded",
        before_ns_per_op: before_ns,
        after_ns_per_op: after_ns,
        speedup: before_ns / after_ns,
    }
}

/// The serve qps committed in BENCH.json before the epoll readiness
/// core landed: blocking reader-per-connection accept path, 4 closed-
/// loop connections. Both the speedup gate and the regression guard
/// are expressed against this number.
const BASELINE_SERVE_QPS: f64 = 12_121.2;

/// CI regression floor on `best_qps / BASELINE_SERVE_QPS`. The
/// committed full-mode report shows well over 10x; the guard only has
/// to catch the event core regressing back toward the blocking path,
/// so it is deliberately loose enough for noisy two-core runners.
const SERVE_SPEEDUP_FLOOR: f64 = 2.0;

/// The process's soft `RLIMIT_NOFILE`, via `/proc/self/limits` (std
/// exposes no getrlimit); a conservative 1024 when unreadable.
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024)
}

/// Peak resident set (`VmHWM`) of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|l| l.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Daemon throughput swept across connection counts: serve the
/// simulated ecosystem in-process and replay the loadgen corpus with
/// pipelining, no faults.
fn bench_serve(config: &ScaleConfig, requests: usize, fd_budget: usize) -> ServeMeasurement {
    use silentcert_serve::{server, BreakerConfig, ServeConfig};

    let workers = 2;
    let (_, validator) = crate::serve_cmd::build_validator(config);
    let handle = server::start(
        ServeConfig {
            workers,
            queue_capacity: 32_768,
            deadline_ms: 5_000,
            // The sweep intentionally saturates one machine with both
            // sides of the load; a latency SLO tuned for production
            // would trip mid-measurement and turn throughput into 503s.
            breaker: BreakerConfig {
                latency_slo_ms: 5_000,
                ..BreakerConfig::default()
            },
            ..ServeConfig::default()
        },
        validator,
    )
    .expect("bind loopback for serve bench");
    let corpus = crate::serve_cmd::request_corpus(config, false, 0.0);
    let sweep = serve_sweep(&handle.addr().to_string(), &corpus, requests, fd_budget);
    handle.shutdown();
    let summary = handle.wait();
    assert!(
        summary.clean,
        "serve bench drain was not clean: {summary:?}"
    );
    let best_qps = sweep.iter().map(|p| p.qps).fold(0.0, f64::max);
    let speedup = best_qps / BASELINE_SERVE_QPS;
    ServeMeasurement {
        workers,
        baseline_qps: BASELINE_SERVE_QPS,
        sweep,
        best_qps,
        speedup_vs_baseline: speedup,
        speedup_floor: SERVE_SPEEDUP_FLOOR,
        above_floor: speedup >= SERVE_SPEEDUP_FLOOR,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The serve sweep off Linux: the load engine is epoll-driven.
#[cfg(not(target_os = "linux"))]
fn serve_sweep(_addr: &str, _corpus: &[String], _requests: usize, _fd: usize) -> Vec<ServePoint> {
    warn!("serve sweep: skipped (loadgen needs Linux (epoll))");
    Vec::new()
}

/// The sweep's points against the daemon at `addr`. The `fd_budget`
/// caps it so runners with a small `ulimit -n` skip the points they
/// cannot hold (client and daemon share this process's fd table).
#[cfg(target_os = "linux")]
fn serve_sweep(
    addr: &str,
    corpus: &[String],
    requests: usize,
    fd_budget: usize,
) -> Vec<ServePoint> {
    use silentcert_serve::{loadgen, LoadgenOptions};

    // Warm up the verify memo, the response cache and the connection
    // path before timing.
    let warmup = loadgen::run(
        &LoadgenOptions {
            addr: addr.to_string(),
            connections: 4,
            requests: corpus.len(),
            ..LoadgenOptions::default()
        },
        corpus,
    );
    assert_eq!(warmup.code_other, 0, "warmup failed: {warmup:?}");

    // (connections, pipeline): a few deep connections, then
    // progressively wider fan-in at shallower per-connection depth.
    let shapes: [(usize, usize); 3] = [(4, 32), (256, 8), (4_096, 4)];
    let mut sweep = Vec::new();
    for (connections, pipeline) in shapes {
        // Each side of the loopback pair costs one fd, plus slack for
        // the listener, journal, metrics scrape and std handles.
        if connections * 2 + 64 > fd_budget {
            warn!(
                "serve sweep: skipping {connections} connections \
                 (fd budget {fd_budget})"
            );
            continue;
        }
        let report = loadgen::run(
            &LoadgenOptions {
                addr: addr.to_string(),
                connections,
                requests,
                pipeline,
                ramp_ms: if connections >= 1_000 { 1_000 } else { 0 },
                ..LoadgenOptions::default()
            },
            corpus,
        );
        assert_eq!(
            report.answered as usize, requests,
            "serve bench dropped requests at {connections} conns: {report:?}"
        );
        sweep.push(ServePoint {
            connections,
            pipeline,
            requests,
            qps: report.qps(),
            p50_us: report.p50_us,
            p99_us: report.p99_us,
            max_us: report.max_us,
            shed_rate: report.shed_rate(),
            transport_errors: report.transport_errors,
        });
    }
    sweep
}

/// Run the benchmark suite and write `BENCH.json` to `out`.
pub fn run(config: &ScaleConfig, scale: &str, quick: bool, out: &Path) {
    let iters = if quick { 3 } else { 10 };
    let threads = silentcert_core::par::configured_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    info!("modpow: Montgomery vs legacy ({iters} iters) ...");
    let modpow = bench_modpow(iters);
    info!(
        "  {:.2}x  ({:.2} ms -> {:.2} ms)",
        modpow.speedup,
        modpow.before_ns_per_op / 1e6,
        modpow.after_ns_per_op / 1e6
    );
    info!("sign: CRT vs full-exponent baseline ({iters} iters) ...");
    let sign = bench_sign(iters);
    info!(
        "  {:.2}x  ({:.2} ms -> {:.2} ms)",
        sign.speedup,
        sign.before_ns_per_op / 1e6,
        sign.after_ns_per_op / 1e6
    );
    info!("pipeline: scan+ingest at scale `{scale}`, baseline-serial vs optimized ({threads} threads) ...");
    let pipeline = bench_pipeline(config, threads);
    info!(
        "  {:.2}x  ({:.2} s -> {:.2} s)",
        pipeline.speedup,
        pipeline.before_ns_per_op / 1e9,
        pipeline.after_ns_per_op / 1e9
    );

    let serve_requests = if quick { 20_000 } else { 100_000 };
    let fd_budget = fd_soft_limit();
    info!(
        "serve: connection sweep on the event core \
         ({serve_requests} requests/point, fd budget {fd_budget}) ..."
    );
    let serve = bench_serve(config, serve_requests, fd_budget);
    for p in &serve.sweep {
        info!(
            "  {:>5} conns x{:<2}: {:>8.0} req/s  (p50 {} us, p99 {} us, \
             shed {:.2}%, {} transport errors)",
            p.connections,
            p.pipeline,
            p.qps,
            p.p50_us,
            p.p99_us,
            p.shed_rate * 100.0,
            p.transport_errors
        );
    }
    info!(
        "  best {:.0} req/s = {:.1}x the committed {:.0} req/s baseline \
         (floor {:.1}x); peak RSS {:.1} MiB",
        serve.best_qps,
        serve.speedup_vs_baseline,
        serve.baseline_qps,
        serve.speedup_floor,
        serve.peak_rss_bytes as f64 / (1 << 20) as f64
    );
    if !serve.above_floor {
        warn!(
            "serve sweep best {:.0} req/s fell under {:.1}x the committed baseline",
            serve.best_qps, serve.speedup_floor
        );
    }

    info!("obs: instrumented vs plain modpow ({iters} iters) ...");
    let obs_overhead = bench_obs_overhead(iters);
    info!(
        "  {:.4}x overhead (bound {:.2}x)",
        obs_overhead.overhead_ratio, obs_overhead.bound
    );
    if !obs_overhead.within_bound {
        warn!(
            "modpow timing probe overhead {:.4}x exceeds the {:.2}x bound",
            obs_overhead.overhead_ratio, obs_overhead.bound
        );
    }

    let report = BenchReport {
        available_parallelism: nproc,
        threads,
        scale: scale.to_string(),
        quick,
        modpow,
        sign,
        pipeline,
        serve,
        obs_overhead,
    };
    let body = json::to_string_pretty(&report);
    // Atomic + durable: a benchmark interrupted mid-write must leave the
    // previous BENCH.json (or none), never a truncated one.
    silentcert_obs::atomic_write(out, |f| f.write_all(body.as_bytes()))
        .unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    info!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(baseline: &'static str, before: f64) -> Measurement {
        Measurement {
            baseline,
            before_ns_per_op: before,
            after_ns_per_op: 2.5,
            speedup: before / 2.5,
        }
    }

    /// Pins the `BENCH.json` layout: nested objects indent, an empty
    /// `sweep` renders `[]`, `u64::MAX` prints exactly, NaN and
    /// infinity render `null`, strings are escaped.
    #[test]
    fn bench_report_layout_is_pinned() {
        let report = BenchReport {
            available_parallelism: 2,
            threads: 2,
            scale: "tiny \"q\"\t".to_string(),
            quick: true,
            modpow: measurement("square-and-multiply", 1234.5),
            sign: measurement("plain", f64::NAN),
            pipeline: measurement("baseline mode, 1 thread", 1e21),
            serve: ServeMeasurement {
                workers: 2,
                baseline_qps: 12121.0,
                sweep: vec![],
                best_qps: 0.1,
                speedup_vs_baseline: -0.0,
                speedup_floor: 2.0,
                above_floor: false,
                peak_rss_bytes: u64::MAX,
            },
            obs_overhead: ObsOverheadMeasurement {
                plain_ns_per_op: 1.0 / 3.0,
                instrumented_ns_per_op: f64::INFINITY,
                overhead_ratio: 1e-7,
                bound: 1.03,
                within_bound: true,
            },
        };
        let expected = r#"{
  "available_parallelism": 2,
  "threads": 2,
  "scale": "tiny \"q\"\t",
  "quick": true,
  "modpow": {
    "baseline": "square-and-multiply",
    "before_ns_per_op": 1234.5,
    "after_ns_per_op": 2.5,
    "speedup": 493.8
  },
  "sign": {
    "baseline": "plain",
    "before_ns_per_op": null,
    "after_ns_per_op": 2.5,
    "speedup": null
  },
  "pipeline": {
    "baseline": "baseline mode, 1 thread",
    "before_ns_per_op": 1000000000000000000000,
    "after_ns_per_op": 2.5,
    "speedup": 400000000000000000000
  },
  "serve": {
    "workers": 2,
    "baseline_qps": 12121,
    "sweep": [],
    "best_qps": 0.1,
    "speedup_vs_baseline": -0,
    "speedup_floor": 2,
    "above_floor": false,
    "peak_rss_bytes": 18446744073709551615
  },
  "obs_overhead": {
    "plain_ns_per_op": 0.3333333333333333,
    "instrumented_ns_per_op": null,
    "overhead_ratio": 0.0000001,
    "bound": 1.03,
    "within_bound": true
  }
}"#;
        assert_eq!(json::to_string_pretty(&report), expected);
    }
}
