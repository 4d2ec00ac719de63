//! Per-layer timings: a span around each call into a layer's public
//! functions, replayed in-process on a workload's own inputs.
//!
//! The serve replay follows the daemon's request path for the workload
//! (cache hit on the loop; cache miss through parse, decode and
//! classify; the journaled shard path behind the router). The pipeline
//! replay runs the stages `repro scan` and `repro all --corpus` run.

use crate::corpus::Frame;
use crate::trace::Tracer;
use silentcert_core::compare;
use silentcert_core::dataset::CertId;
use silentcert_core::dedup::{self, DedupConfig};
use silentcert_core::evaluate::{self, ObsIndex};
use silentcert_core::linking::{self, LinkConfig, LinkField};
use silentcert_core::tracking;
use silentcert_serve::protocol;
use silentcert_serve::{Journal, ResponseCache};
use silentcert_validate::{TrustStore, Validator};
use silentcert_x509::Certificate;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Which request path a serve workload takes inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Standalone daemon, every frame a cache miss.
    Miss,
    /// Standalone daemon, every frame a cache hit.
    Hit,
    /// A cluster shard: cache off, journal written through.
    Journaled,
}

/// The response cache size `repro serve` ships with.
const CACHE_ENTRIES: usize = 8_192;

/// Layer names on the serve path, as reported.
pub const SERVE_LAYERS: &[&str] = &[
    "serve.fast_scan",
    "serve.cache_lookup",
    "serve.cache_insert",
    "serve.parse_request",
    "x509.from_der",
    "validate.classify",
    "serve.journal_append",
    "serve.respond",
];

/// Replay `requests` (indexes into `frames`) through the layers of
/// `path`, once per tracer. Returns per-request self time of each layer
/// in µs.
fn replay(
    t: &mut Tracer,
    path: Route,
    frames: &[Frame],
    requests: &[u32],
    validator: &Validator,
    journal: Option<&Journal>,
) {
    let cache = ResponseCache::new(CACHE_ENTRIES);
    if path == Route::Hit {
        // The cache the warm-up left behind.
        let mut warm: Vec<u32> = requests.to_vec();
        warm.sort_unstable();
        warm.dedup();
        for &i in &warm {
            let f = &frames[i as usize];
            let fast = protocol::fast_scan(&f.line).expect("canonical frame");
            let outcome = crate::corpus::expected(validator, f);
            cache.insert(fast.op, fast.cert, &fast.chain, outcome);
        }
    }
    for (r, &i) in requests.iter().enumerate() {
        let r = r as u32;
        let line = frames[i as usize].line.as_str();
        t.span("serve.request", r, |t| {
            if path != Route::Journaled {
                let fast = t.span("serve.fast_scan", r, |_| protocol::fast_scan(line));
                let fast = fast.expect("canonical frame");
                let hit = t.span("serve.cache_lookup", r, |_| {
                    cache.lookup(fast.op, fast.cert, &fast.chain)
                });
                if let Some(outcome) = hit {
                    let out = t.span("serve.respond", r, |_| {
                        protocol::response_line(
                            fast.id,
                            200,
                            &protocol::classification_fields(fast.op, &outcome),
                        )
                    });
                    black_box(out);
                    return;
                }
            }
            let req = t.span("serve.parse_request", r, |_| protocol::parse_request(line));
            let req = req.expect("well-formed frame");
            let cert = t.span("x509.from_der", r, |_| Certificate::from_der(&req.der));
            let outcome = t.span("validate.classify", r, |_| match &cert {
                Ok(cert) => validator.classify(cert, &req.chain),
                Err(_) => validator.classify_der(&req.der, &req.chain),
            });
            if let Some(journal) = journal {
                t.span("serve.journal_append", r, |_| {
                    journal.append(req.op.as_str(), &req.der, &req.chain, &outcome.to_string())
                });
            }
            let out = t.span("serve.respond", r, |_| {
                protocol::response_line(
                    &req.id,
                    200,
                    &protocol::classification_fields(req.op, &outcome),
                )
            });
            black_box(out);
            if path == Route::Miss {
                t.span("serve.cache_insert", r, |t| {
                    let fast = t.span("serve.fast_scan", r, |_| protocol::fast_scan(line));
                    let fast = fast.expect("canonical frame");
                    cache.insert(fast.op, fast.cert, &fast.chain, outcome);
                });
            }
        });
    }
}

/// Per-layer serve timings for a workload.
pub struct ServeLayers {
    /// µs per request of each layer in [`SERVE_LAYERS`] (0 when the
    /// layer is not on this workload's path).
    pub us_per_req: BTreeMap<&'static str, f64>,
    /// Tracing overhead: traced replay minus untraced, as a share of the
    /// untraced replay, percent.
    pub overhead_pct: f64,
}

/// Replay the workload's requests traced and untraced (alternating,
/// three times each; medians), write the spans of the last traced pass
/// to `spans_out`.
pub fn serve_layers(
    path: Route,
    frames: &[Frame],
    requests: &[u32],
    seed: u64,
    workdir: &Path,
    spans_out: &Path,
) -> std::io::Result<ServeLayers> {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        for on in [false, true] {
            // A fresh daemon-equivalent state per pass: validator memo,
            // cache and journal all start as the daemon's do.
            let validator = crate::corpus::validator(seed);
            let journal = match path {
                Route::Journaled => Some(Journal::write_through(workdir.join("replay.journal"))?),
                _ => None,
            };
            let mut t = Tracer::new(on);
            let start = std::time::Instant::now();
            replay(&mut t, path, frames, requests, &validator, journal.as_ref());
            let elapsed = start.elapsed().as_secs_f64();
            if on {
                traced.push(elapsed);
                last = Some(t);
            } else {
                untraced.push(elapsed);
            }
        }
    }
    let t = last.expect("three traced passes");
    t.write(spans_out)?;
    let _ = std::fs::remove_file(workdir.join("replay.journal"));
    let n = requests.len().max(1) as f64;
    let st = t.self_times();
    let us_per_req = SERVE_LAYERS
        .iter()
        .map(|&name| (name, st.get(name).map_or(0.0, |&(_, s)| s * 1e6 / n)))
        .collect();
    let (tr, un) = (crate::median(&mut traced), crate::median(&mut untraced));
    Ok(ServeLayers {
        us_per_req,
        overhead_pct: (tr - un) / un * 100.0,
    })
}

/// Self time of each pipeline stage, seconds.
pub struct PipelineLayers {
    pub stages: BTreeMap<&'static str, f64>,
    /// Sum of the [`PIPELINE_STAGES`] self times: the part of the
    /// pipeline's wall time the stages account for.
    pub attributed_s: f64,
    /// The traced run's whole wall time (root spans), seconds.
    pub traced_s: f64,
}

/// Stages that make up the pipeline's wall time, as reported.
pub const PIPELINE_STAGES: &[&str] = &[
    "sim.run_scan",
    "core.load_dataset",
    "core.dedup",
    "core.iterative_link",
    "core.link_eval",
    "core.tracking",
    "core.compare",
];

/// The batch steps inside `core.load_dataset`, replayed on their own.
pub const INGEST_STEPS: &[&str] = &[
    "x509.pem_scan",
    "x509.from_der",
    "validate.pool",
    "core.classify_parallel",
];

/// A validator trusting a corpus's `roots.pem`, as `repro all --corpus`
/// builds it.
fn trusting_roots(dir: &Path) -> Result<Validator, String> {
    let pem = std::fs::read_to_string(dir.join("roots.pem")).map_err(|e| e.to_string())?;
    let roots = silentcert_x509::pem::pem_decode_all("CERTIFICATE", &pem)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|der| Certificate::from_der(der).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Validator::new(TrustStore::from_roots(roots)))
}

/// Run the pipeline in-process with a span around each stage, on the
/// same world `repro scan --scale small --seed N` simulates, writing the
/// corpus under `dir`.
pub fn pipeline_layers(seed: u64, dir: &Path, spans_out: &Path) -> Result<PipelineLayers, String> {
    let config = crate::corpus::world(seed);
    let mut t = Tracer::new(true);
    t.span("pipeline", 0, |t| -> Result<(), String> {
        let outcome = t.span("sim.run_scan", 0, |_| {
            silentcert_sim::run_scan(&config, dir, &silentcert_sim::ScanOptions::default())
        });
        outcome.map_err(|e| e.to_string())?;
        let dataset = t.span("core.load_dataset", 0, |_| -> Result<_, String> {
            let mut v = trusting_roots(dir)?;
            silentcert_core::ingest::load_dataset(dir, &mut v).map_err(|e| e.to_string())
        })?;
        let d = &dataset;
        let (lifetimes, invalid_unique) = t.span("core.dedup", 0, |_| {
            let lifetimes = d.lifetimes();
            let dd = dedup::analyze(d, DedupConfig::default());
            let invalid_unique: Vec<CertId> = d
                .cert_ids()
                .filter(|&c| !d.cert(c).is_valid() && dd.is_unique(c))
                .collect();
            (lifetimes, invalid_unique)
        });
        let link = t.span("core.iterative_link", 0, |_| {
            evaluate::iterative_link(
                d,
                &lifetimes,
                &invalid_unique,
                &LinkField::ACCEPTED,
                LinkConfig::default(),
            )
        });
        t.span("core.link_eval", 0, |_| {
            black_box(linking::feature_uniqueness(
                d,
                &invalid_unique,
                &[
                    LinkField::NotBefore,
                    LinkField::CommonName,
                    LinkField::NotAfter,
                    LinkField::PublicKey,
                    LinkField::San,
                    LinkField::IssuerSerial,
                ],
            ));
            black_box(evaluate::evaluate_fields(
                d,
                &lifetimes,
                &invalid_unique,
                &LinkField::ALL,
                LinkConfig::default(),
            ));
            black_box(evaluate::before_after(&lifetimes, &invalid_unique, &link));
        });
        t.span("core.tracking", 0, |_| {
            let index = ObsIndex::build(d);
            let entities = tracking::entities(&link);
            let span = d.scans.last().map_or(0, |s| s.day) - d.scans.first().map_or(0, |s| s.day);
            let min_days = (span * 3 / 5).min(365);
            black_box(tracking::trackable(
                d,
                &lifetimes,
                &invalid_unique,
                &entities,
                &index,
                min_days,
            ));
            let min_bulk = (entities.len() / 20_000).clamp(3, 50);
            black_box(tracking::movement(d, &entities, &index, min_days, min_bulk));
            let min_devices = (entities.len() / 70_000).clamp(4, 10);
            black_box(tracking::reassignment(
                d,
                &entities,
                &index,
                min_days,
                min_devices,
                0.75,
            ));
        });
        t.span("core.compare", 0, |_| {
            black_box(compare::headline(d));
            let pairs = compare::overlap_days(d);
            if let Some(&(su, sr)) = pairs.first() {
                black_box(compare::overlap::scan_uniqueness_by_slash8(d, su, sr));
                black_box(compare::scan_uniqueness_by_slash24(d, su, sr, 4));
            }
            black_box(compare::blacklist_attribution(d, &pairs));
            black_box(compare::expiry_ablation(d));
            black_box(compare::per_scan_counts(d));
            black_box(compare::validity_periods(d));
            black_box(compare::lifetime_ecdfs(d, &lifetimes));
            black_box(compare::notbefore_delta(d, &lifetimes));
            black_box(compare::key_sharing(d));
            black_box(compare::top_issuers(d, 5));
            black_box(compare::issuer_key_diversity(d));
            black_box(compare::host_diversity(d));
            black_box(compare::hosts::max_ips_for_any_cert(d));
            let ad = compare::as_diversity(d);
            black_box(compare::as_type_breakdown(d, &ad));
            black_box(compare::top_ases(d, &ad, 5));
            black_box(silentcert_core::devices::device_type_breakdown(d, 50));
        });
        Ok(())
    })?;
    let traced_s = t.root_s();
    // The batch steps inside load_dataset, replayed on the same corpus
    // (a second root: not part of the pipeline's wall time).
    t.span("ingest.replay", 0, |t| -> Result<(), String> {
        let pem = std::fs::read_to_string(dir.join("certs.pem")).map_err(|e| e.to_string())?;
        let scan = t.span("x509.pem_scan", 0, |_| {
            silentcert_x509::pem::pem_scan("CERTIFICATE", &pem)
        });
        let certs: Vec<Certificate> = t.span("x509.from_der", 0, |_| {
            scan.blocks
                .iter()
                .filter_map(|b| b.result.as_ref().ok())
                .filter_map(|der| Certificate::from_der(der).ok())
                .collect()
        });
        let mut v = trusting_roots(dir)?;
        t.span("validate.pool", 0, |_| {
            for c in &certs {
                v.add_intermediate(c);
            }
        });
        t.span("core.classify_parallel", 0, |_| {
            black_box(silentcert_core::ingest::classify_parallel(&v, &certs, 0))
        });
        Ok(())
    })?;
    t.write(spans_out).map_err(|e| e.to_string())?;
    let st = t.self_times();
    let stages: BTreeMap<&'static str, f64> = PIPELINE_STAGES
        .iter()
        .chain(INGEST_STEPS)
        .map(|&name| (name, st.get(name).map_or(0.0, |&(_, s)| s)))
        .collect();
    let attributed_s = PIPELINE_STAGES.iter().map(|name| stages[name]).sum();
    Ok(PipelineLayers {
        stages,
        attributed_s,
        traced_s,
    })
}
