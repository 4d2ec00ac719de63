//! `perfbench` — the benchmark's compiled half.
//!
//! ```text
//! perfbench serve --workload NAME --seed N --seconds S --trace 0|1 \
//!     --repro PATH --workdir DIR        # one serve workload run
//! perfbench pipeline-layers --seed N --dir DIR --spans FILE
//!                                       # traced in-process pipeline
//! ```
//!
//! Each prints one JSON object on stdout; `perfbench/run.py` turns them
//! into the benchmark's metrics.

mod corpus;
mod daemon;
mod layers;
mod openloop;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Median of a non-empty sample (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn phase_json(s: &openloop::PhaseStats) -> String {
    obj(&[
        ("offered_rps", num(s.offered_rps)),
        ("attempted", s.attempted.to_string()),
        ("ok", s.ok.to_string()),
        ("errors", s.errors.to_string()),
        ("achieved_rps", num(s.achieved_rps)),
        ("p50_ms", num(s.p50_ms)),
        ("p99_ms", num(s.p99_ms)),
        ("beyond_p99", s.beyond_p99.to_string()),
        ("p99_window_median_ms", num(s.p99_window_median_ms)),
        (
            "window_p99_ms",
            format!(
                "[{}]",
                s.window_p99_ms
                    .iter()
                    .map(|&v| num(v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("lag_p99_ms", num(s.lag_p99_ms)),
        ("mean_latency_ms", num(s.mean_latency_ms)),
        ("little_ratio", num(s.little_ratio)),
        ("backlog_growth", num(s.backlog_growth)),
        ("span_s", num(s.span_s)),
        ("gen_cpu_us_per_req", num(s.gen_cpu_us_per_req)),
        ("within_limits", s.within_limits.to_string()),
        (
            "invalid",
            format!(
                "[{}]",
                s.invalid
                    .iter()
                    .map(|m| silentcert_serve::protocol::js(m))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ])
}

fn map_json<K: AsRef<str>>(m: &BTreeMap<K, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", k.as_ref(), num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(f: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    get(f, key)?
        .parse()
        .map_err(|_| format!("bad value for --{key}"))
}

fn serve_cmd(f: &BTreeMap<String, String>) -> Result<String, String> {
    let name = get(f, "workload")?;
    let workload = *serve::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown serve workload {name}"))?;
    let out = serve::run(&serve::Options {
        workload,
        seed: parse(f, "seed")?,
        seconds: parse(f, "seconds")?,
        trace: parse::<u8>(f, "trace")? == 1,
        repro: PathBuf::from(get(f, "repro")?),
        workdir: PathBuf::from(get(f, "workdir")?),
    })?;
    let p = &out.properties;
    let rungs: Vec<String> = out
        .rungs
        .iter()
        .map(|r| {
            obj(&[
                ("pass", r.pass.to_string()),
                ("stats", phase_json(&r.stats)),
            ])
        })
        .collect();
    let strings = |v: &[String]| {
        let quoted: Vec<String> = v
            .iter()
            .map(|m| silentcert_serve::protocol::js(m))
            .collect();
        format!("[{}]", quoted.join(","))
    };
    Ok(obj(&[
        (
            "setup_s",
            format!(
                "[{}]",
                out.setup_s
                    .iter()
                    .map(|&s| num(s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("fixed", phase_json(&out.fixed)),
        ("rungs", format!("[{}]", rungs.join(","))),
        ("sustained_rps", num(out.sustained_rps)),
        ("peak_rss_mb", num(out.peak_rss_mb)),
        ("cpu_us_per_op", num(out.cpu_us_per_op)),
        (
            "properties",
            obj(&[
                ("requests", p.requests.to_string()),
                ("repeat_share", num(p.repeat_share)),
                ("valid_share", num(p.valid_share)),
                ("self_signed_share", num(p.self_signed_share)),
                ("parse_failure_share", num(p.parse_failure_share)),
                ("chain_share", num(p.chain_share)),
                ("mean_frame_bytes", num(p.mean_frame_bytes)),
            ]),
        ),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("wrong_answers", out.wrong_answers.to_string()),
        ("problems", strings(&out.problems)),
        ("notes", strings(&out.notes)),
        ("layer", map_json(&out.layer)),
    ]))
}

fn pipeline_cmd(f: &BTreeMap<String, String>) -> Result<String, String> {
    let pl = layers::pipeline_layers(
        parse(f, "seed")?,
        &PathBuf::from(get(f, "dir")?),
        &PathBuf::from(get(f, "spans")?),
    )?;
    Ok(obj(&[
        ("stages", map_json(&pl.stages)),
        ("attributed_s", num(pl.attributed_s)),
        ("traced_s", num(pl.traced_s)),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => flags(rest).and_then(|f| match cmd.as_str() {
            "serve" => serve_cmd(&f),
            "pipeline-layers" => pipeline_cmd(&f),
            other => Err(format!("unknown command {other}")),
        }),
        None => Err("usage: perfbench serve|pipeline-layers --flag value ...".to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
