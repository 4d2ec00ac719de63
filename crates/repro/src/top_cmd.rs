//! `repro top` — a live fleet console over the `fleet` wire verb.
//!
//! One `{"op":"fleet"}` round trip per refresh; the router answers from
//! the aggregator's in-memory ring, so the console keeps rendering
//! while shards crash, drain, or eject — degradation is a dimmed row,
//! never a blank screen. Std-only ANSI: home + clear-to-end per frame
//! (no full clears, so a slow terminal does not flicker), plain ASCII
//! rows. `--once` prints a single frame without cursor control (CI and
//! piping); `--replay RING.json` renders the same console offline from
//! a drain-time ring export
//! ([`silentcert_obs::fleet::parse_ring`] +
//! [`silentcert_obs::fleet::compute_view`] — the exact recomputation
//! path, so the replayed numbers are the numbers the live fleet
//! served).

use silentcert_net::client::round_trip;
use silentcert_obs::error;
use silentcert_obs::json::{self, Value};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// CLI-level options for `repro top`.
pub struct TopCliOptions {
    /// Router to watch (required unless `--replay`).
    pub addr: Option<String>,
    /// Refresh cadence.
    pub interval_ms: u64,
    /// Render one frame and exit (no ANSI cursor control).
    pub once: bool,
    /// Render offline from an exported ring instead of a live router.
    pub replay: Option<std::path::PathBuf>,
}

pub fn run_top(opts: &TopCliOptions) -> ! {
    if let Some(path) = &opts.replay {
        match replay_frame(path) {
            Ok(frame) => {
                print!("{frame}");
                crate::exit(0);
            }
            Err(e) => {
                error!("{e}");
                crate::exit(1);
            }
        }
    }
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => {
            error!("top needs --addr HOST:PORT (or --replay RING.json)");
            crate::exit(2);
        }
    };
    let mut failures = 0u32;
    loop {
        let frame = match fetch_fleet(&addr) {
            Ok(view) => {
                failures = 0;
                render(&view)
            }
            Err(e) => {
                failures += 1;
                if opts.once || failures > 5 {
                    error!("scraping {addr}: {e}");
                    crate::exit(1);
                }
                format!("fleet @ {addr} — scrape failed ({e}); retrying\n")
            }
        };
        if opts.once {
            print!("{frame}");
            crate::exit(0);
        }
        // Home, draw, then clear whatever the previous (longer) frame
        // left below — flicker-free on ordinary terminals.
        print!("\x1b[H{}\x1b[0J", frame.replace('\n', "\x1b[K\n"));
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(100)));
    }
}

/// One `fleet` verb round trip, parsed to the view's JSON tree.
pub fn fetch_fleet(addr: &str) -> std::io::Result<Value> {
    let bad = std::io::Error::other;
    let timeout = Duration::from_secs(5);
    let resp = round_trip(addr, r#"{"op":"fleet","id":"top"}"#, timeout, timeout)?;
    let value = json::parse(&resp).map_err(|e| bad(format!("malformed fleet response: {e}")))?;
    if value.get("code").and_then(Value::as_f64) != Some(200.0) {
        return Err(bad(format!("unexpected response: {resp}")));
    }
    value
        .get("fleet")
        .cloned()
        .ok_or_else(|| bad("fleet response carried no view".to_string()))
}

/// Offline frame from a drain-time ring export.
fn replay_frame(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (slo, ring) = silentcert_obs::fleet::parse_ring(&text)?;
    let view = silentcert_obs::fleet::compute_view(&ring, &slo);
    let parsed = json::parse(&view.render_json()).map_err(|e| format!("rendered view: {e}"))?;
    Ok(render(&parsed))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// Render one console frame from the view's JSON tree (shared by live,
/// `--once`, and `--replay` paths — and unit-testable without a fleet).
fn render(view: &Value) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "silentcert fleet  epoch {}  sample {}  ring {} rounds  budget {:>6.1}%\n",
        num(view, "epoch"),
        num(view, "sample_index"),
        num(view, "ring_samples"),
        num(view, "budget_remaining") * 100.0
    ));
    let windows = view.get("windows").and_then(Value::as_array).unwrap_or(&[]);
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>8} {:>8} {:>8}\n",
        "window", "req/s", "burn", "p50ms", "p95ms", "p99ms"
    ));
    for w in windows {
        let burn = num(w, "burn_rate");
        // A burn rate above 1 spends budget faster than the SLO allows
        // for the window — the fast/slow alert condition.
        let marker = if burn > 1.0 { " !" } else { "" };
        out.push_str(&format!(
            "{:<8} {:>10.1} {:>10.3}{marker} {:>6.1} {:>8.1} {:>8.1}\n",
            text(w, "name"),
            num(w, "req_rate"),
            burn,
            num(w, "p50"),
            num(w, "p95"),
            num(w, "p99"),
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<6} {:<4} {:<9} {:>10} {:>8} {:>8} {:>6} {:>8} {:>9}\n",
        "shard", "gen", "state", "req/s", "p99ms", "shed/s", "queue", "breaker", "journal"
    ));
    let shards = view.get("shards").and_then(Value::as_array).unwrap_or(&[]);
    for s in shards {
        let health = text(s, "health");
        let alive = matches!(s.get("ok"), Some(Value::Bool(true)));
        if alive {
            let breaker = match num(s, "breaker_state") as i64 {
                0 => "closed",
                1 => "open",
                2 => "half",
                _ => "?",
            };
            out.push_str(&format!(
                "{:<6} {:<4} {:<9} {:>10.1} {:>8.1} {:>8.1} {:>6} {:>8} {:>9}\n",
                num(s, "shard"),
                num(s, "generation"),
                health,
                num(s, "req_rate"),
                num(s, "p99_ms"),
                num(s, "shed_rate"),
                num(s, "queue_depth"),
                breaker,
                num(s, "journal_entries"),
            ));
        } else {
            // Degraded row: the shard did not answer the last scrape
            // (down, ejected, starting, or wedged) — state only, dimmed.
            out.push_str(&format!(
                "{:<6} {:<4} {:<9} {:>10} {:>8} {:>8} {:>6} {:>8} {:>9}\n",
                num(s, "shard"),
                num(s, "generation"),
                health,
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_obs::fleet::{compute_view, SampleRing, ShardSample, SloConfig};
    use silentcert_obs::metrics::Registry;

    fn view_json(ok: bool) -> Value {
        let mut ring = SampleRing::new(8);
        let snapshot = {
            let r = Registry::new();
            r.counter("silentcert_serve_served_ok_total").add(9);
            r.histogram("silentcert_serve_request_latency_ms").record(7);
            r.snapshot()
        };
        for ts in [1_000, 2_000] {
            ring.push(
                ts,
                3,
                vec![ShardSample {
                    shard: 0,
                    generation: 1,
                    health: if ok { "up" } else { "down" }.to_string(),
                    ok,
                    snapshot: snapshot.clone(),
                }],
                Default::default(),
            );
        }
        let view = compute_view(&ring, &SloConfig::default());
        json::parse(&view.render_json()).unwrap()
    }

    #[test]
    fn frames_carry_fleet_header_and_shard_rows() {
        let frame = render(&view_json(true));
        assert!(frame.contains("epoch 3"), "{frame}");
        assert!(frame.contains("budget"), "{frame}");
        for window in ["short", "long", "ring"] {
            assert!(frame.contains(window), "missing {window} row: {frame}");
        }
        assert!(frame.contains("closed"), "breaker column: {frame}");
    }

    #[test]
    fn down_shards_render_degraded_not_blank() {
        let frame = render(&view_json(false));
        assert!(frame.contains("down"), "{frame}");
        // The row is present but carries placeholders, not numbers.
        let row = frame.lines().find(|l| l.contains("down")).unwrap();
        assert!(row.contains('-'), "{row}");
    }
}
