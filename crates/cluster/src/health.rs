//! Out-of-band health probing.
//!
//! Process liveness (the supervisor's `try_wait`) catches a dead shard
//! in one tick, but a shard can be alive and useless — wedged workers,
//! a full accept backlog, a hung disk. The prober catches those: every
//! `interval_ms` it runs a `health` round trip against each Up shard;
//! `fail_threshold` consecutive failures mark the shard Down in the
//! directory (ejecting it from the routing ring) without touching the
//! process. A Down shard that starts answering again is reinstated —
//! the prober only ever edits routing visibility, so it composes with
//! the supervisor's restarts (a restart's `set_up` simply resets the
//! probe slate).

use crate::directory::{Directory, ShardHealth};
use silentcert_net::client::round_trip;
use silentcert_obs::metrics::Registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct ProberConfig {
    pub interval_ms: u64,
    pub timeout_ms: u64,
    /// Consecutive probe failures before the shard is marked Down.
    pub fail_threshold: u32,
}

impl Default for ProberConfig {
    fn default() -> ProberConfig {
        ProberConfig {
            interval_ms: 250,
            timeout_ms: 1_000,
            fail_threshold: 3,
        }
    }
}

/// One `health` round trip; true iff the shard answered `code: 200`.
fn healthy(addr: &str, timeout: Duration) -> bool {
    round_trip(addr, r#"{"op":"health","id":"probe"}"#, timeout, timeout)
        .ok()
        .and_then(|line| silentcert_obs::json::parse(&line).ok())
        .and_then(|v| v.get("code").and_then(|c| c.as_f64()))
        == Some(200.0)
}

/// Start the prober thread. It exits once `stop` goes true. Probe
/// verdicts land in `registry` as `silentcert_cluster_probe_*` series.
pub fn start_prober(
    config: ProberConfig,
    directory: Arc<Directory>,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("cluster-prober".to_string())
        .spawn(move || {
            let timeout = Duration::from_millis(config.timeout_ms.max(1));
            // shard id → (consecutive failures, generation probed).
            let mut failures: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
            while !stop.load(Ordering::SeqCst) {
                for view in directory.snapshot() {
                    let Some(addr) = view.addr.as_deref() else {
                        continue;
                    };
                    match view.health {
                        ShardHealth::Up => {
                            if healthy(addr, timeout) {
                                failures.remove(&view.id);
                            } else {
                                let slot = failures.entry(view.id).or_insert((0, view.generation));
                                // A restart invalidates the old streak.
                                if slot.1 != view.generation {
                                    *slot = (0, view.generation);
                                }
                                slot.0 += 1;
                                registry
                                    .counter_with(
                                        "silentcert_cluster_probe_failures_total",
                                        &[("shard", &view.id.to_string())],
                                    )
                                    .inc();
                                if slot.0 >= config.fail_threshold {
                                    directory.set_down(view.id);
                                    registry
                                        .counter_with(
                                            "silentcert_cluster_probe_marked_down_total",
                                            &[("shard", &view.id.to_string())],
                                        )
                                        .inc();
                                }
                            }
                        }
                        ShardHealth::Down => {
                            // The process may still be alive (marked
                            // Down by probes, not by exit): a healthy
                            // answer reinstates it.
                            if healthy(addr, timeout) {
                                directory.set_up(view.id, addr, view.generation);
                                failures.remove(&view.id);
                                registry
                                    .counter_with(
                                        "silentcert_cluster_reinstatements_total",
                                        &[("shard", &view.id.to_string())],
                                    )
                                    .inc();
                            }
                        }
                        // A Draining shard is deliberately out of the
                        // fresh ring; probing it could only race the
                        // supervisor's handoff state machine.
                        ShardHealth::Starting | ShardHealth::Draining | ShardHealth::Ejected => {}
                    }
                }
                std::thread::sleep(Duration::from_millis(config.interval_ms.max(10)));
            }
        })
        .expect("spawn prober")
}
