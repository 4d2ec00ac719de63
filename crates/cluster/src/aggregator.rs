//! The fleet stats aggregator: the cluster-side host of the
//! `silentcert_obs::fleet` pipeline (DESIGN.md §16).
//!
//! A scraper thread wakes every `interval_ms`, reads the routing
//! directory, and scatter-gathers one `metrics`/`format:"wire"` round
//! trip to every addressable shard over
//! [`silentcert_net::scatter`] — one deadline for the whole round, so a
//! wedged shard costs the timeout, not the round. Each round lands in
//! the bounded [`SampleRing`] as one [`FleetSample`]: per-shard wire
//! snapshots (raw histogram buckets included), the control plane's own
//! registries (router + supervisor + prober, via the same `base`
//! closure the router's `metrics` verb merges), the topology epoch, and
//! a monotonic sample index stamped on the shared [`Clock`] — a
//! `VirtualClock` in tests makes every downstream number reproducible.
//!
//! The router answers the `fleet` wire verb from the [`AggregatorHandle`]
//! (compute is in-memory over the ring: no upstream I/O, so it stays
//! live while shards are down), and `repro cluster` exports the ring
//! losslessly on drain for offline post-mortems.
//! [`silentcert_obs::fleet::parse_ring`] is the other half of that
//! contract: re-reading an exported ring and running [`compute_view`]
//! reproduces the live verb's numbers exactly.

use crate::directory::{Directory, ShardHealth};
use crate::router::MetricsBase;
use silentcert_net::scatter::{scatter_lines, ScatterTarget};
use silentcert_obs::fleet::{
    compute_view, export_ring, FleetView, SampleRing, ShardSample, SloConfig,
};
use silentcert_obs::metrics::{parse_wire_response, Snapshot};
use silentcert_obs::Clock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Aggregator tuning.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Scrape cadence.
    pub interval_ms: u64,
    /// Rounds retained: the ring covers `interval_ms × ring_capacity`
    /// of history (the default pairing covers two minutes).
    pub ring_capacity: usize,
    /// Deadline for one whole scatter round.
    pub scrape_timeout_ms: u64,
    pub slo: SloConfig,
}

impl Default for AggregatorConfig {
    fn default() -> AggregatorConfig {
        AggregatorConfig {
            interval_ms: 500,
            ring_capacity: 240,
            scrape_timeout_ms: 1_000,
            slo: SloConfig::default(),
        }
    }
}

struct State {
    ring: Mutex<SampleRing>,
    slo: SloConfig,
}

/// Shared, cheaply clonable read/compute handle over the ring. The
/// router holds one to answer the `fleet` verb; `repro cluster` holds
/// one for the drain-time ring export.
#[derive(Clone)]
pub struct AggregatorHandle {
    state: Arc<State>,
}

impl AggregatorHandle {
    pub fn new(slo: SloConfig, ring_capacity: usize) -> AggregatorHandle {
        AggregatorHandle {
            state: Arc::new(State {
                ring: Mutex::new(SampleRing::new(ring_capacity)),
                slo,
            }),
        }
    }

    /// Compute the aggregated view from the current ring.
    pub fn view(&self) -> FleetView {
        let ring = self.state.ring.lock().unwrap();
        compute_view(&ring, &self.state.slo)
    }

    /// Lossless ring + SLO export for offline recomputation.
    pub fn export_json(&self) -> String {
        let ring = self.state.ring.lock().unwrap();
        export_ring(&ring, &self.state.slo)
    }

    /// Number of rounds currently retained.
    pub fn rounds(&self) -> usize {
        self.state.ring.lock().unwrap().len()
    }

    /// Execute one scrape round now and push it into the ring. Returns
    /// the assigned sample index. Called by the scraper thread on its
    /// cadence, and directly by tests driving a `VirtualClock`.
    pub fn scrape_round(
        &self,
        directory: &Directory,
        base: Option<&MetricsBase>,
        scrape_timeout_ms: u64,
        now_ms: u64,
    ) -> u64 {
        let views = directory.snapshot();
        let epoch = directory.topology_epoch();
        // Scrape every shard that has an address and is expected to
        // answer; Down/Ejected/Starting rows are kept (the TUI shows
        // them) with `ok: false` and an empty snapshot.
        let mut targets = Vec::new();
        let mut target_of = Vec::new(); // index into `views` per target
        for (i, v) in views.iter().enumerate() {
            let scrapable = matches!(v.health, ShardHealth::Up | ShardHealth::Draining);
            if let (true, Some(addr)) = (scrapable, &v.addr) {
                targets.push(ScatterTarget {
                    addr: addr.clone(),
                    line: "{\"op\":\"metrics\",\"id\":\"fleet-agg\",\"format\":\"wire\"}"
                        .to_string(),
                });
                target_of.push(i);
            }
        }
        let responses = scatter_lines(&targets, scrape_timeout_ms);
        let mut scraped: Vec<Option<Snapshot>> = vec![None; views.len()];
        for (t, resp) in responses.into_iter().enumerate() {
            scraped[target_of[t]] = resp.and_then(|line| parse_wire_response(&line));
        }
        let shards = views
            .iter()
            .zip(scraped)
            .map(|(v, snap)| ShardSample {
                shard: v.id,
                generation: v.generation,
                health: v.health.as_str().to_string(),
                ok: snap.is_some(),
                snapshot: snap.unwrap_or_default(),
            })
            .collect();
        let control = base.map(|b| b()).unwrap_or_default();
        let mut ring = self.state.ring.lock().unwrap();
        ring.push(now_ms, epoch, shards, control)
    }
}

/// The scraper thread plus its handle.
pub struct Aggregator {
    handle: AggregatorHandle,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Aggregator {
    /// Spawn the scraper thread. `base` is the same merged
    /// router+supervisor snapshot closure the router's `metrics` verb
    /// uses, so control-plane series ride every sample.
    pub fn start(
        config: AggregatorConfig,
        directory: Arc<Directory>,
        base: Option<MetricsBase>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Aggregator> {
        let handle = AggregatorHandle::new(config.slo.clone(), config.ring_capacity);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fleet-aggregator".to_string())
                .spawn(move || {
                    let interval = config.interval_ms.max(10);
                    while !stop.load(Ordering::SeqCst) {
                        handle.scrape_round(
                            &directory,
                            base.as_ref(),
                            config.scrape_timeout_ms,
                            clock.now_ms(),
                        );
                        // Sleep in small slices so stop stays prompt.
                        let mut slept = 0u64;
                        while slept < interval && !stop.load(Ordering::SeqCst) {
                            let slice = (interval - slept).min(50);
                            std::thread::sleep(std::time::Duration::from_millis(slice));
                            slept += slice;
                        }
                    }
                })?
        };
        Ok(Aggregator {
            handle,
            stop,
            thread: Some(thread),
        })
    }

    pub fn handle(&self) -> AggregatorHandle {
        self.handle.clone()
    }

    /// Stop the scraper and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
