//! Fleet observability: one snapshot for the whole cluster.
//!
//! Each shard keeps its own metrics registry; the cluster does not
//! share memory with its children. The fleet scraper turns that into
//! one coherent view by scattering one `stats` round trip to every Up
//! shard and re-emitting each flat numeric field as a labeled series:
//! `silentcert_fleet_<field>{shard="i"}`. Merged with the supervisor's
//! lifecycle counters and the router's own registry, the `metrics` verb
//! on the router exposes the entire fleet from a single scrape point —
//! restarts, ejections, per-shard served/shed counts, ring size — in
//! both JSON and Prometheus text exposition.

use crate::directory::Directory;
use silentcert_net::scatter::{scatter_lines, ScatterTarget};
use silentcert_obs::metrics::Snapshot;

/// One shard's `stats` reply as flat numeric fields.
fn stats_fields(reply: &str) -> Option<Vec<(String, f64)>> {
    let v = silentcert_obs::json::parse(reply).ok()?;
    if v.get("code").and_then(|c| c.as_f64()) != Some(200.0) {
        return None;
    }
    let obj = v.as_object()?;
    Some(
        obj.iter()
            .filter(|(k, _)| k.as_str() != "code")
            .filter_map(|(k, val)| val.as_f64().map(|f| (k.clone(), f)))
            .collect(),
    )
}

/// Fold every Up shard's `stats` into `snap` as
/// `silentcert_fleet_<field>{shard="i"}` series, plus a scrape-health
/// gauge per shard (1 answered, 0 did not). One scatter round covers
/// every shard, so a scrape takes as long as the slowest shard.
pub fn scrape_into(snap: &mut Snapshot, directory: &Directory, timeout_ms: u64) {
    let shards = directory.up_shards();
    let targets: Vec<ScatterTarget> = shards
        .iter()
        .map(|(_, addr)| ScatterTarget {
            addr: addr.clone(),
            line: r#"{"op":"stats","id":"fleet"}"#.to_string(),
        })
        .collect();
    let replies = scatter_lines(&targets, timeout_ms);
    for ((id, _), reply) in shards.iter().zip(replies) {
        match reply.as_deref().and_then(stats_fields) {
            Some(fields) => {
                snap.set_gauge(&format!("silentcert_fleet_scrape_ok{{shard=\"{id}\"}}"), 1);
                for (field, value) in fields {
                    // Monotonic shard stats come through as counters;
                    // negative or fractional values (none today) would
                    // be truncated, which the gauge below records.
                    snap.set_counter(
                        &format!("silentcert_fleet_{field}{{shard=\"{id}\"}}"),
                        value.max(0.0) as u64,
                    );
                }
            }
            None => {
                snap.set_gauge(&format!("silentcert_fleet_scrape_ok{{shard=\"{id}\"}}"), 0);
            }
        }
    }
}

/// The router's `health` payload: per-shard state plus fleet counts,
/// rendered as JSON fields (the caller wraps them in a response line).
pub fn health_fields(directory: &Directory) -> Vec<(&'static str, String)> {
    let (up, total) = directory.counts();
    let mut shards = String::from("[");
    for (i, view) in directory.snapshot().iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        shards.push_str(&format!(
            "{{\"shard\":{},\"health\":\"{}\",\"generation\":{}{}}}",
            view.id,
            view.health.as_str(),
            view.generation,
            match &view.addr {
                Some(a) => format!(",\"addr\":\"{}\"", silentcert_obs::json::escape(a)),
                None => String::new(),
            }
        ));
    }
    shards.push(']');
    vec![
        ("role", "\"router\"".to_string()),
        ("shards_up", up.to_string()),
        ("shards_total", total.to_string()),
        ("shards", shards),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_fields_render_parseable_json() {
        let d = Directory::new(16);
        d.set_up(0, "127.0.0.1:9999", 1);
        d.register(1);
        let fields = health_fields(&d);
        let line = silentcert_serve::protocol::response_line("h", 200, &fields);
        let v = silentcert_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("shards_up").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("shards_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);
    }
}
