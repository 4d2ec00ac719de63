//! Fleet observability: one snapshot for the whole cluster.
//!
//! Each shard keeps its own metrics registry; the cluster does not
//! share memory with its children. The fleet scraper turns that into
//! one coherent view by running a `stats` round trip against every Up
//! shard and re-emitting each flat numeric field as a labeled series:
//! `silentcert_fleet_<field>{shard="i"}`. Merged with the supervisor's
//! lifecycle counters and the router's own registry, the `metrics` verb
//! on the router exposes the entire fleet from a single scrape point —
//! restarts, ejections, per-shard served/shed counts, ring size — in
//! both JSON and Prometheus text exposition.

use crate::directory::Directory;
use silentcert_obs::metrics::Snapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One shard's `stats` reply as flat numeric fields.
fn scrape_one(addr: &str, timeout: Duration) -> Option<Vec<(String, f64)>> {
    let sock = addr.parse::<std::net::SocketAddr>().ok()?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    stream
        .write_all(b"{\"op\":\"stats\",\"id\":\"fleet\"}\n")
        .ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let v = silentcert_obs::json::parse(&line).ok()?;
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
/// gauge per shard (1 answered, 0 did not).
pub fn scrape_into(snap: &mut Snapshot, directory: &Directory, timeout_ms: u64) {
    let timeout = Duration::from_millis(timeout_ms.max(1));
    for (id, addr) in directory.up_shards() {
        match scrape_one(&addr, timeout) {
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
