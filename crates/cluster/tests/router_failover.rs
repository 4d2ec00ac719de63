//! Router failover drill, fully in-process: three real serve daemons
//! behind a router. Killing a shard must not cost clients a single
//! response — the router fails over to the ring successor — and the
//! per-connection retry budget must cap how much failover a client can
//! demand before the router starts refusing with `502`.

use silentcert_cluster::{Directory, Router, RouterConfig};
use silentcert_crypto::sha256;
use silentcert_serve::{server, ServeConfig};
use silentcert_validate::{TrustStore, Validator};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_shard() -> server::ServerHandle {
    let validator = Arc::new(Validator::new(TrustStore::from_roots(Vec::new())));
    server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        validator,
    )
    .expect("bind shard")
}

/// One frame round trip on a dedicated connection.
fn send_once(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("read");
    resp
}

fn code_of(resp: &str) -> u32 {
    silentcert_obs::json::parse(resp)
        .ok()
        .and_then(|v| v.get("code").and_then(|c| c.as_f64()))
        .map(|f| f as u32)
        .unwrap_or(0)
}

/// A classify frame whose DER payload is derived from `i`.
fn frame(i: u32) -> (String, Vec<u8>) {
    let der = format!("certificate-{i:04}").into_bytes();
    let hex = silentcert_crypto::hex(&der);
    (
        format!(r#"{{"op":"classify","id":"req{i}","cert":"{hex}"}}"#),
        der,
    )
}

#[test]
fn killing_a_shard_loses_no_responses() {
    let shards: Vec<_> = (0..3).map(|_| start_shard()).collect();
    let directory = Arc::new(Directory::new(64));
    for (i, handle) in shards.iter().enumerate() {
        directory.set_up(i as u32, &handle.addr().to_string(), 1);
    }
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");
    let raddr = router.addr().to_string();

    // Baseline: every request answers 200 through the router.
    for i in 0..30 {
        let (line, _) = frame(i);
        let resp = send_once(&raddr, &line);
        assert_eq!(code_of(&resp), 200, "request {i}: {resp}");
    }

    // Pick a key the dying shard owns, then kill that shard without
    // telling the directory — the router must discover the death on
    // its own and fail over to the ring successor.
    let (victim_line, victim_der) = frame(1000);
    let fp = sha256(&victim_der);
    let (victim_shard, _) = directory.route(&fp).expect("routable");
    let mut shards = shards;
    let victim = shards.remove(victim_shard as usize);
    victim.shutdown();
    let _ = victim.wait();

    let resp = send_once(&raddr, &victim_line);
    assert_eq!(code_of(&resp), 200, "failover must keep the answer: {resp}");
    let stats = send_once(&raddr, r#"{"op":"stats","id":"s"}"#);
    let v = silentcert_obs::json::parse(&stats).unwrap();
    let retries = v.get("retries").and_then(|x| x.as_f64()).unwrap_or(0.0);
    let hedges = v.get("hedges").and_then(|x| x.as_f64()).unwrap_or(0.0);
    assert!(
        retries + hedges >= 1.0,
        "failover must be accounted as a retry or hedge: {stats}"
    );

    router.drain();
    let summary = router.wait();
    assert!(summary.relayed >= 31, "{summary:?}");
    for handle in shards {
        handle.shutdown();
        let _ = handle.wait();
    }
}

#[test]
fn retry_budget_turns_failover_storms_into_502s() {
    // One live shard, one corpse the directory still routes to: every
    // request to the corpse needs a retry token.
    let live = start_shard();
    let corpse = start_shard();
    let corpse_addr = corpse.addr().to_string();
    corpse.shutdown();
    let _ = corpse.wait();

    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &live.addr().to_string(), 1);
    directory.set_up(1, &corpse_addr, 1);
    let router = Router::start(
        RouterConfig {
            retry_burst: 2.0,
            retry_ratio: 0.0,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");

    // Find keys owned by the corpse.
    let mut corpse_frames = Vec::new();
    let mut i = 0;
    while corpse_frames.len() < 4 {
        let (line, der) = frame(i);
        if directory.route(&sha256(&der)).map(|(s, _)| s) == Some(1) {
            corpse_frames.push(line);
        }
        i += 1;
    }

    // One connection, zero earn-back: two retries succeed on the
    // failover path, then the budget is dry and the router refuses.
    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut codes = Vec::new();
    for line in &corpse_frames {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        codes.push(code_of(&resp));
    }
    assert_eq!(
        codes,
        vec![200, 200, 502, 502],
        "burst of 2 buys exactly two failovers"
    );

    router.drain();
    let summary = router.wait();
    assert_eq!(summary.refused_budget, 2, "{summary:?}");
    assert_eq!(summary.retries, 2, "{summary:?}");
    live.shutdown();
    let _ = live.wait();
}
