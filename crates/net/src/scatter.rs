//! Scatter/gather one-line requests: the fleet's scrape client
//! (DESIGN.md §16).
//!
//! Every scrape round sends one newline-delimited request to every
//! shard and wants every response within one deadline. Doing that with
//! one blocking round trip per shard makes the round's latency the
//! *sum* of shard latencies — and one stalled shard starves the whole
//! round. This client multiplexes all the round's connections as
//! [`LineConn`](crate::client::LineConn)s on one
//! [`epoll`](crate::epoll) poller: connects are sequential (cheap on a
//! LAN, bounded by the remaining deadline each), then a single poll
//! loop drives every write + read concurrently until each connection
//! has produced one response line or the deadline expires.
//!
//! Off Linux, and where epoll is unavailable, the round degrades to
//! sequential [`round_trip`](crate::client::round_trip)s sharing the
//! same deadline.

use std::time::{Duration, Instant};

/// One request in a scatter round: connect to `addr`, send `line`
/// (a `\n` is appended if missing), read one response line.
#[derive(Debug, Clone)]
pub struct ScatterTarget {
    pub addr: String,
    pub line: String,
}

/// Execute one scatter round. Returns one slot per target, in input
/// order: the response line (without the trailing newline) or `None`
/// on connect failure, transport error, or deadline expiry.
pub fn scatter_lines(targets: &[ScatterTarget], timeout_ms: u64) -> Vec<Option<String>> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms.max(1));
    #[cfg(target_os = "linux")]
    if let Ok(poller) = crate::epoll::Poller::new() {
        return multiplexed(poller, targets, deadline);
    }
    sequential(targets, deadline)
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

#[cfg(target_os = "linux")]
fn multiplexed(
    mut poller: crate::epoll::Poller,
    targets: &[ScatterTarget],
    deadline: Instant,
) -> Vec<Option<String>> {
    use crate::client::LineConn;

    let mut results: Vec<Option<String>> = vec![None; targets.len()];
    let mut conns: Vec<Option<LineConn>> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let budget = remaining(deadline);
            if budget.is_zero() {
                return None;
            }
            let mut conn = LineConn::connect_timeout(&t.addr.parse().ok()?, budget).ok()?;
            conn.queue_line(t.line.as_bytes());
            conn.register(&poller, i as u64, true).ok()?;
            Some(conn)
        })
        .collect();
    let mut open = conns.iter().flatten().count();
    let mut events = Vec::new();
    while open > 0 {
        let budget = remaining(deadline);
        if budget.is_zero() {
            break;
        }
        let timeout = i32::try_from(budget.as_millis().max(1)).unwrap_or(i32::MAX);
        events.clear(); // wait() appends; stale events must not replay
        if poller.wait(&mut events, timeout).is_err() {
            break;
        }
        for ev in &events {
            let i = ev.token as usize;
            let Some(conn) = conns.get_mut(i).and_then(Option::as_mut) else {
                continue;
            };
            let io = conn.flush().and_then(|()| conn.fill());
            let done = if let Some(line) = conn.next_line() {
                results[i] = String::from_utf8(line.to_vec()).ok();
                true
            } else {
                io.is_err() || conn.at_eof() || conn.reregister(&poller, i as u64, true).is_err()
            };
            if done {
                conn.deregister(&poller);
                conns[i] = None;
                open -= 1;
            }
        }
    }
    results
}

/// One blocking round trip per target, all under the round's deadline.
fn sequential(targets: &[ScatterTarget], deadline: Instant) -> Vec<Option<String>> {
    targets
        .iter()
        .map(|t| {
            let budget = remaining(deadline);
            if budget.is_zero() {
                return None;
            }
            crate::client::round_trip(&t.addr, &t.line, budget, budget).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// An echo server answering one uppercased line per connection.
    fn echo_server(conns: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    if reader.read_line(&mut line).is_ok() {
                        let mut stream = stream;
                        let _ = stream.write_all(line.to_uppercase().as_bytes());
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn scatters_and_gathers_in_input_order() {
        let addr = echo_server(3);
        let targets: Vec<ScatterTarget> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|s| ScatterTarget {
                addr: addr.clone(),
                line: (*s).to_string(),
            })
            .collect();
        let results = scatter_lines(&targets, 5_000);
        assert_eq!(
            results,
            vec![
                Some("ALPHA".to_string()),
                Some("BETA".to_string()),
                Some("GAMMA".to_string())
            ]
        );
    }

    #[test]
    fn dead_targets_yield_none_without_failing_the_round() {
        let addr = echo_server(1);
        // A bound-but-unserved port: connect succeeds, no response.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent_addr = silent.local_addr().unwrap().to_string();
        let targets = vec![
            ScatterTarget {
                addr: addr.clone(),
                line: "live".to_string(),
            },
            ScatterTarget {
                addr: silent_addr,
                line: "stalled".to_string(),
            },
            ScatterTarget {
                addr: "127.0.0.1:1".to_string(), // refused
                line: "dead".to_string(),
            },
        ];
        let start = std::time::Instant::now();
        let results = scatter_lines(&targets, 300);
        assert_eq!(results[0].as_deref(), Some("LIVE"));
        assert_eq!(results[1], None);
        assert_eq!(results[2], None);
        // The stalled target cost the deadline, not forever.
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }
}
