//! The one line-protocol client: every newline-framed exchange the
//! workspace makes as a client goes through this module.
//!
//! * [`LineConn`] (Linux) is a nonblocking connection for readiness
//!   loops on [`epoll`](crate::epoll): it owns the unflushed output
//!   (compacting a partially written prefix), splits input into lines,
//!   and reports the interest mask it needs. The scatter client and the
//!   load engine drive it.
//! * [`round_trip`] is the blocking one-line exchange: connect, send one
//!   line, read one line, each bounded by a deadline. A missed deadline
//!   is always [`ErrorKind::TimedOut`] and a close before the reply is
//!   always [`ErrorKind::UnexpectedEof`], so callers can tell a stalled
//!   peer from a gone one (the router's hedge/retry split).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One blocking request/response exchange: connect to `addr` within
/// `connect_timeout`, send `line` (a `\n` is appended if missing), and
/// read one response line within `io_timeout` of the send. Returns the
/// line without its terminator.
///
/// # Errors
///
/// A missed deadline, connect or read, is `TimedOut`; a close before a
/// complete line is `UnexpectedEof`; anything else is the socket error.
pub fn round_trip(
    addr: &str,
    line: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> io::Result<String> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
    stream.set_nodelay(true)?;
    let deadline = Instant::now() + io_timeout;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    if frame.last() != Some(&b'\n') {
        frame.push(b'\n');
    }
    stream.write_all(&frame).map_err(timed_out)?;

    let mut resp = Vec::new();
    let mut chunk = [0u8; 8 * 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(timed_out(e)),
        };
        let scanned = resp.len();
        resp.extend_from_slice(&chunk[..n]);
        if let Some(pos) = resp[scanned..].iter().position(|&b| b == b'\n') {
            resp.truncate(scanned + pos);
            if resp.last() == Some(&b'\r') {
                resp.pop();
            }
            return String::from_utf8(resp).map_err(|e| io::Error::new(ErrorKind::InvalidData, e));
        }
    }
}

/// A socket timeout surfaces as `WouldBlock` on Unix and `TimedOut`
/// elsewhere; callers see `TimedOut` either way.
fn timed_out(e: io::Error) -> io::Error {
    if e.kind() == ErrorKind::WouldBlock {
        ErrorKind::TimedOut.into()
    } else {
        e
    }
}

#[cfg(target_os = "linux")]
pub use conn::LineConn;

#[cfg(target_os = "linux")]
mod conn {
    use crate::epoll::{Poller, EPOLLIN, EPOLLOUT};
    use std::io::{self, ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::time::Duration;

    /// A flushed prefix at least this long is cut from the output
    /// buffer even while a tail is still unwritten, so a connection
    /// that is always a little behind does not grow without bound.
    const COMPACT_AT: usize = 64 * 1024;

    /// A nonblocking, newline-framed client connection.
    pub struct LineConn {
        stream: TcpStream,
        /// Queued output; `out[..out_pos]` is already written.
        out: Vec<u8>,
        out_pos: usize,
        /// Received input; `inbuf[..head]` is consumed, and
        /// `inbuf[head..scanned]` holds no newline.
        inbuf: Vec<u8>,
        head: usize,
        scanned: usize,
        eof: bool,
        /// Interest currently registered with the poller.
        registered: u32,
    }

    impl LineConn {
        /// Connect (blocking), then switch to nonblocking with Nagle off.
        pub fn connect(addr: &str) -> io::Result<LineConn> {
            LineConn::new(TcpStream::connect(addr)?)
        }

        /// [`LineConn::connect`] with a bound on the connect itself.
        pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<LineConn> {
            LineConn::new(TcpStream::connect_timeout(addr, timeout)?)
        }

        fn new(stream: TcpStream) -> io::Result<LineConn> {
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(LineConn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                head: 0,
                scanned: 0,
                eof: false,
                registered: 0,
            })
        }

        /// Queue raw bytes for the next [`flush`](LineConn::flush).
        pub fn queue(&mut self, bytes: &[u8]) {
            self.out.extend_from_slice(bytes);
        }

        /// Queue one line, appending the `\n` if `line` lacks it.
        pub fn queue_line(&mut self, line: &[u8]) {
            self.out.extend_from_slice(line);
            if line.last() != Some(&b'\n') {
                self.out.push(b'\n');
            }
        }

        /// Bytes queued but not yet accepted by the socket.
        pub fn unflushed(&self) -> usize {
            self.out.len() - self.out_pos
        }

        /// Write as much queued output as the socket takes now.
        ///
        /// # Errors
        ///
        /// Any socket error other than `WouldBlock`; the connection is
        /// then unusable for writing.
        pub fn flush(&mut self) -> io::Result<()> {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if self.out_pos == self.out.len() {
                self.out.clear();
                self.out_pos = 0;
            } else if self.out_pos >= COMPACT_AT {
                self.out.drain(..self.out_pos);
                self.out_pos = 0;
            }
            Ok(())
        }

        /// Read everything the socket has now. A peer close sets
        /// [`at_eof`](LineConn::at_eof); lines received before an error
        /// stay available to [`next_line`](LineConn::next_line).
        ///
        /// # Errors
        ///
        /// Any socket error other than `WouldBlock`.
        pub fn fill(&mut self) -> io::Result<()> {
            if self.head > 0 {
                self.inbuf.drain(..self.head);
                self.scanned -= self.head;
                self.head = 0;
            }
            let mut chunk = [0u8; 8 * 1024];
            while !self.eof {
                match self.stream.read(&mut chunk) {
                    Ok(0) => self.eof = true,
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        }

        /// The next complete received line, without its `\n` (or `\r\n`).
        pub fn next_line(&mut self) -> Option<&[u8]> {
            let pos = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n');
            let Some(pos) = pos else {
                self.scanned = self.inbuf.len();
                return None;
            };
            let start = self.head;
            let mut end = self.scanned + pos;
            self.head = end + 1;
            self.scanned = self.head;
            if end > start && self.inbuf[end - 1] == b'\r' {
                end -= 1;
            }
            Some(&self.inbuf[start..end])
        }

        /// The peer closed its side; no further input will arrive.
        pub fn at_eof(&self) -> bool {
            self.eof
        }

        /// The epoll interest this connection needs: readable while the
        /// caller awaits lines and the peer is open, writable while
        /// output is queued.
        pub fn interest(&self, want_lines: bool) -> u32 {
            let mut want = 0;
            if want_lines && !self.eof {
                want |= EPOLLIN;
            }
            if self.unflushed() > 0 {
                want |= EPOLLOUT;
            }
            want
        }

        /// Register with `poller` under `token` for the interest needed now.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` failure.
        pub fn register(
            &mut self,
            poller: &Poller,
            token: u64,
            want_lines: bool,
        ) -> io::Result<()> {
            let want = self.interest(want_lines);
            poller.add(self.fd(), want, token)?;
            self.registered = want;
            Ok(())
        }

        /// Bring an existing registration in step with the interest
        /// needed now; a no-op when it already is.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` failure.
        pub fn reregister(
            &mut self,
            poller: &Poller,
            token: u64,
            want_lines: bool,
        ) -> io::Result<()> {
            let want = self.interest(want_lines);
            if want != self.registered {
                poller.modify(self.fd(), want, token)?;
                self.registered = want;
            }
            Ok(())
        }

        /// Remove the registration (before the connection is dropped).
        pub fn deregister(&self, poller: &Poller) {
            let _ = poller.delete(self.fd());
        }

        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::net::TcpListener;

        /// A connected pair: the `LineConn` and the peer's blocking end.
        fn pair() -> (LineConn, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let conn = LineConn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
            let (peer, _) = listener.accept().unwrap();
            (conn, peer)
        }

        /// Poll `fill` until `done` holds (the peer's bytes may take a
        /// moment to arrive on the nonblocking side).
        fn fill_until(conn: &mut LineConn, done: impl Fn(&LineConn) -> bool) {
            for _ in 0..500 {
                conn.fill().unwrap();
                if done(conn) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("peer bytes never arrived");
        }

        #[test]
        fn partial_write_keeps_the_tail_and_asks_for_writable() {
            let (mut conn, mut peer) = pair();
            // Far more than the socket buffers hold while the peer is
            // not reading, so the first flush is partial.
            let payload: Vec<u8> = (0..16u32 << 20).map(|i| (i % 251) as u8).collect();
            conn.queue(&payload);
            conn.flush().unwrap();
            let left = conn.unflushed();
            assert!(left > 0 && left < payload.len(), "flush was not partial");
            assert_eq!(conn.interest(false), EPOLLOUT);
            assert_eq!(conn.interest(true), EPOLLIN | EPOLLOUT);

            let reader = std::thread::spawn(move || {
                let mut got = vec![0u8; payload.len()];
                peer.read_exact(&mut got).unwrap();
                assert!(got == payload, "peer saw reordered or lost bytes");
            });
            while conn.unflushed() > 0 {
                conn.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            reader.join().unwrap();
            assert_eq!(conn.interest(false), 0);
        }

        #[test]
        fn a_line_split_across_two_reads_is_one_line() {
            let (mut conn, mut peer) = pair();
            peer.write_all(b"{\"code\":").unwrap();
            fill_until(&mut conn, |c| c.inbuf.len() == 8);
            assert_eq!(conn.next_line(), None);
            peer.write_all(b"200}\r\n").unwrap();
            fill_until(&mut conn, |c| c.inbuf.len() > 8);
            assert_eq!(conn.next_line(), Some(&b"{\"code\":200}"[..]));
            assert_eq!(conn.next_line(), None);
        }

        #[test]
        fn several_lines_in_one_read_come_out_in_order() {
            let (mut conn, mut peer) = pair();
            peer.write_all(b"one\ntwo\n\nthree\n").unwrap();
            fill_until(&mut conn, |c| c.inbuf.len() == 15);
            assert_eq!(conn.next_line(), Some(&b"one"[..]));
            assert_eq!(conn.next_line(), Some(&b"two"[..]));
            assert_eq!(conn.next_line(), Some(&b""[..]));
            assert_eq!(conn.next_line(), Some(&b"three"[..]));
            assert_eq!(conn.next_line(), None);
            // Consumed lines are compacted away on the next fill.
            conn.fill().unwrap();
            assert!(conn.inbuf.is_empty());
        }

        #[test]
        fn eof_mid_line_yields_only_the_complete_lines() {
            let (mut conn, mut peer) = pair();
            peer.write_all(b"whole\nhal").unwrap();
            drop(peer);
            fill_until(&mut conn, LineConn::at_eof);
            assert_eq!(conn.next_line(), Some(&b"whole"[..]));
            assert_eq!(conn.next_line(), None);
            assert_eq!(conn.interest(true), 0, "a closed peer needs no interest");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    const SHORT: Duration = Duration::from_millis(200);

    #[test]
    fn round_trip_returns_the_reply_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            (&stream).write_all(line.to_uppercase().as_bytes()).unwrap();
        });
        let reply = round_trip(&addr, "ping", SHORT, Duration::from_secs(5)).unwrap();
        assert_eq!(reply, "PING");
    }

    #[test]
    fn a_silent_peer_is_timed_out() {
        // Bound but never accepted: the kernel completes the handshake,
        // nobody answers.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap().to_string();
        let started = Instant::now();
        let err = round_trip(&addr, "ping", SHORT, SHORT).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_refused_port_is_not_a_timeout() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = round_trip(&addr, "ping", SHORT, SHORT).unwrap_err();
        assert_ne!(err.kind(), ErrorKind::TimedOut, "{err}");
    }

    #[test]
    fn a_close_without_reply_is_unexpected_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        });
        let err = round_trip(&addr, "ping", SHORT, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    }
}
