//! Line-delimited JSON over TCP: the service's network transport.
//!
//! One request per line, one response per line, both the internally
//! tagged JSON encodings of [`Request`] / [`Response`]. The transport is
//! a thin shell around the in-process [`Client`]: every connection gets a
//! thread that hands each line to `Client::call_line` (which decodes it
//! through the service's decode memo and forwards it as `Client::call`
//! would) and writes the answer back — so batching, caching,
//! backpressure, and draining all behave identically across transports.
//! A line that does not decode, invalid UTF-8 included, gets a
//! `malformed request` error line and the connection stays open. A full
//! queue produces a `busy` *line*, never a stalled or reset connection.
//! Connection threads are scoped to the accept thread, so a closed
//! connection's thread and stack are released when it ends, not at
//! shutdown. A request line may hold at most [`MAX_LINE_BYTES`]; a longer
//! one gets an `error` line and the connection is closed, so a peer that
//! never sends a newline cannot grow a buffer without bound. The accept
//! thread blocks in `accept`; shutdown wakes it by connecting to the
//! listener itself.
//!
//! The client side honours that backpressure: [`TcpClient::call`]
//! retries `busy` answers under a [`RetryPolicy`] — jittered exponential
//! backoff seeded per connection, never below the server's
//! `retry_after_hint_ms`, with a bounded retry budget. Use
//! [`TcpClient::call_once`] to see raw `busy` responses.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;

use mcs_num::rng;

use crate::server::Client;
use crate::wire::{decode_response, Request, Response, WireError};

/// How often a connection's blocked read re-checks the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// The longest request line the server reads, newline excluded: 64 MiB.
/// The largest Table I lines are ≈ 6 MB (Setting III, N = 1 400) and
/// ≈ 10 MB (Setting IV, K = 500).
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// How long a connection refused for an over-long line keeps discarding
/// what its peer still sends, at most.
const LINGER: Duration = Duration::from_secs(1);

/// A TCP front-end serving a [`Client`]'s service on a local socket.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or configuring the listener.
    pub fn bind<A: ToSocketAddrs>(client: Client, addr: A) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("mcs-service-accept".to_string())
            .spawn(move || {
                std::thread::scope(|scope| {
                    for stream in listener.incoming() {
                        // Shutdown sets the flag before its wake-up
                        // connection, so that connection always stops
                        // the loop here.
                        if stop_accept.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { break };
                        let (client, stop) = (&client, &*stop_accept);
                        // A failed spawn drops (closes) the stream.
                        let _ = std::thread::Builder::new()
                            .name("mcs-service-conn".to_string())
                            .spawn_scoped(scope, move || {
                                serve_connection(stream, client, stop);
                            });
                    }
                });
            })
            .expect("spawn accept thread");
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins every connection thread.
    /// In-flight requests still get their response line before the
    /// connection closes.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // Wake the blocked accept; an unspecified bind address is
            // reached through loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_connection(stream: TcpStream, client: &Client, stop: &AtomicBool) {
    // One small JSON line per response: without TCP_NODELAY, Nagle plus
    // delayed ACKs adds tens of milliseconds to every round trip.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match read_line_capped(&mut reader, &mut line) {
            Ok(LineRead::Eof) => break, // The client hung up.
            Ok(LineRead::TooLong) => {
                let refusal = Response::Error {
                    message: format!("malformed request: line longer than {MAX_LINE_BYTES} bytes"),
                };
                if write_line(&mut writer, &refusal).is_ok() {
                    linger(&mut reader, writer.get_ref(), stop);
                }
                break;
            }
            Ok(LineRead::Line) => {
                // The checked decode rejects non-finite numbers and
                // duplicate keys before typed deserialization, and
                // instances the builder would refuse after it, so no
                // request built from an unsound document reaches the
                // service (or its digest-keyed cache). A line that is not
                // UTF-8 is not JSON either, and is answered as such.
                let response = match std::str::from_utf8(&line) {
                    Ok(text) => client.call_line(text.trim()),
                    Err(err) => {
                        WireError::Syntax(format!("invalid UTF-8 at byte {}", err.valid_up_to()))
                            .answer()
                    }
                };
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                line.clear();
            }
            // Timeout while idle (or mid-line): whatever was read so far
            // stays in `line`; keep accumulating after the flag check.
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// What [`read_line_capped`] found.
enum LineRead {
    /// `line` holds a whole line: up to and including its newline, or up
    /// to the end of the stream.
    Line,
    /// The stream ended before this call read anything.
    Eof,
    /// The line has grown past [`MAX_LINE_BYTES`] without ending.
    TooLong,
}

/// `BufRead::read_line` with a length cap: appends to `line` until a
/// newline, the end of the stream, or more than [`MAX_LINE_BYTES`] bytes
/// before the newline. On an error (a read timeout included) the bytes
/// read so far stay in `line`, and the next call continues the line.
fn read_line_capped<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<LineRead> {
    // One byte past the cap: room for the newline of a line at the cap,
    // or for the first byte over it.
    let allowance = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
    let read = reader.by_ref().take(allowance).read_until(b'\n', line)?;
    Ok(if read == 0 {
        LineRead::Eof
    } else if line.last() != Some(&b'\n') && line.len() > MAX_LINE_BYTES {
        LineRead::TooLong
    } else {
        LineRead::Line
    })
}

/// Closes the sending side, then discards input until the peer hangs up,
/// goes quiet for a [`POLL`], or [`LINGER`] has passed. A socket closed
/// with unread input is reset, and a peer still writing the rest of an
/// over-long line would get that reset instead of the `error` line.
fn linger<R: BufRead>(reader: &mut R, stream: &TcpStream, stop: &AtomicBool) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        match reader.fill_buf() {
            Ok([]) | Err(_) => break,
            Ok(bytes) => {
                let n = bytes.len();
                reader.consume(n);
            }
        }
    }
}

fn write_line<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    let json = serde_json::to_vec(response)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
    writer.write_all(&json)?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// How a [`TcpClient`] backs off when the service answers `busy`.
///
/// Attempt `n` (0-based) sleeps
/// `max(hint, base_delay) · 2ⁿ + jitter` capped at `max_delay`, where
/// `hint` is the server's `retry_after_hint_ms` and `jitter` is uniform
/// in one `base_delay` — seeded per connection, so a thundering herd of
/// rejected clients decorrelates instead of retrying in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Busy retries before the `busy` answer is surfaced to the caller
    /// (0 disables retrying).
    pub max_retries: u32,
    /// Floor of the backoff; also the jitter range.
    pub base_delay: Duration,
    /// Hard cap on a single sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every `busy` is surfaced raw.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry `attempt` (0-based) of a request whose
    /// rejection carried `hint_ms`.
    fn delay<R: Rng>(&self, attempt: u32, hint_ms: u64, rng: &mut R) -> Duration {
        let base = self.base_delay.max(Duration::from_millis(hint_ms));
        let scaled = base.saturating_mul(1u32 << attempt.min(16));
        let jitter_us = if self.base_delay.is_zero() {
            0
        } else {
            rng.gen_range(0..self.base_delay.as_micros().max(1) as u64)
        };
        scaled
            .saturating_add(Duration::from_micros(jitter_us))
            .min(self.max_delay)
    }
}

/// A blocking TCP client speaking the line protocol.
///
/// One request/response at a time per connection; open several clients
/// for concurrency (the load generator does exactly that).
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    retry: RetryPolicy,
    backoff_rng: rand_chacha::ChaCha8Rng,
    busy_retries: u64,
}

impl TcpClient {
    /// Connects to a running [`TcpServer`] with the default
    /// [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpClient> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit retry policy.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, retry: RetryPolicy) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Seed the jitter stream from the connection's ephemeral port so
        // concurrent clients take different backoff paths without any
        // global randomness source.
        let port_entropy = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(1);
        let read_half = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            retry,
            backoff_rng: rng::derived(0xB0FF, port_entropy),
            busy_retries: 0,
        })
    }

    /// Busy answers retried (after a sleep) over this connection's
    /// lifetime.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Sends one request and blocks for its response line, retrying
    /// `busy` answers under the connection's [`RetryPolicy`]. A `busy`
    /// that survives the whole retry budget is returned as-is.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failures, a closed connection, or a
    /// response line that does not parse.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let response = self.call_once(request)?;
            let Response::Busy {
                retry_after_hint_ms,
            } = response
            else {
                return Ok(response);
            };
            if attempt >= self.retry.max_retries {
                return Ok(response);
            }
            let delay =
                self.retry
                    .clone()
                    .delay(attempt, retry_after_hint_ms, &mut self.backoff_rng);
            std::thread::sleep(delay);
            self.busy_retries += 1;
            attempt += 1;
        }
    }

    /// Sends one request without any busy retrying.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failures, a closed connection, or a
    /// response line that does not parse.
    pub fn call_once(&mut self, request: &Request) -> io::Result<Response> {
        let json = serde_json::to_vec(request)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        self.writer.write_all(&json)?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response arrived",
            ));
        }
        decode_response(line.trim())
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_honours_the_hint_and_caps() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(4),
            max_delay: Duration::from_millis(100),
        };
        let mut r = rng::seeded(1);
        let d0 = policy.delay(0, 0, &mut r);
        let d1 = policy.delay(1, 0, &mut r);
        let d2 = policy.delay(2, 0, &mut r);
        assert!(d0 >= Duration::from_millis(4));
        assert!(d1 >= Duration::from_millis(8));
        assert!(d2 >= Duration::from_millis(16));
        // The server's hint floors the base.
        assert!(policy.delay(0, 50, &mut r) >= Duration::from_millis(50));
        // The cap bounds everything, huge attempts included.
        assert_eq!(policy.delay(30, 1000, &mut r), Duration::from_millis(100));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_but_varies() {
        let policy = RetryPolicy::default();
        let mut a = rng::derived(0xB0FF, 1);
        let mut b = rng::derived(0xB0FF, 1);
        let mut c = rng::derived(0xB0FF, 2);
        assert_eq!(policy.delay(0, 0, &mut a), policy.delay(0, 0, &mut b));
        let same: Vec<Duration> = (0..8).map(|_| policy.delay(0, 0, &mut a)).collect();
        let other: Vec<Duration> = (0..8).map(|_| policy.delay(0, 0, &mut c)).collect();
        assert_ne!(same, other, "different streams should jitter apart");
    }
}
