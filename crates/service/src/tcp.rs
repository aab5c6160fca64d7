//! Line-delimited JSON over TCP: the service's network transport.
//!
//! One request per line, one response per line, both the externally
//! tagged JSON encodings of [`Request`] / [`Response`]. The transport is
//! a thin shell around the in-process [`Client`]: every connection gets a
//! thread that parses lines, forwards them through `Client::call`, and
//! writes the answer back — so batching, caching, backpressure, and
//! draining all behave identically across transports. A full queue
//! produces a `busy` *line*, never a stalled or reset connection.
//! Connection threads are scoped to the accept thread, so a closed
//! connection's thread and stack are released when it ends, not at
//! shutdown.
//!
//! The client side honours that backpressure: [`TcpClient::call`]
//! retries `busy` answers under a [`RetryPolicy`] — jittered exponential
//! backoff seeded per connection, never below the server's
//! `retry_after_hint_ms`, with a bounded retry budget. Use
//! [`TcpClient::call_once`] to see raw `busy` responses.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::Rng;

use mcs_num::rng;

use crate::server::Client;
use crate::wire::{decode_request, decode_response, Request, Response};

/// How often blocked I/O loops re-check the stop flag.
const POLL: Duration = Duration::from_millis(50);

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
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("mcs-service-accept".to_string())
            .spawn(move || {
                std::thread::scope(|scope| {
                    while !stop_accept.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let (client, stop) = (&client, &*stop_accept);
                                // A failed spawn drops (closes) the stream.
                                let _ = std::thread::Builder::new()
                                    .name("mcs-service-conn".to_string())
                                    .spawn_scoped(scope, move || {
                                        serve_connection(stream, client, stop);
                                    });
                            }
                            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL);
                            }
                            Err(_) => break,
                        }
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
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client hung up.
            Ok(_) => {
                // The checked decode rejects non-finite numbers and
                // duplicate keys before typed deserialization, and
                // instances the builder would refuse after it, so no
                // request built from an unsound document reaches the
                // service (or its digest-keyed cache).
                let response = match decode_request(line.trim()) {
                    Ok(request) => client.call(request),
                    Err(err) => Response::Error {
                        message: format!("malformed request: {err}"),
                    },
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

fn write_line<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    let json = serde_json::to_string(response)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
    writer.write_all(json.as_bytes())?;
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
        let json = serde_json::to_string(request)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        self.writer.write_all(json.as_bytes())?;
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
