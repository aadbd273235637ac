//! # gaps-serve
//!
//! A long-running scheduling service over the `gaps-engine` pipeline:
//! the ROADMAP's production-shaped surface, and the substrate the
//! online-arrivals follow-on (Chen–Kao–Lee–Rutter–Wagner-style
//! competitive tracking) needs — a continuously running engine instead
//! of a batch lifetime.
//!
//! Clients speak the line-delimited TCP protocol of [`protocol`]
//! (`REQ`/`RES` with client-chosen correlation ids, plus
//! `PING`/`STATS`/`DRAIN` control verbs and the `SESSION
//! begin/arrive/step/end` online-session family). Every request flows
//! through the same `canonicalize → cache → route → solve` loop as
//! `gaps batch` ([`gaps_engine::Engine::solve_request`]), so a serve
//! round-trip is bit-identical to the batch result line for the same
//! instance — and an online session drives the same
//! [`gaps_engine::OnlineTracker`] as `gaps batch --replay-online`, so
//! its ratio line is bit-identical too.
//!
//! The solve pool is *elastic*: [`ServeConfig::threads`] core workers
//! are always running, and under queue pressure the pool grows up to
//! [`ServeConfig::max_threads`], shedding the extra workers again once
//! they sit idle.
//!
//! Operationally the daemon is built around three pressure valves:
//!
//! * **Backpressure** — admission goes through a bounded
//!   [`gaps_engine::pool::TaskPool`] queue via a non-blocking submit; a
//!   full queue answers `BUSY <id>` immediately instead of stalling
//!   the connection.
//! * **Overload shedding** — an instance whose job count exceeds
//!   [`ServeConfig::shed_jobs`], or any instance arriving while the
//!   queue is at least [`ServeConfig::shed_depth`] deep, is solved with
//!   the degraded router ([`gaps_engine::RouterConfig::shed`]): the
//!   approximate chain answers in polynomial time and the result is
//!   not cached.
//! * **Graceful drain** — SIGTERM, SIGINT, or a `DRAIN` frame stops
//!   accepting, finishes every queued and in-flight request (their
//!   `RES` lines are flushed), closes connections, and returns the
//!   final [`MetricsSnapshot`].
//!
//! Live metrics come from the engine-lifetime
//! [`gaps_engine::MetricsRegistry`], snapshotted by `STATS` and by an
//! optional stderr report ticker.

pub mod protocol;
mod session;
pub mod signal;

use gaps_engine::pool::{self, TaskPool};
use gaps_engine::{Engine, EngineConfig, MetricsSnapshot, Objective};
use parking_lot::Mutex;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
// Wall-clock reads are legal here: `crates/serve` is on the analyzer's
// determinism-rule allowlist (the daemon's tickers and uptime are
// clock consumers by design; solve results never depend on them).
use std::time::{Duration, Instant};

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// Core solve-pool worker threads (always running).
    pub threads: usize,
    /// Elastic solve-pool ceiling: under queue pressure the pool grows
    /// up to this many workers, and the extras retire after
    /// [`gaps_engine::pool::DEFAULT_IDLE_TIMEOUT`] idle. Clamped up to
    /// `threads` (a ceiling below the core count means "fixed pool").
    pub max_threads: usize,
    /// Bounded admission-queue capacity; a full queue answers `BUSY`.
    pub queue_capacity: usize,
    /// Maximum simultaneously served connections, each read by its own
    /// thread; one more is answered `ERR - connection limit reached`.
    pub max_conns: usize,
    /// Objective every request is solved under.
    pub objective: Objective,
    /// Shed any instance with more jobs than this (default: never).
    pub shed_jobs: usize,
    /// Shed every instance admitted while the queue is at least this
    /// deep (default: never).
    pub shed_depth: u64,
    /// Print a metrics snapshot to stderr this often (default: off).
    pub report_interval: Option<Duration>,
    /// Engine (cache + router) configuration. Its `threads` field is
    /// replaced by [`ServeConfig::threads`], which `Engine::new` also
    /// hands to an "inherit" (0) router `multi_exact_threads`.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:7477".to_string(),
            threads: 4,
            max_threads: 4,
            queue_capacity: 256,
            max_conns: 32,
            objective: Objective::Gaps,
            shed_jobs: usize::MAX,
            shed_depth: u64::MAX,
            report_interval: None,
            engine: EngineConfig::default(),
        }
    }
}

/// State shared between the accept loop, connection readers, and
/// solve-pool workers.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) pool: TaskPool,
    pub(crate) objective: Objective,
    /// Bind time, for the `uptime_s` stat and report-ticker prefix.
    pub(crate) started: Instant,
    shed_jobs: usize,
    shed_depth: u64,
    draining: AtomicBool,
    /// Live connections: registered on accept, removed when their reader
    /// ends. Its length is the count `max_conns` caps, and drain shuts
    /// each socket down under its blocked reader.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    /// True once shutdown has been requested by any path (`DRAIN`
    /// frame, SIGTERM/SIGINT).
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(SeqCst) || signal::termination_requested()
    }

    pub(crate) fn request_drain(&self) {
        self.draining.store(true, SeqCst);
    }

    pub(crate) fn should_shed(&self, jobs: usize) -> bool {
        jobs > self.shed_jobs || self.pool.queued() >= self.shed_depth
    }

    /// Remove a connection from the registry and hand back its handle.
    pub(crate) fn unregister_conn(&self, conn_id: u64) -> Option<TcpStream> {
        let mut conns = self.conns.lock();
        let at = conns.iter().position(|(id, _)| *id == conn_id)?;
        Some(conns.swap_remove(at).1)
    }
}

/// A bound-but-not-yet-running daemon. Splitting bind from run lets
/// callers (the CLI, tests) learn the actual listen address — port 0
/// resolves at bind time — before the accept loop takes the thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    max_conns: usize,
    report_interval: Option<Duration>,
}

impl Server {
    /// Bind the listen socket and assemble the engine + pools.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
        let shared = Arc::new(Shared {
            engine: Engine::new(EngineConfig {
                threads: config.threads,
                ..config.engine.clone()
            }),
            pool: TaskPool::elastic(
                config.threads,
                config.max_threads.max(config.threads),
                config.queue_capacity,
                pool::DEFAULT_IDLE_TIMEOUT,
            ),
            objective: config.objective,
            started: Instant::now(),
            shed_jobs: config.shed_jobs,
            shed_depth: config.shed_depth,
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        Ok(Server {
            listener,
            shared,
            max_conns: config.max_conns.max(1),
            report_interval: config.report_interval,
        })
    }

    /// The address actually bound (resolves a `:0` request).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))
    }

    /// Run the accept loop until drain is requested, then shut down
    /// gracefully: finish queued and in-flight requests, flush their
    /// responses, close every connection, and return the final metrics
    /// snapshot.
    pub fn run(self) -> Result<MetricsSnapshot, String> {
        signal::install();
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;
        let ticker = self.report_interval.map(|interval| {
            let shared = Arc::clone(&self.shared);
            pool::background("report-ticker", move || {
                let step = Duration::from_millis(100);
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if shared.draining() {
                            return;
                        }
                        let chunk = step.min(interval - slept);
                        std::thread::sleep(chunk);
                        slept += chunk;
                    }
                    let metrics = shared.engine.metrics();
                    metrics.set_queue_depth(shared.pool.queued());
                    metrics.set_pool_workers(shared.pool.workers());
                    eprintln!(
                        "serve: up={}s {}",
                        shared.started.elapsed().as_secs(),
                        shared.engine.metrics().snapshot()
                    );
                }
            })
        });
        let ticker = ticker
            .transpose()
            .map_err(|e| format!("cannot start the report ticker: {e}"))?;

        // One reader thread per live connection, started on accept and
        // ended with its connection: an idle daemon runs no readers.
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn_id = 0u64;
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // A finished reader has left the registry (and the
                    // panic hook has reported it if it panicked).
                    readers.retain(|reader| !reader.is_finished());
                    if self.shared.conns.lock().len() >= self.max_conns {
                        refuse_connection(&stream, "connection limit reached");
                        continue;
                    }
                    // Blocking reads (the socket may inherit the
                    // listener's non-blocking mode); each reply sent as
                    // soon as it is written, not held by Nagle's
                    // algorithm until the client acknowledges the one
                    // before (DESIGN.md §11.5); a read half for the
                    // reader; and a clone in the registry, so drain can
                    // shut the socket down under a blocked reader.
                    let halves = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true))
                        .and_then(|()| Ok((stream.try_clone()?, stream.try_clone()?)));
                    let (read_half, registered) = match halves {
                        Ok(halves) => halves,
                        Err(e) => {
                            refuse_connection(&stream, &format!("cannot serve connection: {e}"));
                            continue;
                        }
                    };
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    self.shared.conns.lock().push((conn_id, registered));
                    let shared = Arc::clone(&self.shared);
                    let reader = pool::background(&format!("conn-{conn_id}"), move || {
                        session::serve_connection(shared, conn_id, read_half, stream)
                    });
                    match reader {
                        Ok(reader) => readers.push(reader),
                        Err(e) => {
                            // The unrun closure closed its stream; the
                            // registered clone still reaches the client.
                            if let Some(stream) = self.shared.unregister_conn(conn_id) {
                                refuse_connection(
                                    &stream,
                                    &format!("cannot serve connection: {e}"),
                                );
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Drain sequence. Order matters: finish solving (their `RES`
        // lines need live sockets) before closing connections.
        self.shared.pool.shutdown();
        for (_, stream) in self.shared.conns.lock().iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in readers.into_iter().chain(ticker) {
            let _ = handle.join();
        }
        self.shared.engine.metrics().set_queue_depth(0);
        Ok(self.shared.engine.metrics().snapshot())
    }
}

/// How long, in milliseconds, the accept loop waits for a connection
/// before it re-checks the drain flag. A connection ends the wait at
/// once, so this bounds only how long a drained daemon takes to exit.
/// Keep it short: a daemon that lingers leaves the CPU idle long enough
/// that the next process to start runs measurably slower.
const DRAIN_CHECK_MS: c_int = 5;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN` from `<poll.h>`: data (here, a pending connection) to read.
const POLLIN: c_short = 0x001;

// SAFETY: `poll(2)` is in every POSIX C library with exactly this shape
// (`nfds_t` is `unsigned long` on Linux, the target of this workspace).
extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until `listener` has a connection to accept, [`DRAIN_CHECK_MS`]
/// pass, or a signal interrupts the wait; the caller retries `accept`
/// either way, so every outcome of `poll` is handled by ignoring it.
fn wait_for_connection(listener: &TcpListener) {
    let mut entry = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `entry` is one valid, exclusively borrowed `pollfd` and the
    // count passed is 1; the borrowed listener keeps the descriptor open
    // for the whole call.
    let _ = unsafe { poll(&mut entry, 1, DRAIN_CHECK_MS) };
}

/// Tell a client why its connection is being dropped. Best-effort.
fn refuse_connection(mut stream: &TcpStream, reason: &str) {
    let _ = stream.write_all(format!("ERR - {reason}\n").as_bytes());
}

/// Bind and run in one call — the CLI entry point.
pub fn run(config: ServeConfig) -> Result<MetricsSnapshot, String> {
    Server::bind(config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_never_shed() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.shed_jobs, usize::MAX);
        assert_eq!(cfg.shed_depth, u64::MAX);
        assert!(cfg.report_interval.is_none());
    }

    #[test]
    fn bind_resolves_port_zero_and_drain_flag_round_trips() {
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("addr");
        assert_ne!(addr.port(), 0);
        assert!(!server.shared.draining());
        server.shared.request_drain();
        assert!(server.shared.draining());
    }

    #[test]
    fn shed_policy_keys_on_jobs_and_queue_depth() {
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            shed_jobs: 8,
            shed_depth: 1_000,
            ..ServeConfig::default()
        })
        .expect("bind");
        assert!(!server.shared.should_shed(8));
        assert!(server.shared.should_shed(9));
        // Empty queue (depth 0) < 1000, so depth alone does not shed.
        assert!(!server.shared.should_shed(1));
    }

    #[test]
    fn accepted_streams_send_replies_without_nagle_delay() {
        use std::io::{BufRead, BufReader};
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            threads: 1,
            max_threads: 1,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let daemon = pool::background("test-daemon", move || {
            server.run().expect("daemon exits cleanly");
        })
        .expect("spawn daemon thread");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"PING\n").expect("send PING");
        let mut reply = String::new();
        BufReader::new(&client)
            .read_line(&mut reply)
            .expect("read PONG");
        assert_eq!(reply, "PONG\n");
        // The reply proves the connection was admitted, and the registered
        // clone shares the accepted socket's options.
        let nodelay: Vec<bool> = shared
            .conns
            .lock()
            .iter()
            .map(|(_, stream)| stream.nodelay().expect("read TCP_NODELAY"))
            .collect();
        assert_eq!(nodelay, [true]);
        shared.request_drain();
        daemon.join().expect("daemon thread joins");
        assert!(shared.conns.lock().is_empty(), "drain joins every reader");
    }

    #[test]
    fn bad_listen_address_is_a_clean_error() {
        let err = match Server::bind(ServeConfig {
            listen: "not-an-address".to_string(),
            ..ServeConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("binding a junk address must fail"),
        };
        assert!(err.contains("cannot bind"), "{err}");
    }
}
