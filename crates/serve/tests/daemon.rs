//! End-to-end daemon tests over a real TCP socket: batch parity,
//! malformed-input resilience, backpressure, shedding, stats, and
//! graceful drain.
//!
//! Each test binds an ephemeral port, runs the accept loop on a
//! background thread (via `gaps_engine::pool::background` — the
//! workspace's one sanctioned spawn point), and talks to it like a real
//! client.

use gaps_engine::pool;
use gaps_engine::{split_stream, Engine, EngineConfig, MetricsSnapshot, Objective};
use gaps_serve::protocol::{encode_payload, MAX_FRAME_BYTES};
use gaps_serve::{ServeConfig, Server};
use gaps_workloads::streams;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A running daemon plus the channel its final snapshot arrives on.
struct Daemon {
    addr: SocketAddr,
    done: crossbeam::channel::Receiver<Result<MetricsSnapshot, String>>,
}

fn start(config: ServeConfig) -> Daemon {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let (tx, done) = crossbeam::channel::unbounded();
    pool::background("test-daemon", move || {
        let _ = tx.send(server.run());
    });
    Daemon { addr, done }
}

impl Daemon {
    /// Wait for the accept loop to return its final metrics snapshot.
    fn finish(self) -> MetricsSnapshot {
        self.done
            .recv()
            .expect("daemon thread reports")
            .expect("daemon exits cleanly")
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone read half"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw bytes");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Read until `STATS end`, returning the `stat` rows as a map.
    fn recv_stats(&mut self) -> HashMap<String, String> {
        assert_eq!(self.recv(), "STATS v3");
        let mut rows = HashMap::new();
        loop {
            let line = self.recv();
            if line == "STATS end" {
                return rows;
            }
            let mut words = line.splitn(3, ' ');
            assert_eq!(words.next(), Some("stat"), "unexpected stats line {line:?}");
            let key = words.next().expect("stat key").to_string();
            let value = words.next().expect("stat value").to_string();
            rows.insert(key, value);
        }
    }
}

/// A distinct ~3.5ms instance: 16 jobs over a dense 90-slot pattern is
/// routed to the exponential-in-jobs `multi_exact` solver, so one of
/// these occupies a worker for ~1000× the cost of admitting a request —
/// which makes queue-full behaviour deterministic to provoke. `salt`
/// perturbs the slot pattern so repeated requests miss the cache.
fn heavy_instance_text(salt: usize) -> String {
    let mut out = String::from("multi v1\n");
    for job in 0..16 {
        out.push_str("job");
        for t in 0..90 {
            if (t + job + salt).is_multiple_of(2) {
                out.push_str(&format!(" {t}"));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn five_hundred_instances_bit_match_gaps_batch_at_one_and_four_threads() {
    let text = streams::mixed_stream(36);
    let chunks = streams::instance_chunks(&text);
    let instances = split_stream(&text).expect("stream parses");
    assert!(instances.len() >= 500, "want 500+, got {}", instances.len());
    let chunks = &chunks[..500];
    let engine = Engine::new(EngineConfig::default());
    let (expected, _) = engine.run_batch(&instances[..500], Objective::Gaps);

    for threads in [1usize, 4] {
        let daemon = start(ServeConfig {
            threads,
            queue_capacity: 64,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(daemon.addr);
        // Request in bounded bursts so neither the admission queue nor
        // the socket buffers are asked to hold the whole load at once.
        let mut bodies: HashMap<String, String> = HashMap::new();
        for (burst_no, burst) in chunks.chunks(50).enumerate() {
            for (offset, chunk) in burst.iter().enumerate() {
                let id = burst_no * 50 + offset;
                client.send(&format!("REQ i-{id} {}", encode_payload(chunk)));
            }
            for _ in burst {
                let line = client.recv();
                let mut words = line.splitn(3, ' ');
                assert_eq!(words.next(), Some("RES"), "unexpected reply {line:?}");
                let id = words.next().expect("id").to_string();
                let body = words.next().expect("body").to_string();
                assert!(bodies.insert(id, body).is_none(), "duplicate reply");
            }
        }
        for (index, expected_line) in expected.iter().enumerate() {
            let (_, expected_body) = expected_line.split_once(' ').expect("indexed line");
            assert_eq!(
                bodies.get(&format!("i-{index}")).map(String::as_str),
                Some(expected_body),
                "serve diverged from gaps batch at instance {index} (threads {threads})"
            );
        }
        client.send("DRAIN");
        assert_eq!(client.recv(), "DRAINING");
        let snapshot = daemon.finish();
        assert_eq!(snapshot.requests, 500);
        assert!(
            snapshot.cache_hits >= 20,
            "the stream's duplicate chunks should hit the cache: {snapshot}"
        );
        assert_eq!(snapshot.in_flight, 0, "{snapshot}");
    }
}

#[test]
fn malformed_input_corpus_is_answered_with_err_and_the_daemon_survives() {
    // One worker, so the duplicate-id probe below can park requests
    // behind slow blockers deterministically.
    let daemon = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);

    // Unknown verb.
    client.send("FROB x");
    assert!(client.recv().starts_with("ERR - unknown verb"));
    // Truncated REQ: verb alone, then id without payload.
    client.send("REQ");
    assert!(client.recv().starts_with("ERR - bad request id"));
    client.send("REQ trunc-1");
    assert!(client.recv().starts_with("ERR trunc-1 "));
    // Junk id.
    client.send("REQ b@d!id instance v1");
    assert!(client.recv().starts_with("ERR - bad request id"));
    // Payload that parses as no known instance format.
    client.send("REQ p-1 garbage v9;job 0 1");
    assert!(client.recv().starts_with("ERR p-1 "));
    // Payload with a malformed job line.
    client.send("REQ p-2 instance v1;processors 1;job zero two");
    assert!(client.recv().starts_with("ERR p-2 "));
    // Payload holding two instances where one is required.
    client.send("REQ p-3 instance v1;processors 1;job 0 1;instance v1;processors 1;job 0 1");
    let line = client.recv();
    assert!(
        line.starts_with("ERR p-3 ") && line.contains("exactly one"),
        "{line:?}"
    );
    // Oversized frame: consumed, reported, stream stays synchronized.
    let huge = format!("REQ big {}\n", "x".repeat(MAX_FRAME_BYTES + 10));
    client.send_raw(huge.as_bytes());
    assert!(client.recv().starts_with("ERR - frame exceeds"));
    // Invalid UTF-8.
    client.send_raw(b"REQ utf8 \xff\xfe instance\n");
    assert_eq!(client.recv(), "ERR - frame is not valid UTF-8");
    // Duplicate in-flight id: stack five slow blockers onto the single
    // worker, then send the same id twice back-to-back. The first copy
    // is parked in the queue behind ~17ms of blockers when the reader
    // (µs later) meets the second — which must be rejected.
    let mut burst = String::new();
    for i in 0..5 {
        burst.push_str(&format!(
            "REQ blk-{i} {}\n",
            encode_payload(&heavy_instance_text(i))
        ));
    }
    let heavy = encode_payload(&heavy_instance_text(7));
    burst.push_str(&format!("REQ dup {heavy}\nREQ dup {heavy}\n"));
    client.send_raw(burst.as_bytes());
    let mut res = 0;
    let mut dup_err = 0;
    for _ in 0..7 {
        let line = client.recv();
        if line.starts_with("ERR dup duplicate request id") {
            dup_err += 1;
        } else {
            assert!(line.starts_with("RES "), "{line:?}");
            res += 1;
        }
    }
    assert_eq!(
        (res, dup_err),
        (6, 1),
        "exactly one copy of the duplicate id is served"
    );
    // …but an id becomes reusable once its response has been sent.
    client.send(&format!("REQ dup {heavy}"));
    assert!(client.recv().starts_with("RES dup "), "cache-warm reuse");

    // After all that abuse the daemon still serves normally.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("REQ ok instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES ok one n=1 "));
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert!(
        snapshot.protocol_errors >= 10,
        "every corpus entry is counted: {snapshot}"
    );
}

#[test]
fn full_queue_answers_busy_instead_of_stalling() {
    let daemon = start(ServeConfig {
        threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // Flood 40 distinct slow requests in one write. With one worker
    // (~3.5ms per solve) and a one-slot queue, the reader admits at
    // most a couple before every subsequent submit sees a full queue.
    let mut flood = String::new();
    for i in 0..40 {
        flood.push_str(&format!(
            "REQ f-{i} {}\n",
            encode_payload(&heavy_instance_text(i))
        ));
    }
    client.send_raw(flood.as_bytes());
    let mut res = 0u64;
    let mut busy = 0u64;
    for _ in 0..40 {
        let line = client.recv();
        match line.split(' ').next() {
            Some("RES") => res += 1,
            Some("BUSY") => busy += 1,
            _ => panic!("unexpected reply under load: {line:?}"),
        }
    }
    assert_eq!(res + busy, 40);
    assert!(
        busy >= 1,
        "a one-slot queue under a 40-request flood must push back"
    );
    assert!(res >= 1, "admitted requests still complete");
    // Backpressure is per-request, not a wedge: the daemon keeps serving.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert_eq!(snapshot.rejected, busy, "{snapshot}");
    assert_eq!(snapshot.requests, res, "{snapshot}");
}

#[test]
fn shed_mode_degrades_oversized_instances_instead_of_refusing() {
    let daemon = start(ServeConfig {
        shed_jobs: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // 16 jobs > shed_jobs: served by the approximate chain, not the
    // exact solver the router would normally pick.
    client.send(&format!(
        "REQ big {}",
        encode_payload(&heavy_instance_text(1))
    ));
    let line = client.recv();
    assert!(line.starts_with("RES big multi n=16 "), "{line:?}");
    assert!(
        !line.contains("solver=multi_exact"),
        "shed requests must not reach the exact solver: {line:?}"
    );
    // A small instance on the same connection still gets full service.
    client.send("REQ small instance v1;processors 1;job 0 1");
    let line = client.recv();
    assert!(line.starts_with("RES small one n=1 gaps="), "{line:?}");
    client.send("STATS");
    let rows = client.recv_stats();
    assert_eq!(rows.get("requests").map(String::as_str), Some("2"));
    assert_eq!(rows.get("shed").map(String::as_str), Some("1"));
    assert!(rows.contains_key("uptime_s"), "{rows:?}");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    assert_eq!(daemon.finish().shed, 1);
}

#[test]
fn online_session_reports_tracker_ratio_and_stats_v2_rows() {
    let daemon = start(ServeConfig {
        threads: 2,
        max_threads: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    client.send("SESSION begin timeout 4");
    assert_eq!(client.recv(), "SESSION begun policy=timeout alpha=4");
    for (t, expect) in [
        (0, "SESSION t=1 state=awake online=5"),
        (2, "SESSION t=3 state=awake online=7"),
        (20, "SESSION t=21 state=awake online=16"),
    ] {
        client.send(&format!("SESSION arrive {t}"));
        assert_eq!(client.recv(), expect);
    }
    // Trailing idle: timeout(4) stays awake 4 slots then sleeps.
    client.send("SESSION step 6");
    assert_eq!(client.recv(), "SESSION t=27 state=asleep online=20");
    client.send("SESSION end");
    assert_eq!(
        client.recv(),
        "SESSION end policy=timeout alpha=4 jobs=3 online=20 offline=12 ratio=1.6667"
    );
    // Ordinary requests still work on the same connection, and the
    // STATS v3 rows carry the per-policy ratio and pool-worker gauges.
    client.send("REQ after instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES after one n=1 "));
    client.send("STATS");
    let rows = client.recv_stats();
    assert_eq!(
        rows.get("policy.timeout.sessions").map(String::as_str),
        Some("1")
    );
    assert_eq!(
        rows.get("policy.timeout.ratio_mean").map(String::as_str),
        Some("1.6667")
    );
    assert_eq!(
        rows.get("policy.timeout.ratio_max").map(String::as_str),
        Some("1.6667")
    );
    assert_eq!(rows.get("pool_workers").map(String::as_str), Some("2"));
    // The SESSION end offline solve plus the explicit REQ.
    assert_eq!(rows.get("requests").map(String::as_str), Some("2"));
    assert!(rows.contains_key("solver.forced_chain.p50_us"), "{rows:?}");
    // v3: the search.* rows are always present (zero here — no
    // multi-exact branch-and-bound ran on this connection).
    assert_eq!(
        rows.get("search.nodes_expanded").map(String::as_str),
        Some("0")
    );
    assert!(rows.contains_key("search.subtree_steals"), "{rows:?}");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    daemon.finish();
}

#[test]
fn malformed_session_corpus_is_answered_with_err_and_the_session_survives() {
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);

    // Out-of-order verbs before any session exists.
    client.send("SESSION arrive 3");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    client.send("SESSION step 1");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    client.send("SESSION end");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    // Parse-level garbage.
    client.send("SESSION");
    assert!(client.recv().starts_with("ERR - "));
    client.send("SESSION commence timeout 2");
    assert!(client.recv().starts_with("ERR - unknown SESSION sub-verb"));
    client.send("SESSION begin");
    assert!(client.recv().starts_with("ERR - "));
    client.send("SESSION begin timeout nope");
    assert!(client.recv().starts_with("ERR - "));
    // Unknown and online-incapable policies.
    client.send("SESSION begin warp 2");
    assert!(client.recv().starts_with("ERR - unknown online policy"));
    client.send("SESSION begin clairvoyant 2");
    assert!(client.recv().contains("lookahead"));

    // A real session now begins; double-begin is refused without
    // killing it.
    client.send("SESSION begin timeout 2");
    assert_eq!(client.recv(), "SESSION begun policy=timeout alpha=2");
    client.send("SESSION begin timeout 2");
    assert!(client.recv().starts_with("ERR - SESSION already active"));
    client.send("SESSION arrive 5");
    assert_eq!(client.recv(), "SESSION t=6 state=awake online=3");
    // Time running backwards is refused; the session keeps going.
    client.send("SESSION arrive 2");
    assert!(client.recv().contains("behind the frontier"));
    client.send("SESSION end");
    assert!(client.recv().starts_with("SESSION end policy=timeout "));
    // End-without-begin again now that the session is consumed.
    client.send("SESSION end");
    assert!(client.recv().starts_with("ERR - no SESSION active"));

    // The connection still serves everything else.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert!(
        snapshot.protocol_errors >= 12,
        "every corpus entry is counted: {snapshot}"
    );
}

#[test]
fn session_alpha_above_the_bound_is_refused_and_the_connection_survives() {
    // Past `MAX_ALPHA` the session's power costs could wrap u64.
    let max = gaps_engine::MAX_ALPHA;
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);
    for alpha in [max + 1, u64::MAX] {
        client.send(&format!("SESSION begin timeout {alpha}"));
        let reply = client.recv();
        assert!(
            reply.starts_with("ERR - ") && reply.contains(&max.to_string()),
            "{reply}"
        );
    }
    client.send(&format!("SESSION begin timeout {max}"));
    assert_eq!(
        client.recv(),
        format!("SESSION begun policy=timeout alpha={max}")
    );
    client.send("SESSION arrive 5");
    assert_eq!(client.recv(), "SESSION t=6 state=awake online=4294967296");
    client.send("SESSION end");
    assert!(client
        .recv()
        .starts_with(&format!("SESSION end policy=timeout alpha={max} jobs=1 ")));
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    daemon.finish();
}

#[test]
fn drain_finishes_queued_work_before_closing_connections() {
    let daemon = start(ServeConfig {
        threads: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // Five slow requests, then DRAIN in the same write: every admitted
    // request must still be answered before the socket closes.
    let mut burst = String::new();
    for i in 0..5 {
        burst.push_str(&format!(
            "REQ d-{i} {}\n",
            encode_payload(&heavy_instance_text(10 + i))
        ));
    }
    burst.push_str("DRAIN\n");
    client.send_raw(burst.as_bytes());
    let mut res = 0;
    let mut draining = 0;
    for _ in 0..6 {
        let line = client.recv();
        if line == "DRAINING" {
            draining += 1;
        } else {
            assert!(line.starts_with("RES d-"), "{line:?}");
            res += 1;
        }
    }
    assert_eq!((res, draining), (5, 1));
    let snapshot = daemon.finish();
    assert_eq!(snapshot.requests, 5);
    assert_eq!(snapshot.in_flight, 0, "{snapshot}");
    assert_eq!(snapshot.queue_depth, 0, "{snapshot}");
}

#[test]
fn requests_after_drain_are_refused() {
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);
    client.send("REQ warm instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES warm "));
    client.send_raw(b"DRAIN\nREQ late instance v1;processors 1;job 0 1\n");
    assert_eq!(client.recv(), "DRAINING");
    let line = client.recv();
    assert!(
        line.starts_with("ERR late draining"),
        "late requests are refused, not silently dropped: {line:?}"
    );
    let snapshot = daemon.finish();
    assert_eq!(snapshot.requests, 1);
}
