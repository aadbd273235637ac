//! The traced run's engine: replay a workload's requests in-process
//! through the public function of every layer, in the order
//! `Engine::solve_request` calls them, on the pool shapes the real binary
//! uses (`TaskPool::elastic(2, 4, 256, …)` for `gaps serve --threads 2`,
//! `pool::map_ordered` at two threads for `gaps batch --threads 2`).

use crate::client::{fnv, STALL};
use crate::trace::{RequestTrace, Sink, Span};
use crate::workload::Workload;
use gaps_engine::canonical::canonicalize;
use gaps_engine::pool::{self, SubmitError, TaskPool};
use gaps_engine::router::{self, RouterConfig, SolverKind};
use gaps_engine::ShardedCache;
use gaps_engine::{split_stream, BatchInstance, MetricsRegistry, Objective, SearchTotals};
use gaps_serve::protocol::{self, Frame};
use std::cell::Cell;
use std::io::Write;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Core workers of both pools (`--threads 2`).
pub const WORKERS: usize = 2;

/// One replayed request.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub hash: u64,
    /// When its frame started to be read (serve) or its item started (batch).
    pub start: Instant,
    /// When its reply body was ready.
    pub done: Instant,
    /// Time a pool worker spent on it.
    pub busy: Duration,
    pub key_bytes: usize,
    pub hit: bool,
    pub solver: Option<SolverKind>,
    /// Refused by a full admission queue (the daemon's `BUSY`).
    pub refused: bool,
}

/// A finished replay of the measured requests (warm-up excluded).
pub struct Replay {
    pub done: Vec<Done>,
    pub spans: Vec<Span>,
    pub search: SearchTotals,
    pub wall: Duration,
    pub peak_workers: u64,
}

/// The engine's layers, owned the way `Engine` owns them.
struct Layers {
    objective: Objective,
    router: RouterConfig,
    cache: ShardedCache,
    metrics: MetricsRegistry,
    sink: Sink,
}

impl Layers {
    fn new(objective: Objective) -> Layers {
        Layers {
            objective,
            // `multi_exact_threads` inherits `--threads`, as both the
            // daemon and the batch engine resolve it.
            router: RouterConfig {
                multi_exact_threads: WORKERS,
                ..RouterConfig::default()
            },
            // The daemon's and the batch engine's defaults.
            cache: ShardedCache::new(4096, 16),
            metrics: MetricsRegistry::new(),
            sink: Sink::default(),
        }
    }
}

fn solve_span(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::BaptisteDp => "router.solve_us.baptiste_dp",
        SolverKind::PowerDp => "router.solve_us.power_dp",
        SolverKind::ForcedChain => "router.solve_us.forced_chain",
        SolverKind::MultiExact => "router.solve_us.multi_exact",
        _ => "router.solve_us.other",
    }
}

struct Outcome {
    body: String,
    key_bytes: usize,
    hit: bool,
    solver: Option<SolverKind>,
}

/// `Engine::solve_request`, one public call at a time.
fn solve(layers: &Layers, inst: &BatchInstance, t: &mut RequestTrace) -> Outcome {
    let start = Instant::now();
    let objective = layers.objective;
    let form = t.time("canonical.canonicalize_us", || {
        canonicalize(inst, objective)
    });
    let key_bytes = form.key.len();
    let cached = t.time("cache.get_us", || layers.cache.get(&form.key));
    let (payload, solver) = match cached {
        Some(payload) => (payload, None),
        None => {
            let routed = t.time("router.route_us", || {
                router::route(&router::features(&form.instance), objective, &layers.router)
            });
            let (kind, body) = t.time(solve_span(routed), || {
                router::solve_observed(
                    &form.instance,
                    objective,
                    &layers.router,
                    Some(&layers.metrics),
                )
            });
            let payload = format!("{body} solver={}", kind.name());
            let key = form.key;
            t.time("cache.insert_us", || {
                layers.cache.insert(key, payload.clone())
            });
            (payload, Some(kind))
        }
    };
    let elapsed = start.elapsed();
    t.time("metrics.record_request_us", || {
        layers.metrics.record_request(
            solver.map(SolverKind::name),
            solver.is_none(),
            false,
            elapsed,
        )
    });
    Outcome {
        body: format!("{} n={} {payload}", inst.kind_label(), inst.job_count()),
        key_bytes,
        hit: solver.is_none(),
        solver,
    }
}

/// What the daemon's reader thread does with one frame: read and parse
/// it, split the payload, and submit the solve to the pool. Returns
/// whether the pool admitted it.
#[allow(clippy::too_many_arguments)]
fn submit_frame(
    pool: &TaskPool,
    layers: &Arc<Layers>,
    tx: &mpsc::Sender<(usize, Done)>,
    wire: &mut Vec<u8>,
    id: usize,
    payload: &str,
    traced: bool,
    epoch: Instant,
) -> Result<bool, String> {
    wire.clear();
    let _ = writeln!(wire, "REQ {id} {payload}");
    let start = Instant::now();
    let mut t = RequestTrace::new(traced, epoch, id as u32);
    t.enter_at("engine.request_us", start);
    let frame = t.time("protocol.parse_frame_us", || {
        let mut reader: &[u8] = wire;
        match protocol::read_line_limited(&mut reader, protocol::MAX_FRAME_BYTES) {
            Ok(Some(Ok(line))) => protocol::parse_frame(&line).ok().flatten(),
            _ => None,
        }
    });
    let Some(Frame::Req { text, .. }) = frame else {
        return Err(format!("request {id}: frame did not parse"));
    };
    let mut parsed = t
        .time("engine.split_stream_us", || split_stream(&text))
        .map_err(|e| format!("request {id}: {e}"))?;
    let inst = match (parsed.pop(), parsed.is_empty()) {
        (Some(inst), true) => inst,
        _ => return Err(format!("request {id}: not exactly one instance")),
    };
    let submitted = Instant::now();
    let job = {
        let layers = Arc::clone(layers);
        let tx = tx.clone();
        move || {
            let started = Instant::now();
            t.add("pool.queue_wait_us", submitted, started);
            let out = solve(&layers, &inst, &mut t);
            // The daemon formats the reply line the same way before its
            // socket write.
            std::hint::black_box(format!("RES {id} {}\n", out.body));
            let done = Instant::now();
            t.exit_at(done);
            layers.sink.flush(t);
            let _ = tx.send((
                id,
                Done {
                    hash: fnv(out.body.as_bytes()),
                    start,
                    done,
                    busy: done - started,
                    key_bytes: out.key_bytes,
                    hit: out.hit,
                    solver: out.solver,
                    refused: false,
                },
            ));
        }
    };
    match pool.try_submit(job) {
        Ok(()) => Ok(true),
        Err(SubmitError::Full) => Ok(false),
        Err(SubmitError::Closed) => Err("replay pool closed".to_string()),
    }
}

fn refused(at: Instant) -> Done {
    Done {
        hash: 0,
        start: at,
        done: at,
        busy: Duration::ZERO,
        key_bytes: 0,
        hit: false,
        solver: None,
        refused: true,
    }
}

fn collect(rx: &mpsc::Receiver<(usize, Done)>, out: &mut [Option<Done>]) -> Result<(), String> {
    while out.iter().any(Option::is_none) {
        let (id, done) = rx
            .recv_timeout(STALL)
            .map_err(|_| format!("replay stalled for {STALL:?}"))?;
        out[id] = Some(done);
    }
    Ok(())
}

/// Replay a serve workload: untraced warm-up, then the measured requests
/// at the open-loop schedule (`n` requests at `rate` per second).
pub fn serve(w: &Workload, n: usize, rate: f64, traced: bool) -> Result<Replay, String> {
    let layers = Arc::new(Layers::new(w.kind.objective()));
    let pool = TaskPool::elastic(WORKERS, 4, 256, pool::DEFAULT_IDLE_TIMEOUT);
    let epoch = Instant::now();
    let (tx, rx) = mpsc::channel();
    let mut wire = Vec::with_capacity(1 << 12);

    let mut warm: Vec<Option<Done>> = vec![None; w.warmup.len()];
    for (id, item) in w.warmup.iter().enumerate() {
        if !submit_frame(
            &pool,
            &layers,
            &tx,
            &mut wire,
            id,
            &item.payload,
            false,
            epoch,
        )? {
            warm[id] = Some(refused(Instant::now()));
        }
    }
    collect(&rx, &mut warm)?;

    let search_before = layers.metrics.search_totals();
    let interval = 1e9 / rate;
    let origin = Instant::now() + Duration::from_millis(20);
    let mut done: Vec<Option<Done>> = vec![None; n];
    for (id, slot) in done.iter_mut().enumerate() {
        let due = origin + Duration::from_nanos((id as f64 * interval) as u64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let payload = &w.items[w.schedule[id] as usize].payload;
        if !submit_frame(&pool, &layers, &tx, &mut wire, id, payload, traced, epoch)? {
            *slot = Some(refused(Instant::now()));
        }
    }
    collect(&rx, &mut done)?;
    pool.shutdown();
    let done: Vec<Done> = done.into_iter().flatten().collect();
    let last = done.iter().map(|d| d.done).max().unwrap_or(origin);
    Ok(Replay {
        wall: last.saturating_duration_since(origin),
        search: layers.metrics.search_totals().since(&search_before),
        spans: layers.sink.take(),
        peak_workers: pool.peak_workers(),
        done,
    })
}

/// Replay a batch: split the stdin stream once, then solve every item
/// through `pool::map_ordered` at two threads. An item's queue wait is
/// the gap between its worker finishing the previous item (or the map
/// starting) and the item starting.
pub fn batch(w: &Workload, traced: bool) -> Result<Replay, String> {
    thread_local! {
        static LAST_END: Cell<Option<Instant>> = const { Cell::new(None) };
    }
    let layers = Layers::new(w.kind.objective());
    let text = w.batch_stdin();
    let epoch = Instant::now();
    let mut t = RequestTrace::new(traced, epoch, u32::MAX);
    let instances = t
        .time("engine.split_stream_us", || split_stream(&text))
        .map_err(|e| format!("batch stream: {e}"))?;
    layers.sink.flush(t);
    let start = Instant::now();
    let done = pool::map_ordered(instances, WORKERS, |id, inst| {
        let started = Instant::now();
        let ready = LAST_END.with(Cell::get).unwrap_or(start);
        let mut t = RequestTrace::new(traced, epoch, id as u32);
        t.add("pool.queue_wait_us", ready, started);
        t.enter_at("engine.request_us", started);
        let out = solve(&layers, &inst, &mut t);
        std::hint::black_box(format!("{id} {}", out.body));
        let done = Instant::now();
        t.exit_at(done);
        layers.sink.flush(t);
        LAST_END.with(|c| c.set(Some(Instant::now())));
        Done {
            hash: fnv(out.body.as_bytes()),
            start: started,
            done,
            busy: done - started,
            key_bytes: out.key_bytes,
            hit: out.hit,
            solver: out.solver,
            refused: false,
        }
    });
    Ok(Replay {
        wall: start.elapsed(),
        search: layers.metrics.search_totals(),
        spans: layers.sink.take(),
        peak_workers: WORKERS as u64,
        done,
    })
}
