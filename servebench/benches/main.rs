//! `servebench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! servebench --gaps PATH --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! servebench --gaps PATH --workload NAME --repeat N [--seed N] [--seconds S]
//! servebench --record
//! ```
//!
//! `run.sh` builds the `gaps` binary and this program and passes `--gaps`.
//! A run prints a report and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! in-process replay (`--trace 1`). See README.md.

mod check;
mod client;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use client::{Answer, Daemon, OpenLoop, Reply};
use gaps_engine::router::SolverKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Kind, Workload};

/// CPUs of the machine the offered rates below were calibrated on.
const RECORDED_NPROC: usize = 2;
/// Open-loop offered rates. serve_cold's is about half its closed-loop
/// saturation throughput at the seed on that machine; serve_hot's is about
/// a quarter, because at half (26k req/s) a 10 ms scheduling stall on the
/// shared machine overflows the 256-deep admission queue into `BUSY`.
const HOT_RATE: f64 = 12_000.0;
const COLD_RATE: f64 = 1_800.0;
/// Outstanding `REQ`s in the closed loop, below the 256-deep admission
/// queue so saturation never turns into `BUSY`.
const WINDOW: usize = 64;
/// Bound on the open-loop sender's p99 lag behind schedule. The sender
/// shares two CPUs with a daemon that may run four CPU-bound workers, so
/// a wake-up can wait a few scheduler slices; lag counts into latency
/// (requests are timed from their due time), and the bound only rejects
/// a run in which the rate was not really offered.
const LAG_P99_BOUND_MS: f64 = 50.0;
/// Start-ups per run behind `setup_s`; the median is reported.
const STARTUPS: usize = 31;
/// batch_coupled instances streamed per second of `--seconds`.
const BATCH_PER_SECOND: f64 = 100.0 / 3.0;
/// The stream is cut into this many `gaps batch` processes, run one after
/// another; the per-process figures are reported as medians.
const BATCH_CHUNKS: usize = 10;
/// Length of the windows the open-loop phase is cut into; per-window
/// figures are reported as medians, so a burst of interference from
/// elsewhere on the machine moves one window, not the run. Two seconds
/// keep the 10 ms CPU tick near 1% of a window's daemon CPU time.
const WINDOW_SECS: f64 = 2.0;
/// Fresh daemons per timed serve phase, each taking a consecutive slice
/// of the requests; per-daemon figures are reported as medians, so one
/// daemon's thread and allocator layout does not set the run's figures.
const DAEMONS: usize = 5;
/// Single-instance `gaps batch` invocations per run, cycling through the
/// streamed instances (enough for ten samples beyond p99).
const BATCH_INVOCATIONS: usize = 1000;
/// Reported in place of an infinite latency (JSON has no infinity).
const INFINITE: f64 = 1e12;

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { INFINITE },
    }
}

/// A finished run: the last-line JSON object's contents.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

struct Ctx {
    gaps: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Ctx {
    fn flags(&self) -> Vec<String> {
        let mut flags: Vec<String> = if self.kind.is_serve() {
            ["--listen", "127.0.0.1:0", "--threads", "2"]
                .map(String::from)
                .to_vec()
        } else {
            ["--threads", "2"].map(String::from).to_vec()
        };
        flags.extend(self.kind.objective_flags());
        flags
    }

    fn rate(&self) -> f64 {
        match self.kind {
            Kind::ServeHot => HOT_RATE,
            _ => COLD_RATE,
        }
    }

    /// Measured requests: the open-loop phase lasts two thirds of the
    /// run; the closed loop sends the same requests at saturation, which
    /// takes about half as long.
    fn requests(&self) -> usize {
        match self.kind {
            Kind::BatchCoupled => (self.seconds as f64 * BATCH_PER_SECOND).round() as usize,
            _ => (self.rate() * self.seconds as f64 * 2.0 / 3.0).round() as usize,
        }
        .max(1)
    }
}

/// How the replies of one phase compare with the reference answers.
#[derive(Default)]
struct Grade {
    sent: usize,
    answered: usize,
    failed: usize,
    mismatched: usize,
    refused: usize,
    definitive: usize,
}

impl Grade {
    /// Correct answers over requests sent: 1 − error_share, where
    /// error_share counts `ERR`, `BUSY`, unanswered and wrong answers.
    fn ok_share(&self) -> f64 {
        (self.sent - self.failed) as f64 / self.sent.max(1) as f64
    }

    /// Definitive answers (exact optimum or proven infeasible) over answers.
    fn exact_share(&self) -> f64 {
        self.definitive as f64 / self.answered.max(1) as f64
    }

    fn add(&mut self, answers: &[Answer], expected: impl Fn(usize) -> (u64, bool)) {
        for (i, a) in answers.iter().enumerate() {
            self.sent += 1;
            let (hash, definitive) = expected(i);
            match a.reply {
                Reply::Res if a.hash == hash => {
                    self.answered += 1;
                    self.definitive += usize::from(definitive);
                }
                Reply::Res => {
                    self.answered += 1;
                    self.mismatched += 1;
                    self.failed += 1;
                }
                Reply::Busy | Reply::Err => {
                    self.refused += 1;
                    self.failed += 1;
                }
                Reply::Missing => self.failed += 1,
            }
        }
    }
}

fn report_grade(grade: &Grade) {
    say(&format!(
        "sent={} answered={} failed={} (wrong {}, ERR or BUSY {}, unanswered {})",
        grade.sent,
        grade.answered,
        grade.failed,
        grade.mismatched,
        grade.refused,
        grade.failed - grade.mismatched - grade.refused
    ));
}

/// Peak RSS takes a few discrete levels per process (allocator arenas,
/// memo tables crossing a capacity step), so it is averaged over the
/// run's processes rather than taking the median, which would jump
/// between levels.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Expected (hash, definitive) of every distinct item, plus the recorded
/// optimum check.
struct Reference {
    hashes: Vec<u64>,
    definitive: Vec<bool>,
    recorded_compared: usize,
    recorded_bad: Vec<usize>,
}

fn reference(ctx: &Ctx, w: &Workload) -> Result<Reference, String> {
    let bodies = check::expected_bodies(w);
    let (recorded_compared, recorded_bad) = check::recorded(ctx.kind, ctx.seed, &bodies)?;
    Ok(Reference {
        hashes: bodies.iter().map(|b| client::fnv(b.as_bytes())).collect(),
        definitive: bodies.iter().map(|b| check::is_definitive(b)).collect(),
        recorded_compared,
        recorded_bad,
    })
}

/// Start the daemon `count` times: spawn to first `PONG`, spawn to
/// `listening on`, and connect to `PONG`, each in seconds.
fn serve_startups(ctx: &Ctx, count: usize) -> Result<[Vec<f64>; 3], String> {
    let mut out: [Vec<f64>; 3] = Default::default();
    for _ in 0..count {
        let daemon = Daemon::spawn(&ctx.gaps, &ctx.flags())?;
        let (conn, accept) = daemon.connect()?;
        out[0].push(daemon.age().as_secs_f64());
        out[1].push(daemon.bind.as_secs_f64());
        out[2].push(accept.as_secs_f64());
        daemon.drain(conn)?;
    }
    Ok(out)
}

/// A fresh daemon with the warm-up already answered.
fn warm_daemon(ctx: &Ctx, w: &Workload) -> Result<(Daemon, client::Conn), String> {
    let daemon = Daemon::spawn(&ctx.gaps, &ctx.flags())?;
    let (mut conn, _) = daemon.connect()?;
    let warm = client::closed_loop(&mut conn, w.warmup.len(), WINDOW, |i| {
        w.warmup[i].payload.as_str()
    })?;
    if warm.answers.iter().any(|a| a.reply != Reply::Res) {
        return Err("warm-up request not answered with RES".to_string());
    }
    Ok((daemon, conn))
}

fn slices(n: usize) -> Vec<std::ops::Range<usize>> {
    (0..DAEMONS)
        .map(|d| d * n / DAEMONS..(d + 1) * n / DAEMONS)
        .collect()
}

fn payload(w: &Workload, i: usize) -> &str {
    w.items[w.schedule[i] as usize].payload.as_str()
}

/// The closed loop, one slice per fresh daemon.
struct ClosedPhase {
    answers: Vec<Answer>,
    rates: Vec<f64>,
    rss_mb: Vec<f64>,
    workers: Vec<String>,
}

fn closed_phase(ctx: &Ctx, w: &Workload, n: usize) -> Result<ClosedPhase, String> {
    let mut phase = ClosedPhase {
        answers: Vec::with_capacity(n),
        rates: Vec::new(),
        rss_mb: Vec::new(),
        workers: Vec::new(),
    };
    for range in slices(n) {
        let (daemon, mut conn) = warm_daemon(ctx, w)?;
        let start = range.start;
        let replies =
            client::closed_loop(&mut conn, range.len(), WINDOW, |i| payload(w, start + i))?;
        phase
            .rates
            .push(range.len() as f64 / replies.elapsed.as_secs_f64());
        phase.rss_mb.push(procfs::peak_rss_mb(daemon.pid())?);
        phase.workers.push(conn.stat("pool_workers")?);
        daemon.drain(conn)?;
        phase.answers.extend(replies.answers);
    }
    Ok(phase)
}

/// The open loop, one slice per fresh daemon.
struct OpenPhase {
    loops: Vec<OpenLoop>,
    rss_mb: Vec<f64>,
    workers: Vec<String>,
}

fn open_phase(ctx: &Ctx, w: &Workload, n: usize) -> Result<OpenPhase, String> {
    let mut phase = OpenPhase {
        loops: Vec::new(),
        rss_mb: Vec::new(),
        workers: Vec::new(),
    };
    let per_window = ((ctx.rate() * WINDOW_SECS).round() as usize).min(n / DAEMONS);
    for range in slices(n) {
        let (daemon, mut conn) = warm_daemon(ctx, w)?;
        let pid = daemon.pid();
        let start = range.start;
        let open = client::open_loop(
            &mut conn,
            range.len(),
            ctx.rate(),
            per_window,
            |i| payload(w, start + i),
            || procfs::cpu_time(pid),
        )?;
        phase.rss_mb.push(procfs::peak_rss_mb(pid)?);
        phase.workers.push(conn.stat("pool_workers")?);
        daemon.drain(conn)?;
        phase.loops.push(open);
    }
    Ok(phase)
}

impl OpenPhase {
    fn answers(&self) -> Vec<Answer> {
        self.loops
            .iter()
            .flat_map(|l| l.replies.answers.iter().copied())
            .collect()
    }

    /// Full windows of every slice; `ok(i)` says whether request `i` (of
    /// the whole phase) was answered correctly.
    fn windows(&self, ok: impl Fn(usize) -> bool) -> Vec<Window> {
        let mut out = Vec::new();
        let mut offset = 0;
        for open in &self.loops {
            let latency = open_latencies(open, |i| ok(offset + i));
            out.extend(open_windows(open, &latency));
            offset += open.replies.answers.len();
        }
        out
    }

    fn lag_p99_ms(&self) -> f64 {
        let mut lag: Vec<f64> = self
            .loops
            .iter()
            .flat_map(|l| l.lag_ns.iter().map(|&x| x as f64 / 1e6))
            .collect();
        stats::summarize(&mut lag).p99
    }
}

/// One full window of the open-loop schedule.
struct Window {
    p50_ms: f64,
    p99_ms: f64,
    cpu_us_per_req: f64,
}

/// Latency percentiles and daemon CPU per answered request of every full
/// window; `latency_ms[i]` is request `i`'s latency.
fn open_windows(open: &OpenLoop, latency_ms: &[f64]) -> Vec<Window> {
    let per = open.per_window;
    (0..latency_ms.len() / per)
        .map(|k| {
            let range = k * per..(k + 1) * per;
            let answered = open.replies.answers[range.clone()]
                .iter()
                .filter(|a| a.reply == Reply::Res)
                .count();
            let mut window = latency_ms[range].to_vec();
            let s = stats::summarize(&mut window);
            let cpu = open.marks[k + 1].saturating_sub(open.marks[k]);
            Window {
                p50_ms: s.p50,
                p99_ms: s.p99,
                cpu_us_per_req: cpu.as_secs_f64() * 1e6 / answered.max(1) as f64,
            }
        })
        .collect()
}

/// Latency of each open-loop request, due time to reply, in ms; a failed
/// request is infinitely late.
fn open_latencies(open: &OpenLoop, ok: impl Fn(usize) -> bool) -> Vec<f64> {
    open.replies
        .answers
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if ok(i) {
                a.at_ns.saturating_sub(open.due_ns(i)) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn say(line: &str) {
    println!("{line}");
}

/// Hard failures print no numbers: the run is not a measurement.
struct Invalid(String);

impl From<String> for Invalid {
    fn from(e: String) -> Invalid {
        Invalid(e)
    }
}

fn report_setup(setup: &[f64]) {
    let mut v: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    v.sort_by(f64::total_cmp);
    let shown: Vec<String> = v.iter().map(|x| format!("{x:.2}")).collect();
    say(&format!(
        "set-up: {} start-ups, ms: {}",
        v.len(),
        shown.join(" ")
    ));
}

fn check_lag(phase: &OpenPhase) -> Result<f64, Invalid> {
    let lag = phase.lag_p99_ms();
    if lag > LAG_P99_BOUND_MS {
        return Err(Invalid(format!(
            "open-loop sender lag p99 {lag:.3} ms exceeds its {LAG_P99_BOUND_MS} ms bound"
        )));
    }
    Ok(lag)
}

fn report_recorded(reference: &Reference) -> usize {
    say(&format!(
        "recorded optima: {} compared, {} differ{}",
        reference.recorded_compared,
        reference.recorded_bad.len(),
        match reference.recorded_bad.first() {
            Some(i) => format!(" (first at item {i})"),
            None => String::new(),
        }
    ));
    reference.recorded_bad.len()
}

fn serve_end_to_end(ctx: &Ctx) -> Result<Outcome, Invalid> {
    let [setup, _, _] = serve_startups(ctx, STARTUPS)?;
    report_setup(&setup);
    let n = ctx.requests();
    let w = Workload::generate(ctx.kind, ctx.seed, n);

    let closed = closed_phase(ctx, &w, n)?;
    let phase = open_phase(ctx, &w, n)?;
    let lag = check_lag(&phase)?;

    let reference = reference(ctx, &w)?;
    let expected = |i: usize| {
        let item = w.schedule[i] as usize;
        (reference.hashes[item], reference.definitive[item])
    };
    let answers = phase.answers();
    let mut grade = Grade::default();
    grade.add(&closed.answers, expected);
    grade.add(&answers, expected);
    let recorded_bad = report_recorded(&reference);
    report_grade(&grade);

    let windows =
        phase.windows(|i| answers[i].reply == Reply::Res && answers[i].hash == expected(i).0);
    let per = phase.loops.first().map_or(0, |l| l.per_window);
    let mut rss = closed.rss_mb.clone();
    rss.extend(&phase.rss_mb);
    say(&format!(
        "closed loop: {n} requests over {DAEMONS} daemons, window {WINDOW}, req/s {:.0?}; open loop: {n} requests at {} req/s over {DAEMONS} daemons, {} windows of {per} latency samples ({} beyond p99), sender lag p99 {lag:.4} ms; peak RSS MB {:.2?}; pool workers at the end: closed {:?}, open {:?}",
        closed.rates,
        ctx.rate(),
        windows.len(),
        stats::beyond(per, 99, 100),
        rss,
        closed.workers,
        phase.workers,
    ));
    if windows.is_empty() || !stats::supports_tail(per, 99, 100) {
        return Err(Invalid("too few open-loop samples for p99".to_string()));
    }
    let window_p99: Vec<String> = windows.iter().map(|w| format!("{:.3}", w.p99_ms)).collect();
    say(&format!(
        "open-loop p99 per window, ms: {}",
        window_p99.join(" ")
    ));
    let window_median =
        |f: fn(&Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<f64>>());
    Ok(Outcome {
        correct: grade.failed == 0 && recorded_bad == 0,
        attempted: grade.sent,
        failed: grade.failed,
        metrics: vec![
            metric("setup_s", "s", stats::median(&setup)),
            metric("throughput_rps", "req/s", stats::median(&closed.rates)),
            metric("p50_ms", "ms", window_median(|w| w.p50_ms)),
            metric("p99_ms", "ms", window_median(|w| w.p99_ms)),
            metric("cpu_us_per_req", "us", window_median(|w| w.cpu_us_per_req)),
            metric("rss_peak_mb", "MB", mean(&rss)),
            metric("exact_share", "ratio", grade.exact_share()),
            metric("ok_share", "ratio", grade.ok_share()),
        ],
    })
}

/// Result lines of `gaps batch` (`<index> <body>`) against the bodies of
/// the items they answer (`items[index]`).
fn grade_batch(stdout: &str, items: &[usize], reference: &Reference, grade: &mut Grade) {
    let answers: Vec<Answer> = {
        let mut answers = vec![Answer::default(); items.len()];
        for line in stdout.lines() {
            if let Some((index, body)) = line.split_once(' ') {
                if let Some(slot) = index.parse::<usize>().ok().and_then(|i| answers.get_mut(i)) {
                    *slot = Answer {
                        reply: Reply::Res,
                        hash: client::fnv(body.as_bytes()),
                        at_ns: 0,
                    };
                }
            }
        }
        answers
    };
    grade.add(&answers, |i| {
        (reference.hashes[items[i]], reference.definitive[items[i]])
    });
}

fn batch_end_to_end(ctx: &Ctx) -> Result<Outcome, Invalid> {
    let flags = ctx.flags();
    let setup: Vec<f64> = (0..STARTUPS)
        .map(|_| client::empty_batch(&ctx.gaps, &flags).map(|d| d.as_secs_f64()))
        .collect::<Result<_, _>>()?;
    report_setup(&setup);
    let m = ctx.requests();
    let w = Workload::generate(ctx.kind, ctx.seed, m);
    let reference = reference(ctx, &w)?;
    let mut grade = Grade::default();

    let mut chunks = Vec::with_capacity(BATCH_CHUNKS);
    for c in 0..BATCH_CHUNKS {
        let items: Vec<usize> = (c * m / BATCH_CHUNKS..(c + 1) * m / BATCH_CHUNKS).collect();
        let stdin: String = items.iter().map(|&i| w.items[i].text()).collect();
        let run = client::run_batch(&ctx.gaps, &flags, &stdin)?;
        grade_batch(&run.stdout, &items, &reference, &mut grade);
        chunks.push((items.len() as f64, run));
    }
    let chunk_median = |f: &dyn Fn(f64, &client::BatchRun) -> f64| {
        stats::median(
            &chunks
                .iter()
                .map(|(k, run)| f(*k, run))
                .collect::<Vec<f64>>(),
        )
    };

    // Latency: one instance per invocation, one invocation at a time.
    let mut turnaround = Vec::with_capacity(BATCH_INVOCATIONS);
    for k in 0..BATCH_INVOCATIONS {
        let i = k % m;
        let single = client::run_batch(&ctx.gaps, &flags, &w.items[i].text())?;
        grade_batch(&single.stdout, &[i], &reference, &mut grade);
        turnaround.push(ms(single.turnaround));
    }
    let lat = stats::summarize(&mut turnaround);
    let recorded_bad = report_recorded(&reference);
    report_grade(&grade);
    let shown: Vec<String> = chunks
        .iter()
        .map(|(k, run)| {
            format!(
                "{k} in {:.3} s, {:.1} MB",
                run.stream.as_secs_f64(),
                run.usage.peak_rss_mb
            )
        })
        .collect();
    say(&format!(
        "stream: {m} instances in {BATCH_CHUNKS} processes ({}); single-instance invocations: {} ({} beyond p99)",
        shown.join("; "),
        lat.count,
        stats::beyond(lat.count, 99, 100)
    ));
    if !stats::supports_tail(lat.count, 99, 100) {
        return Err(Invalid(
            "too few single-instance invocations for p99".to_string(),
        ));
    }
    Ok(Outcome {
        correct: grade.failed == 0 && recorded_bad == 0,
        attempted: grade.sent,
        failed: grade.failed,
        metrics: vec![
            metric("setup_s", "s", stats::median(&setup)),
            metric(
                "throughput_rps",
                "req/s",
                chunk_median(&|k, run| k / run.stream.as_secs_f64()),
            ),
            metric("p50_ms", "ms", lat.p50),
            metric("p99_ms", "ms", lat.p99),
            metric(
                "cpu_us_per_req",
                "us",
                chunk_median(&|k, run| run.usage.cpu.as_secs_f64() * 1e6 / k),
            ),
            metric(
                "rss_peak_mb",
                "MB",
                mean(
                    &chunks
                        .iter()
                        .map(|(_, run)| run.usage.peak_rss_mb)
                        .collect::<Vec<f64>>(),
                ),
            ),
            metric("exact_share", "ratio", grade.exact_share()),
            metric("ok_share", "ratio", grade.ok_share()),
        ],
    })
}

/// Timing layers the per-layer output always carries, in µs.
const LAYERS: [&str; 13] = [
    "protocol.parse_frame_us",
    "engine.split_stream_us",
    "canonical.canonicalize_us",
    "cache.get_us",
    "cache.insert_us",
    "metrics.record_request_us",
    "router.route_us",
    "router.solve_us.baptiste_dp",
    "router.solve_us.power_dp",
    "router.solve_us.forced_chain",
    "router.solve_us.multi_exact",
    "pool.queue_wait_us",
    "engine.request_us",
];

const MIX: [SolverKind; 4] = [
    SolverKind::BaptisteDp,
    SolverKind::PowerDp,
    SolverKind::ForcedChain,
    SolverKind::MultiExact,
];

/// Per-layer metrics from the traced replay (`traced`), the same replay
/// with spans off (`plain`), and the untraced client's figures.
fn layer_metrics(
    traced: &replay::Replay,
    plain: &replay::Replay,
    client_p50_ms: Option<f64>,
    startups: Option<&[Vec<f64>; 3]>,
    lag_ms: f64,
) -> Vec<Metric> {
    let spans = &traced.spans;
    let selfs = trace::self_times(spans);
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut request_self = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        by_layer
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
        if s.name == "engine.request_us" {
            request_self.push(own as f64 / 1e3);
        }
    }
    let mut out = Vec::new();
    for layer in LAYERS {
        let s = stats::summarize(
            by_layer
                .get_mut(layer)
                .map_or(&mut [], |v| v.as_mut_slice()),
        );
        out.push(metric(format!("{layer}.p50"), "us", s.p50));
        out.push(metric(format!("{layer}.p99"), "us", s.p99));
        out.push(metric(format!("{layer}.count"), "count", s.count as f64));
    }
    let own = stats::summarize(&mut request_self);
    out.push(metric("engine.request_self_us.p50", "us", own.p50));
    out.push(metric("engine.request_self_us.p99", "us", own.p99));

    let done = &traced.done;
    let served: Vec<&replay::Done> = done.iter().filter(|d| !d.refused).collect();
    let mut keys: Vec<f64> = served.iter().map(|d| d.key_bytes as f64).collect();
    out.push(metric(
        "canonical.key_bytes.p50",
        "bytes",
        stats::summarize(&mut keys).p50,
    ));
    let hits = served.iter().filter(|d| d.hit).count();
    out.push(metric(
        "cache.hit_ratio",
        "ratio",
        hits as f64 / served.len().max(1) as f64,
    ));
    for kind in MIX {
        let count = served.iter().filter(|d| d.solver == Some(kind)).count();
        out.push(metric(
            format!("router.mix.{}", kind.name()),
            "count",
            count as f64,
        ));
    }
    let search = &traced.search;
    let exact_ms: f64 = by_layer
        .get("router.solve_us.multi_exact")
        .map_or(0.0, |v| v.iter().sum::<f64>() / 1e3);
    out.push(metric(
        "search.nodes_expanded",
        "count",
        search.nodes_expanded as f64,
    ));
    out.push(metric(
        "search.nodes_per_ms",
        "1/ms",
        if exact_ms > 0.0 {
            search.nodes_expanded as f64 / exact_ms
        } else {
            0.0
        },
    ));
    out.push(metric(
        "search.subtree_tasks",
        "count",
        search.subtree_tasks as f64,
    ));
    out.push(metric(
        "search.subtree_steals",
        "count",
        search.subtree_steals as f64,
    ));
    out.push(metric(
        "search.incumbent_updates",
        "count",
        search.incumbent_updates as f64,
    ));
    out.push(metric(
        "search.components",
        "count",
        search.components.iter().sum::<u64>() as f64,
    ));
    let busy: f64 = served.iter().map(|d| d.busy.as_secs_f64()).sum();
    out.push(metric(
        "pool.busy_share",
        "ratio",
        busy / (replay::WORKERS as f64 * traced.wall.as_secs_f64()).max(1e-9),
    ));
    out.push(metric(
        "pool.peak_workers",
        "count",
        traced.peak_workers as f64,
    ));
    out.push(metric(
        "pool.refused",
        "count",
        done.iter().filter(|d| d.refused).count() as f64,
    ));
    let median_ms = |v: Option<&Vec<f64>>| v.map_or(0.0, |v| stats::median(v) * 1e3);
    out.push(metric(
        "serve.bind_ms",
        "ms",
        median_ms(startups.map(|s| &s[1])),
    ));
    out.push(metric(
        "serve.accept_ms",
        "ms",
        median_ms(startups.map(|s| &s[2])),
    ));
    // Request time from frame (or item) start to reply body, with and
    // without spans: the tracing overhead.
    let mean_request = |r: &replay::Replay| {
        let served: Vec<f64> = r
            .done
            .iter()
            .filter(|d| !d.refused)
            .map(|d| (d.done - d.start).as_secs_f64())
            .collect();
        served.iter().sum::<f64>() / served.len().max(1) as f64
    };
    let transport = client_p50_ms.map_or(0.0, |client| (client - replay_p50_ms(plain)) * 1e3);
    out.push(metric("serve.transport_p50_us", "us", transport));
    out.push(metric("bench.sender_lag_p99_ms", "ms", lag_ms));
    out.push(metric(
        "trace.overhead_share",
        "ratio",
        mean_request(traced) / mean_request(plain).max(1e-12) - 1.0,
    ));
    out
}

/// p50 of the untraced replay's latency, frame start to reply body, ms.
fn replay_p50_ms(plain: &replay::Replay) -> f64 {
    let mut v: Vec<f64> = plain
        .done
        .iter()
        .map(|d| {
            if d.refused {
                f64::INFINITY
            } else {
                ms(d.done - d.start)
            }
        })
        .collect();
    stats::summarize(&mut v).p50
}

fn replay_matches(replay: &replay::Replay, client_hashes: &[u64]) -> usize {
    replay
        .done
        .iter()
        .zip(client_hashes)
        .filter(|(d, &h)| d.refused || d.hash != h)
        .count()
}

fn serve_traced(ctx: &Ctx) -> Result<Outcome, Invalid> {
    let startups = serve_startups(ctx, 5)?;
    let n = ctx.requests();
    let w = Workload::generate(ctx.kind, ctx.seed, n);
    let phase = open_phase(ctx, &w, n)?;
    let lag = check_lag(&phase)?;
    let reference = reference(ctx, &w)?;
    let expected = |i: usize| {
        let item = w.schedule[i] as usize;
        (reference.hashes[item], reference.definitive[item])
    };
    let answers = phase.answers();
    let mut grade = Grade::default();
    grade.add(&answers, expected);
    let client_p50 = stats::median(
        &phase
            .windows(|i| answers[i].reply == Reply::Res)
            .iter()
            .map(|w| w.p50_ms)
            .collect::<Vec<f64>>(),
    );
    let traced = replay::serve(&w, n, ctx.rate(), true)?;
    let plain = replay::serve(&w, n, ctx.rate(), false)?;
    let hashes: Vec<u64> = answers.iter().map(|a| a.hash).collect();
    let differ = replay_matches(&traced, &hashes) + replay_matches(&plain, &hashes);
    write_spans(ctx, &traced.spans);
    say(&format!(
        "traced replay: {} spans over {n} requests; replay bodies differing from the daemon's: {differ}",
        traced.spans.len()
    ));
    Ok(Outcome {
        correct: grade.failed == 0 && differ == 0 && report_recorded(&reference) == 0,
        attempted: grade.sent,
        failed: grade.failed + differ,
        metrics: layer_metrics(&traced, &plain, Some(client_p50), Some(&startups), lag),
    })
}

fn batch_traced(ctx: &Ctx) -> Result<Outcome, Invalid> {
    let m = ctx.requests();
    let w = Workload::generate(ctx.kind, ctx.seed, m);
    let reference = reference(ctx, &w)?;
    let stream = client::run_batch(&ctx.gaps, &ctx.flags(), &w.batch_stdin())?;
    let mut grade = Grade::default();
    let all: Vec<usize> = (0..m).collect();
    grade_batch(&stream.stdout, &all, &reference, &mut grade);
    let hashes: Vec<u64> = stream
        .stdout
        .lines()
        .map(|l| client::fnv(l.split_once(' ').map_or("", |(_, b)| b).as_bytes()))
        .collect();
    let traced = replay::batch(&w, true)?;
    let plain = replay::batch(&w, false)?;
    let differ = replay_matches(&traced, &hashes) + replay_matches(&plain, &hashes);
    write_spans(ctx, &traced.spans);
    say(&format!(
        "traced replay: {} spans over {m} instances; replay bodies differing from gaps batch: {differ}",
        traced.spans.len()
    ));
    Ok(Outcome {
        correct: grade.failed == 0 && differ == 0 && report_recorded(&reference) == 0,
        attempted: grade.sent,
        failed: grade.failed + differ,
        metrics: layer_metrics(&traced, &plain, None, None, 0.0),
    })
}

/// Requests whose spans are written out; the metrics use every span.
const WRITTEN_REQUESTS: u32 = 20_000;

/// Spans are kept in memory during the replay and written out here.
fn write_spans(ctx: &Ctx, spans: &[trace::Span]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}-spans.tsv", ctx.kind.name(), ctx.seed));
    let text = trace::to_tsv(spans, |s| {
        s.request < WRITTEN_REQUESTS || s.request == u32::MAX
    });
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => say(&format!("spans written to {}", path.display())),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// The program under test: the commit when the checkout is a git
/// repository, and always a digest of the sources the binary is built
/// from.
fn provenance() -> (String, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut stack = vec![root.join("src"), root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut digest = Vec::new();
    for file in &files {
        digest.extend_from_slice(
            file.strip_prefix(&root)
                .unwrap_or(file)
                .as_os_str()
                .as_encoded_bytes(),
        );
        digest.extend(std::fs::read(file).unwrap_or_default());
    }
    (commit, format!("{:016x}", client::fnv(&digest)))
}

fn run_once(ctx: &Ctx) -> ExitCode {
    let nproc = procfs::nproc();
    let (commit, source) = provenance();
    let program = if ctx.kind.is_serve() {
        "serve"
    } else {
        "batch --input -"
    };
    say(&format!(
        "servebench workload={} seed={} seconds={} trace={} nproc={nproc} commit={commit} source={source}",
        ctx.kind.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    ));
    say(&format!(
        "program: gaps {program} {}",
        ctx.flags().join(" ")
    ));
    if nproc != RECORDED_NPROC {
        eprintln!(
            "servebench: nproc is {nproc}, but the offered rates were calibrated with nproc {RECORDED_NPROC}; no numbers"
        );
        return ExitCode::from(2);
    }
    let result = match (ctx.kind.is_serve(), ctx.trace) {
        (true, false) => serve_end_to_end(ctx),
        (true, true) => serve_traced(ctx),
        (false, false) => batch_end_to_end(ctx),
        (false, true) => batch_traced(ctx),
    };
    match result {
        Ok(outcome) => {
            say(&format!(
                "result: correct={} attempted={} failed={}",
                outcome.correct, outcome.attempted, outcome.failed
            ));
            for m in &outcome.metrics {
                say(&format!("metric {} {} {}", m.name, m.value, m.unit));
            }
            say(&outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: answers differ from the reference; see above");
                ExitCode::from(1)
            }
        }
        Err(Invalid(reason)) => {
            eprintln!("servebench: {reason}; no numbers");
            ExitCode::from(2)
        }
    }
}

/// `--repeat N`: run the workload N times, each in a fresh process with
/// its own seed, and print each end-to-end metric's spread.
fn repeat(ctx: &Ctx, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("servebench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for k in 0..runs as u64 {
        let seed = ctx.seed + k;
        let output = std::process::Command::new(&exe)
            .arg("--gaps")
            .arg(&ctx.gaps)
            .args(["--workload", ctx.kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("servebench: run with seed {seed} failed ({})", o.status);
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("servebench: cannot run: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        for line in text.lines() {
            let mut parts = line.split(' ');
            if let (Some("metric"), Some(name), Some(value), Some(unit)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                let entry = values
                    .entry(name.to_string())
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                entry.1.push(value.parse().unwrap_or(f64::NAN));
            }
        }
        say(&format!("run {} (seed {seed}) done", k + 1));
    }
    say(&format!(
        "{} x {} (seeds {}..{}), seconds {}",
        runs,
        ctx.kind.name(),
        ctx.seed,
        ctx.seed + runs as u64 - 1,
        ctx.seconds
    ));
    say("metric unit min q1 median q3 max spread");
    for (name, (unit, v)) in &values {
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let spread = stats::spread(v).unwrap_or(f64::NAN);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        say(&format!(
            "{name} {unit} {min:.6} {q1:.6} {:.6} {q3:.6} {max:.6} {spread:.4}{}",
            stats::median(v),
            if spread > 0.1 { " SPREAD>0.1" } else { "" }
        ));
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: servebench --gaps PATH --workload serve_hot|serve_cold|batch_coupled \
         [--seed N] [--seconds S] [--trace 0|1] [--repeat N]\n       servebench --record"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record") {
        return match check::record_all() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(&key[2..], value);
            }
            _ => return usage(),
        }
    }
    let number = |key: &str, default: u64| -> Option<u64> {
        flags.get(key).map_or(Some(default), |v| v.parse().ok())
    };
    let (Some(kind), Some(gaps), Some(seed), Some(seconds), Some(trace), Some(runs)) = (
        flags.get("workload").and_then(|w| Kind::parse(w)),
        flags.get("gaps").map(PathBuf::from),
        number("seed", workload::DEFAULT_SEED),
        number("seconds", 15),
        number("trace", 0),
        number("repeat", 0),
    ) else {
        return usage();
    };
    if seconds == 0 || trace > 1 {
        return usage();
    }
    let ctx = Ctx {
        gaps,
        kind,
        seed,
        seconds,
        trace: trace == 1,
    };
    if runs > 0 {
        repeat(&ctx, runs as usize)
    } else {
        run_once(&ctx)
    }
}
