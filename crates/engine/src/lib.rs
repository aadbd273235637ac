//! # gaps-engine
//!
//! A concurrent batch-solving layer between the paper's solvers and the
//! outside world: accept a *stream* of scheduling instances, solve each
//! with the best-fitting algorithm, and answer at scale.
//!
//! The pipeline, per request:
//!
//! 1. **Canonicalize** ([`canonical`]) — dead-zone compression
//!    (`gaps_core::compress`) plus job sorting normalizes away time
//!    shifts, job order, and dead time, yielding a cache key under which
//!    equivalent instances collide.
//! 2. **Cache** ([`cache`]) — a sharded LRU maps canonical keys to
//!    finished result lines; hits skip solving entirely.
//! 3. **Route** ([`router`]) — misses go to a portfolio router that picks
//!    a solver from the instance's shape (one- vs. multi-interval,
//!    processor count, laxity, size, objective, α), with a configurable
//!    fallback chain for instances no exact solver can take.
//! 4. **Execute** ([`pool`]) — a fixed worker pool built on the
//!    `crossbeam` scope + bounded-channel stubs runs requests in
//!    parallel and reassembles results in input order, so output is
//!    deterministic for any thread count.
//!
//! Per-batch latency, cache, and router metrics land in an
//! [`EngineReport`] ([`metrics`]).
//!
//! ```
//! use gaps_engine::{Engine, EngineConfig, Objective};
//!
//! let text = "\
//! instance v1
//! processors 1
//! job 0 2
//! job 1 3
//! instance v1
//! processors 1
//! job 100 102
//! job 101 103
//! ";
//! let engine = Engine::new(EngineConfig::default());
//! let (out, report) = engine.run_batch_text(text, Objective::Gaps).unwrap();
//! assert_eq!(out.lines().count(), 2);
//! // The second instance is a time-shifted copy of the first: the
//! // canonicalized cache collapses them into one solve. (Served on one
//! // thread here, so the hit is guaranteed; with more threads the two
//! // requests can race to a double-miss — the *output* stays identical
//! // either way, see `tests/engine_batch.rs`.)
//! assert_eq!(report.cache_hits, 1);
//! ```

pub mod cache;
pub mod canonical;
pub mod metrics;
pub mod online;
pub mod parallel;
pub mod pool;
pub mod router;

pub use cache::{CacheStats, ShardedCache};
pub use metrics::{
    summarize_latencies, EngineReport, Histogram, LatencySummary, MetricsRegistry, MetricsSnapshot,
    RatioStats, SearchTotals,
};
pub use online::{OnlineSummary, OnlineTracker, SessionState};
pub use router::{FallbackSolver, Features, RouterConfig, SolverKind};

use gaps_core::instance::{Instance, MultiInstance};
use gaps_workloads::serialize;
use std::time::Instant;

/// Largest accepted transition cost α. The power solvers add α (and
/// `1 + α`) per wake-up in `u64`; at most `u32::MAX` keeps `n · (α + 1)`
/// within `u64` for any `n < 2³¹` jobs, so no power cost can wrap.
pub const MAX_ALPHA: u64 = u32::MAX as u64;

/// Accept `alpha` if it is at most [`MAX_ALPHA`]; otherwise an error that
/// names the bound.
pub fn check_alpha(alpha: u64) -> Result<u64, String> {
    if alpha <= MAX_ALPHA {
        Ok(alpha)
    } else {
        Err(format!(
            "alpha {alpha} is too large: at most {MAX_ALPHA} (u32::MAX) keeps power costs within u64"
        ))
    }
}

/// What to minimize, batch-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Number of gaps (idle periods) — the paper's Theorem 1 objective.
    Gaps,
    /// Number of spans (wake-ups).
    Spans,
    /// Total power: active slots + `alpha` per wake-up (Theorem 2).
    Power {
        /// Transition (wake-up) cost.
        alpha: u64,
    },
}

impl Objective {
    /// Parse the CLI spelling (`gaps` / `spans` / `power` + alpha);
    /// `power` rejects an alpha above [`MAX_ALPHA`].
    pub fn parse(name: &str, alpha: u64) -> Result<Objective, String> {
        match name {
            "gaps" => Ok(Objective::Gaps),
            "spans" => Ok(Objective::Spans),
            "power" => Ok(Objective::Power {
                alpha: check_alpha(alpha)?,
            }),
            other => Err(format!("unknown objective {other:?}")),
        }
    }

    /// The result-line label (`gaps=…`, `spans=…`, `power=…`).
    pub fn label(self) -> &'static str {
        match self {
            Objective::Gaps => "gaps",
            Objective::Spans => "spans",
            Objective::Power { .. } => "power",
        }
    }

    /// Cache-key prefix; includes `alpha` because the power optimum (and
    /// power compression) depend on it.
    pub fn cache_tag(self) -> String {
        match self {
            Objective::Gaps => "gaps".to_string(),
            Objective::Spans => "spans".to_string(),
            Objective::Power { alpha } => format!("power:{alpha}"),
        }
    }
}

/// Either flavor of instance the batch stream can carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchInstance {
    /// Release/deadline jobs on `p` processors (`instance v1`).
    One(Instance),
    /// Allowed-slot jobs on one processor (`multi v1`).
    Multi(MultiInstance),
}

impl BatchInstance {
    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        match self {
            BatchInstance::One(inst) => inst.job_count(),
            BatchInstance::Multi(inst) => inst.job_count(),
        }
    }

    /// Result-line tag: `one` or `multi`.
    pub fn kind_label(&self) -> &'static str {
        match self {
            BatchInstance::One(_) => "one",
            BatchInstance::Multi(_) => "multi",
        }
    }
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Total result-cache entries across shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Cache shard (lock) count.
    pub cache_shards: usize,
    /// Portfolio router configuration.
    pub router: RouterConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 1,
            cache_capacity: 4096,
            cache_shards: 16,
            router: RouterConfig::default(),
        }
    }
}

/// The solving engine. Construct once, feed it forever: the result
/// cache and the [`MetricsRegistry`] persist across every
/// [`Engine::run_batch`] / [`Engine::solve_request`] call, so repeated
/// traffic gets warm-cache latencies and the metrics reflect the whole
/// lifetime — which is exactly what a long-running service snapshots.
pub struct Engine {
    config: EngineConfig,
    cache: ShardedCache,
    metrics: MetricsRegistry,
}

/// What the engine hands back for one request.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// Result body: `<one|multi> n=<jobs> <payload> solver=<tag>` — the
    /// batch result line minus its leading index, and the serve `RES`
    /// body after the request id, so the two surfaces are bit-identical
    /// by construction.
    pub body: String,
    /// Which solver ran (`None` on a cache hit).
    pub solver: Option<SolverKind>,
    /// Answered from the result cache.
    pub cache_hit: bool,
    /// Served by the degraded shed chain.
    pub shed: bool,
    /// Request wall clock.
    pub elapsed: std::time::Duration,
}

impl Engine {
    /// Build an engine. A router `multi_exact_threads` of 0 ("inherit")
    /// resolves to the engine's worker-thread count here, so big
    /// multi-interval instances get intra-instance parallelism from the
    /// same `--threads` knob that fans batches out.
    pub fn new(mut config: EngineConfig) -> Engine {
        if config.router.multi_exact_threads == 0 {
            config.router.multi_exact_threads = config.threads.max(1);
        }
        let cache = ShardedCache::new(config.cache_capacity, config.cache_shards);
        Engine {
            config,
            cache,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime cache statistics (across every batch served so far).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine-lifetime metrics registry (every request ever solved,
    /// whichever surface it arrived on).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Solve one instance through the full canonicalize → cache → route
    /// pipeline. This is the shared engine loop: `run_batch` fans it out
    /// over the ordered pool, the serve daemon calls it per request.
    ///
    /// With `shed` set the router runs a degraded config
    /// ([`RouterConfig::shed`]) and the result is **not** cached: a shed
    /// answer may be approximate where the normal route is exact, and
    /// caching it would poison later full-service requests for the same
    /// canonical key. Cache *reads* still happen — an exact answer that
    /// is already paid for is the cheapest possible response.
    pub fn solve_request(
        &self,
        inst: &BatchInstance,
        objective: Objective,
        shed: bool,
    ) -> RequestOutcome {
        self.solve_routed(inst, objective, &self.config.router, shed)
    }

    /// [`Engine::solve_request`] under the given router configuration
    /// (the batch path passes one with its intra-instance thread share).
    fn solve_routed(
        &self,
        inst: &BatchInstance,
        objective: Objective,
        router: &RouterConfig,
        shed: bool,
    ) -> RequestOutcome {
        let request_start = Instant::now();
        let flavor = inst.kind_label();
        let jobs = inst.job_count();
        let form = canonical::canonicalize(inst, objective);
        let (payload, solver, cache_hit) = match self.cache.get(&form.key) {
            Some(cached) => (cached, None, true),
            None if shed => {
                let (kind, body) = router::solve_observed(
                    &form.instance,
                    objective,
                    &router.shed(),
                    Some(&self.metrics),
                );
                (format!("{body} solver={}", kind.name()), Some(kind), false)
            }
            None => {
                let (kind, body) =
                    router::solve_observed(&form.instance, objective, router, Some(&self.metrics));
                let payload = format!("{body} solver={}", kind.name());
                self.cache.insert(form.key, payload.clone());
                (payload, Some(kind), false)
            }
        };
        let elapsed = request_start.elapsed();
        self.metrics
            .record_request(solver.map(SolverKind::name), cache_hit, shed, elapsed);
        RequestOutcome {
            body: format!("{flavor} n={jobs} {payload}"),
            solver,
            cache_hit,
            shed,
            elapsed,
        }
    }

    /// Solve a batch, returning one result line per instance — in input
    /// order, independent of thread count — plus the batch report.
    ///
    /// The engine's threads are split between the two levels of
    /// parallelism: `min(threads, instances)` instance workers, and
    /// `threads / min(threads, instances)` (at least 1, at most the
    /// router's `multi_exact_threads`) branch-and-bound workers inside
    /// each instance. A stream of big instances therefore solves each one
    /// sequentially, while a lone instance still fans out.
    ///
    /// Line format:
    /// `<index> <one|multi> n=<jobs> <payload> solver=<tag>` where the
    /// payload is `gaps=2` (exact), `power<=9.50` (upper bound),
    /// `gaps>=1` (lower bound), or `infeasible`.
    pub fn run_batch(
        &self,
        instances: &[BatchInstance],
        objective: Objective,
    ) -> (Vec<String>, EngineReport) {
        let start = Instant::now();
        let search_before = self.metrics.search_totals();
        let threads = self.config.threads.max(1);
        let share = threads / threads.min(instances.len()).max(1);
        let router = RouterConfig {
            multi_exact_threads: share.min(self.config.router.multi_exact_threads),
            ..self.config.router.clone()
        };
        let refs: Vec<&BatchInstance> = instances.iter().collect();
        let outcomes = pool::map_ordered(refs, threads, |index, inst| {
            let outcome = self.solve_routed(inst, objective, &router, false);
            (format!("{index} {}", outcome.body), outcome)
        });

        let mut report = EngineReport {
            requests: outcomes.len(),
            threads,
            cache_entries: self.cache.len(),
            ..EngineReport::default()
        };
        let mut latencies = Vec::with_capacity(outcomes.len());
        let mut lines = Vec::with_capacity(outcomes.len());
        let mut by_solver: std::collections::BTreeMap<&'static str, Vec<std::time::Duration>> =
            std::collections::BTreeMap::new();
        for (line, outcome) in outcomes {
            if outcome.cache_hit {
                report.cache_hits += 1;
            } else {
                report.cache_misses += 1;
            }
            if let Some(kind) = outcome.solver {
                *report.solver_counts.entry(kind.name()).or_insert(0) += 1;
                by_solver
                    .entry(kind.name())
                    .or_default()
                    .push(outcome.elapsed);
            }
            latencies.push(outcome.elapsed);
            lines.push(line);
        }
        report.solver_latency = by_solver
            .into_iter()
            .map(|(name, samples)| (name, summarize_latencies(samples)))
            .collect();
        report.latency = summarize_latencies(latencies);
        report.search = self.metrics.search_totals().since(&search_before);
        report.wall = start.elapsed();
        (lines, report)
    }

    /// [`Engine::run_batch`] over a concatenated-instance text stream
    /// (see [`split_stream`]); returns the newline-joined result block.
    pub fn run_batch_text(
        &self,
        text: &str,
        objective: Objective,
    ) -> Result<(String, EngineReport), String> {
        let instances = split_stream(text)?;
        let (lines, report) = self.run_batch(&instances, objective);
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        Ok((out, report))
    }
}

/// Split a text stream of concatenated instances (each starting with an
/// `instance v1` or `multi v1` header, exactly the `gaps_workloads`
/// serialize format) into parsed instances. Comments and blank lines are
/// allowed anywhere, including before the first header.
pub fn split_stream(text: &str) -> Result<Vec<BatchInstance>, String> {
    let mut chunks: Vec<(usize, String)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line == "instance v1" || line == "multi v1" {
            chunks.push((lineno + 1, String::new()));
        } else if chunks.is_empty() && !line.is_empty() && !line.starts_with('#') {
            return Err(format!(
                "line {}: expected an 'instance v1' or 'multi v1' header, got {line:?}",
                lineno + 1
            ));
        }
        if let Some((_, chunk)) = chunks.last_mut() {
            chunk.push_str(raw);
            chunk.push('\n');
        }
    }
    chunks
        .into_iter()
        .map(|(lineno, chunk)| {
            let parsed = if chunk.trim_start().starts_with("multi v1") {
                serialize::multi_from_text(&chunk).map(BatchInstance::Multi)
            } else {
                serialize::instance_from_text(&chunk).map(BatchInstance::One)
            };
            parsed.map_err(|e| format!("instance starting at line {lineno}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_core::instance::Instance;
    use gaps_workloads::{multi_interval, one_interval};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_stream(count: usize) -> Vec<BatchInstance> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(match i % 4 {
                0 => BatchInstance::One(one_interval::feasible(&mut rng, 6, 12, 2, 1)),
                1 => BatchInstance::One(one_interval::uniform(&mut rng, 5, 10, 3, 2)),
                2 => BatchInstance::Multi(multi_interval::feasible_slots(&mut rng, 5, 9, 2)),
                _ => BatchInstance::One(one_interval::fixed_laxity(&mut rng, 6, 14, 0, 1)),
            });
        }
        out
    }

    #[test]
    fn power_alpha_is_bounded_where_the_objective_is_parsed() {
        assert_eq!(
            Objective::parse("power", MAX_ALPHA),
            Ok(Objective::Power { alpha: MAX_ALPHA })
        );
        for alpha in [MAX_ALPHA + 1, u64::MAX - 1, u64::MAX] {
            let err = Objective::parse("power", alpha).unwrap_err();
            assert!(err.contains(&MAX_ALPHA.to_string()), "{err}");
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let batch = mixed_stream(60);
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let (lines, report) = engine.run_batch(&batch, Objective::Gaps);
            assert_eq!(report.requests, 60);
            outputs.push(lines);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn cache_does_not_change_output_only_speed() {
        let batch = mixed_stream(40);
        let cached = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let uncached = Engine::new(EngineConfig {
            threads: 4,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let (with_cache, _) = cached.run_batch(&batch, Objective::Power { alpha: 2 });
        let (without_cache, report) = uncached.run_batch(&batch, Objective::Power { alpha: 2 });
        assert_eq!(with_cache, without_cache);
        assert_eq!(report.cache_hits, 0);
    }

    #[test]
    fn warm_cache_reports_hits() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let batch = mixed_stream(30);
        let (cold_lines, cold) = engine.run_batch(&batch, Objective::Gaps);
        let (warm_lines, warm) = engine.run_batch(&batch, Objective::Gaps);
        assert_eq!(cold_lines, warm_lines);
        assert_eq!(warm.cache_hits, 30, "every repeat request should hit");
        assert!(warm.hit_rate() > 0.99);
        assert!(cold.cache_misses > 0);
    }

    #[test]
    fn report_counts_solvers_and_latencies() {
        let engine = Engine::new(EngineConfig::default());
        let (_, report) = engine.run_batch(&mixed_stream(20), Objective::Gaps);
        assert_eq!(report.requests, 20);
        let solved: usize = report.solver_counts.values().sum();
        assert_eq!(solved as u64, report.cache_misses);
        assert!(report.latency.max >= report.latency.min);
        // Per-family latencies cover exactly the families that solved.
        let count_keys: Vec<_> = report.solver_counts.keys().collect();
        let latency_keys: Vec<_> = report.solver_latency.keys().collect();
        assert_eq!(count_keys, latency_keys);
        for lat in report.solver_latency.values() {
            assert!(lat.max <= report.latency.max);
        }
    }

    #[test]
    fn split_stream_parses_concatenated_instances() {
        let text = "# leading comment\n\ninstance v1\nprocessors 2\njob 0 3\n\nmulti v1\njob 1 4\njob 2\ninstance v1\nprocessors 1\n";
        let parsed = split_stream(text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].kind_label(), "one");
        assert_eq!(parsed[1].kind_label(), "multi");
        assert_eq!(parsed[2].job_count(), 0);
    }

    #[test]
    fn split_stream_rejects_junk() {
        assert!(split_stream("not a header\n").is_err());
        let err = split_stream("instance v1\nprocessors 1\njob zero 1\n").unwrap_err();
        assert!(err.contains("starting at line 1"), "err = {err}");
        assert!(split_stream("").unwrap().is_empty());
    }

    #[test]
    fn batch_text_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = one_interval::feasible(&mut rng, 5, 10, 2, 1);
        let b = multi_interval::feasible_slots(&mut rng, 4, 8, 1);
        let text = format!(
            "{}{}",
            serialize::instance_to_text(&a),
            serialize::multi_to_text(&b)
        );
        let engine = Engine::new(EngineConfig::default());
        let (out, report) = engine.run_batch_text(&text, Objective::Spans).unwrap();
        assert_eq!(report.requests, 2);
        assert_eq!(out.lines().count(), 2);
        assert!(out.starts_with("0 one n=5 spans="), "out = {out}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::new(EngineConfig::default());
        let (out, report) = engine.run_batch_text("", Objective::Gaps).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.requests, 0);
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    fn solve_request_body_matches_the_batch_line_tail() {
        let batch = mixed_stream(25);
        let batch_engine = Engine::new(EngineConfig::default());
        let (lines, _) = batch_engine.run_batch(&batch, Objective::Gaps);
        let request_engine = Engine::new(EngineConfig::default());
        for (i, inst) in batch.iter().enumerate() {
            let outcome = request_engine.solve_request(inst, Objective::Gaps, false);
            assert_eq!(format!("{i} {}", outcome.body), lines[i]);
        }
    }

    #[test]
    fn shed_requests_degrade_and_skip_the_cache_write() {
        let mut rng = StdRng::seed_from_u64(9);
        // Small multi-interval instance: normal routing is exact
        // (multi_exact); under shed it must take the fallback chain.
        let inst = BatchInstance::Multi(multi_interval::feasible_slots(&mut rng, 5, 9, 2));
        let engine = Engine::new(EngineConfig::default());
        let shed = engine.solve_request(&inst, Objective::Gaps, true);
        assert!(shed.shed);
        assert!(!shed.cache_hit);
        let solver = shed.solver.expect("shed requests still solve");
        assert!(
            matches!(solver, SolverKind::Lemma3Greedy | SolverKind::LowerBound),
            "shed routed to {solver:?}"
        );
        // The shed (possibly inexact) answer must not have been cached:
        // the same request at full service misses and solves exactly.
        let full = engine.solve_request(&inst, Objective::Gaps, false);
        assert!(!full.cache_hit, "shed result must not poison the cache");
        assert_eq!(full.solver, Some(SolverKind::MultiExact));
        // …and the exact answer IS cached, and served even to shed
        // requests (cache reads stay enabled under shed).
        let warm = engine.solve_request(&inst, Objective::Gaps, true);
        assert!(warm.cache_hit);
        assert_eq!(warm.body, full.body);
    }

    #[test]
    fn engine_metrics_accumulate_across_calls() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let batch = mixed_stream(30);
        engine.run_batch(&batch, Objective::Gaps);
        engine.run_batch(&batch, Objective::Gaps);
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.requests, 60);
        assert_eq!(snap.cache_hits + snap.cache_misses, 60);
        assert!(snap.cache_hits >= 30, "second pass should be all hits");
        assert_eq!(snap.latency.count(), 60);
        assert!(!snap.per_solver.is_empty());
    }

    #[test]
    fn batch_report_scopes_search_effort_to_the_batch() {
        use gaps_core::instance::MultiInstance;
        // A coupled core whose span optimum (2) strictly beats every
        // lower bound (the union is one run, so hosting/skeleton say 1):
        // the early-closed shortcut cannot fire and the search must open.
        // Satellites push the job count past the parallel threshold (17)
        // while staying inside the raised 64-job multi-exact cap.
        let mut jobs: Vec<Vec<i64>> = vec![
            vec![0, 1],
            vec![0, 1],
            vec![8, 9],
            vec![8, 9],
            vec![2, 3, 4, 5, 6, 7],
        ];
        for k in 0..12 {
            jobs.push(vec![100 + 3 * k, 101 + 3 * k]);
        }
        let inst = BatchInstance::Multi(MultiInstance::from_times(jobs).unwrap());
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let (lines, report) = engine.run_batch(std::slice::from_ref(&inst), Objective::Gaps);
        assert!(
            lines[0].contains("solver=multi_exact"),
            "raised caps should keep this on the exact path: {}",
            lines[0]
        );
        assert!(report.search.nodes_expanded > 0);
        assert!(report.search.subtree_tasks > 0, "parallel path should run");
        assert!(report.search.components.iter().sum::<u64>() > 0);
        // A second identical batch is a pure cache hit: its report must
        // show zero *new* search effort even though the lifetime totals
        // kept their history.
        let (_, warm) = engine.run_batch(std::slice::from_ref(&inst), Objective::Gaps);
        assert!(warm.search.is_empty(), "cache hit must not re-search");
        assert!(!engine.metrics().search_totals().is_empty());
    }

    #[test]
    fn a_batch_of_big_instances_solves_each_one_sequentially() {
        use gaps_core::multi_exact::{self, MultiObjective};
        // Coupled 18-job cores, each above the parallel threshold (17).
        // With an instance per worker the batch already uses both
        // threads, so no instance may fan its search out as well.
        let mut rng = StdRng::seed_from_u64(5);
        let batch: Vec<BatchInstance> = (0..2)
            .map(|_| BatchInstance::Multi(multi_interval::banded(&mut rng, 18, 3, 8, 2)))
            .collect();
        let sequential: u64 = batch
            .iter()
            .map(|inst| {
                let BatchInstance::Multi(multi) =
                    canonical::canonicalize(inst, Objective::Gaps).instance
                else {
                    unreachable!("canonical form keeps the flavor")
                };
                let (_, stats) = multi_exact::solve_multi_stats(&multi, MultiObjective::Gaps);
                stats.nodes_expanded
            })
            .sum();
        assert!(sequential > 0, "the bounds alone must not close both cores");
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let (lines, report) = engine.run_batch(&batch, Objective::Gaps);
        assert!(
            lines.iter().all(|l| l.contains("solver=multi_exact")),
            "{lines:?}"
        );
        assert_eq!(report.search.subtree_tasks, 0, "{:?}", report.search);
        assert_eq!(report.search.nodes_expanded, sequential);
    }

    #[test]
    fn equivalent_instances_collide_in_the_cache() {
        let engine = Engine::new(EngineConfig::default());
        let base = Instance::from_windows([(0, 2), (4, 5)], 1).unwrap();
        let shifted = Instance::from_windows([(1_000, 1_002), (1_004, 1_005)], 1).unwrap();
        let (lines, report) = engine.run_batch(
            &[BatchInstance::One(base), BatchInstance::One(shifted)],
            Objective::Gaps,
        );
        assert_eq!(report.cache_hits, 1, "shifted copy should hit");
        // Identical payload after the index column.
        let tail = |s: &str| s.split_once(' ').unwrap().1.to_string();
        assert_eq!(tail(&lines[0]), tail(&lines[1]));
    }
}
