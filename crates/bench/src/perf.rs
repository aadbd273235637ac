//! Machine-readable performance trajectory for the batch engine.
//!
//! `experiments --json PATH` runs [`engine_trajectory`] and writes each
//! benchmark's minimum, median and maximum wall-clock time as JSON
//! (`BENCH_engine.json` by convention), seeding the perf-trajectory files
//! that later PRs compare against. The same workload builder feeds the
//! criterion bench (`benches/bench_engine.rs`), so the two views measure
//! the same thing.
//!
//! JSON is hand-rolled (the workspace is offline — no serde); the schema
//! is deliberately flat:
//!
//! ```json
//! {
//!   "suite": "engine",
//!   "benchmarks": [
//!     {"name": "batch_cold/threads=1", "min_ns": 120, "median_ns": 123, "max_ns": 131, "samples": 5}
//!   ],
//!   "derived": {"speedup_threads4_over_threads1": 2.5, "warm_hit_rate": 1.0}
//! }
//! ```

use gaps_core::instance::MultiInstance;
use gaps_engine::{BatchInstance, Engine, EngineConfig, Objective};
use gaps_workloads::{multi_interval, one_interval};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One measured benchmark: a name and the spread of its wall clock.
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Benchmark id, e.g. `batch_cold/threads=4`.
    pub name: String,
    /// Fastest sample, in nanoseconds.
    pub min_ns: u128,
    /// Median wall-clock over the samples, in nanoseconds.
    pub median_ns: u128,
    /// Slowest sample, in nanoseconds.
    pub max_ns: u128,
    /// Number of timed samples behind the three figures.
    pub samples: usize,
}

impl PerfResult {
    /// The median in seconds, for the derived ratios.
    fn median_s(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }
}

/// A named set of results plus derived scalar metrics.
#[derive(Clone, Debug, Default)]
pub struct PerfSuite {
    /// Suite id (`engine`).
    pub suite: String,
    /// Measured benchmarks, in execution order.
    pub results: Vec<PerfResult>,
    /// Derived metrics (`(name, value)`), e.g. thread speedups.
    pub derived: Vec<(String, f64)>,
}

impl PerfSuite {
    /// Serialize the suite; stable key order, no external crates.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(&self.suite)));
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"max_ns\": {}, \"samples\": {}}}{comma}\n",
                escape(&r.name),
                r.min_ns,
                r.median_ns,
                r.max_ns,
                r.samples
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": {");
        for (i, (name, value)) in self.derived.iter().enumerate() {
            let comma = if i + 1 < self.derived.len() { "," } else { "" };
            out.push_str(&format!("\n    \"{}\": {value:.4}{comma}", escape(name)));
        }
        if !self.derived.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A deterministic mixed batch exercising every router path: single- and
/// multi-processor one-interval instances (DP-heavy), zero-laxity chains
/// (forced fast path), and multi-interval instances (optimized exact
/// search). Instances are pairwise distinct, so a cold run gets no free
/// cache hits. The one-interval sizes were scaled ~1.5× in PR 3; the
/// multi-interval fifth was scaled again (12-job/2-slot `feasible_slots`
/// → 14-job/3-slot `banded`) alongside the `multi_exact` solver it now
/// routes to, so trajectory numbers before that change are not directly
/// comparable. The multi sizes sit inside the *brute-force* router caps
/// on purpose: the same batch must be solvable with `use_multi_exact`
/// off to measure the win (see [`engine_trajectory`]).
pub fn mixed_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    (0..count)
        .map(|i| match i % 5 {
            0 => BatchInstance::One(one_interval::feasible(&mut rng, 36, 72, 3, 1)),
            1 => BatchInstance::One(one_interval::uniform(&mut rng, 30, 60, 4, 2)),
            2 => BatchInstance::One(one_interval::bursty(&mut rng, 5, 6, 9, 3, 3, 2)),
            3 => BatchInstance::One(one_interval::fixed_laxity(&mut rng, 36, 90, 0, 1)),
            _ => BatchInstance::Multi(multi_interval::banded(&mut rng, 14, 3, 8, 2)),
        })
        .collect()
}

/// The scaled multi-interval bench family on its own: banded feasible
/// instances at the brute-force router ceiling (14 jobs), alternating
/// band shapes. Feeds the `multi_exact`-vs-`brute_force` comparison in
/// [`engine_trajectory`] and the `bench_multi_exact` criterion group.
pub fn multi_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0x4D171);
    (0..count)
        .map(|i| match i % 2 {
            0 => BatchInstance::Multi(multi_interval::banded(&mut rng, 14, 3, 8, 2)),
            _ => BatchInstance::Multi(multi_interval::banded(&mut rng, 12, 4, 5, 3)),
        })
        .collect()
}

/// Coupled-core family: banded instances whose `extra` slots are drawn
/// across bands, so the width-3 inter-band zones are (almost always)
/// crossed and decomposition cannot split the search. At 18 jobs each
/// instance clears the router's parallel threshold (17), making this the
/// workload behind `multi_exact_parallel_speedup` (the whole win must
/// come from the shared-incumbent subtree fan-out, not from peeling),
/// `multi_exact_nodes_per_ms` and `multi_exact_power_nodes_per_ms`.
pub fn coupled_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xC09E);
    (0..count)
        .map(|_| BatchInstance::Multi(multi_interval::banded(&mut rng, 18, 3, 8, 2)))
        .collect()
}

/// Decomposable family: four 6-job clusters separated by uncrossed dead
/// zones. The dead-zone decomposition peels each instance into (at
/// least) four independent searches.
pub fn decomposable_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    (0..count)
        .map(|_| BatchInstance::Multi(multi_interval::clustered(&mut rng, 4, 6, 8, 2, 5)))
        .collect()
}

/// The multi-interval instances of a batch, for solver-level
/// measurements that bypass the engine.
fn bare_multi(batch: Vec<BatchInstance>) -> Vec<MultiInstance> {
    batch
        .into_iter()
        .filter_map(|b| match b {
            BatchInstance::Multi(m) => Some(m),
            BatchInstance::One(_) => None,
        })
        .collect()
}

/// Time `samples` runs (at least one) of the benchmark `name`.
fn time_row(name: impl Into<String>, samples: usize, mut run: impl FnMut()) -> PerfResult {
    let mut ns: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    PerfResult {
        name: name.into(),
        min_ns: ns[0],
        median_ns: ns[ns.len() / 2],
        max_ns: ns[ns.len() - 1],
        samples: ns.len(),
    }
}

/// Measure engine batch throughput cold (fresh cache, threads 1/2/4) and
/// warm (second pass over the same engine), the multi-interval solvers,
/// and derive thread speedups, the warm-cache hit rate and the exact
/// search's node rates under gaps and under power. Every row is timed
/// `samples` times.
pub fn engine_trajectory(instances: usize, samples: usize) -> PerfSuite {
    let batch = mixed_batch(instances);
    let mut suite = PerfSuite {
        suite: "engine".to_string(),
        ..PerfSuite::default()
    };
    let mut cold_medians = Vec::new();
    for threads in [1usize, 2, 4] {
        let row = time_row(format!("batch_cold/threads={threads}"), samples, || {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let (lines, _) = engine.run_batch(&batch, Objective::Gaps);
            assert_eq!(lines.len(), batch.len());
        });
        cold_medians.push((threads, row.median_s()));
        suite.results.push(row);
    }

    // Warm pass: same engine, second time around — measures cache + pool
    // overhead with solving almost fully short-circuited.
    let engine = Engine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let (_, _) = engine.run_batch(&batch, Objective::Gaps);
    let mut warm_hit_rate = 0.0;
    let warm = time_row("batch_warm/threads=4", samples, || {
        let (_, report) = engine.run_batch(&batch, Objective::Gaps);
        warm_hit_rate = report.hit_rate();
    });
    let warm_median = warm.median_s();
    suite.results.push(warm);

    // Multi-interval exact path: the optimized solver vs the brute-force
    // reference on the same scaled batch (cold cache per sample, one
    // thread — this is a solver comparison, not a scaling test).
    let multi = multi_batch((instances / 5).max(20));
    let mut exact_medians = Vec::new();
    for (name, use_multi_exact) in [
        ("multi_cold/multi_exact", true),
        ("multi_cold/brute_force", false),
    ] {
        let row = time_row(name, samples, || {
            let engine = Engine::new(EngineConfig {
                threads: 1,
                router: gaps_engine::RouterConfig {
                    use_multi_exact,
                    ..gaps_engine::RouterConfig::default()
                },
                ..EngineConfig::default()
            });
            let (lines, report) = engine.run_batch(&multi, Objective::Gaps);
            assert_eq!(lines.len(), multi.len());
            let expected = if use_multi_exact {
                "multi_exact"
            } else {
                "brute_force"
            };
            assert_eq!(
                report.solver_counts.get(expected).copied().unwrap_or(0) as u64,
                report.cache_misses,
                "whole batch must take the {expected} path"
            );
        });
        exact_medians.push(row.median_s());
        suite.results.push(row);
    }

    // PR-10 levers, measured solver-side (no engine cache in the way).
    // (a) Decomposition: the production decomposed path on clustered
    // instances. (`solve_multi_undecomposed` stays the differential
    // reference; production never runs it, so it is not timed here.)
    use gaps_core::multi_exact::{self, MultiObjective};
    let decomposable = bare_multi(decomposable_batch((instances / 10).max(10)));
    suite
        .results
        .push(time_row("multi_decomposed/clustered", samples, || {
            for inst in &decomposable {
                let (res, stats) = multi_exact::solve_multi_stats(inst, MultiObjective::Gaps);
                assert!(res.is_some() && stats.component_jobs.len() >= 4);
            }
        }));

    // (b) Parallel branch-and-bound: the shared-incumbent subtree
    // fan-out at one worker per CPU vs the sequential solver that
    // `--threads 1` and every instance under the parallel threshold run,
    // on coupled cores decomposition cannot split. Optima and witness
    // schedules must be bit-identical — a nondeterministic speedup would
    // be worthless.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let coupled = bare_multi(coupled_batch((instances / 10).max(10)));
    let mut coupled_nodes = 0u64;
    let reference: Vec<_> = coupled
        .iter()
        .map(|inst| {
            let (res, stats) = multi_exact::solve_multi_stats(inst, MultiObjective::Gaps);
            coupled_nodes += stats.nodes_expanded;
            res
        })
        .collect();
    let sequential = time_row("multi_sequential/solve_multi_stats", samples, || {
        for inst in &coupled {
            assert!(multi_exact::solve_multi_stats(inst, MultiObjective::Gaps)
                .0
                .is_some());
        }
    });
    let parallel = time_row(format!("multi_parallel/threads={nproc}"), samples, || {
        for (inst, expect) in coupled.iter().zip(&reference) {
            let (res, _) =
                gaps_engine::parallel::solve_multi_parallel(inst, MultiObjective::Gaps, nproc);
            assert_eq!(&res, expect, "parallel optimum diverged at {nproc} workers");
        }
    });
    let (sequential_median, parallel_median) = (sequential.median_s(), parallel.median_s());
    suite.results.push(sequential);
    suite.results.push(parallel);

    // (c) The power search on the same coupled cores: it prunes on its
    // own admissible slot-union floor, so its node count and rate are
    // tracked apart from the gaps search's.
    let power = MultiObjective::Power { alpha: 2 };
    let power_nodes: u64 = coupled
        .iter()
        .map(|inst| multi_exact::solve_multi_stats(inst, power).1.nodes_expanded)
        .sum();
    let power_row = time_row("multi_sequential_power/alpha=2", samples, || {
        for inst in &coupled {
            assert!(multi_exact::solve_multi_stats(inst, power).0.is_some());
        }
    });
    let power_median = power_row.median_s();
    suite.results.push(power_row);

    let cold1 = cold_medians[0].1;
    for &(threads, median) in &cold_medians[1..] {
        suite.derived.push((
            format!("speedup_threads{threads}_over_threads1"),
            cold1 / median.max(f64::EPSILON),
        ));
    }
    suite.derived.push((
        "warm_speedup_over_cold_threads4".to_string(),
        cold_medians[2].1 / warm_median.max(f64::EPSILON),
    ));
    suite
        .derived
        .push(("warm_hit_rate".to_string(), warm_hit_rate));
    suite.derived.push((
        "multi_exact_speedup_over_brute_force".to_string(),
        exact_medians[1] / exact_medians[0].max(f64::EPSILON),
    ));
    suite.derived.push((
        "multi_exact_parallel_speedup".to_string(),
        sequential_median / parallel_median.max(f64::EPSILON),
    ));
    // Search nodes per millisecond of the sequential coupled row: the
    // per-node cost of the exact search, independent of how many nodes
    // a change to the search itself would save.
    suite.derived.push((
        "multi_exact_nodes_per_ms".to_string(),
        coupled_nodes as f64 / (sequential_median * 1e3).max(f64::EPSILON),
    ));
    suite.derived.push((
        "multi_exact_power_nodes_per_ms".to_string(),
        power_nodes as f64 / (power_median * 1e3).max(f64::EPSILON),
    ));
    // The speedup is bounded by the CPUs the run had, so record them.
    suite.derived.push(("nproc".to_string(), nproc as f64));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_is_deterministic_and_distinctly_shaped() {
        let a = mixed_batch(10);
        let b = mixed_batch(10);
        assert_eq!(a, b);
        assert!(a.iter().any(|i| i.kind_label() == "one"));
        assert!(a.iter().any(|i| i.kind_label() == "multi"));
    }

    #[test]
    fn trajectory_produces_benchmarks_and_derived_metrics() {
        let suite = engine_trajectory(20, 2);
        assert_eq!(suite.suite, "engine");
        assert_eq!(suite.results.len(), 10);
        assert!(suite.results.iter().all(|r| r.samples == 2
            && 0 < r.min_ns
            && r.min_ns <= r.median_ns
            && r.median_ns <= r.max_ns));
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let rows: Vec<&str> = suite.results.iter().map(|r| r.name.as_str()).collect();
        assert!(rows.contains(&format!("multi_parallel/threads={nproc}").as_str()));
        assert!(rows.contains(&"multi_sequential_power/alpha=2"));
        assert!(!rows.contains(&"multi_undecomposed/clustered"));
        let names: Vec<&str> = suite.derived.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"warm_hit_rate"));
        assert!(names.contains(&"speedup_threads4_over_threads1"));
        assert!(names.contains(&"multi_exact_speedup_over_brute_force"));
        assert!(names.contains(&"multi_exact_parallel_speedup"));
        assert!(names.contains(&"multi_exact_nodes_per_ms"));
        assert!(names.contains(&"multi_exact_power_nodes_per_ms"));
        assert!(!names.contains(&"decomposition_speedup"));
        assert!(names.contains(&"nproc"));
        let hit_rate = suite
            .derived
            .iter()
            .find(|(n, _)| n == "warm_hit_rate")
            .unwrap()
            .1;
        assert!(hit_rate > 0.99, "warm pass should hit: {hit_rate}");
    }

    #[test]
    fn one_worker_memo_expands_each_coupled_state_once() {
        use gaps_core::multi_exact::{self, MultiObjective};
        use gaps_engine::parallel::solve_multi_parallel;
        // One worker runs the plan inline, in task order, on one memo: it
        // meets every root subtree the sequential root state scans, so it
        // expands the same states except that root state itself (0 vs 0
        // when the bounds close the instance).
        for (i, inst) in bare_multi(coupled_batch(8)).iter().enumerate() {
            let (seq, seq_stats) = multi_exact::solve_multi_stats(inst, MultiObjective::Gaps);
            let (plan, plan_stats) = solve_multi_parallel(inst, MultiObjective::Gaps, 1);
            assert_eq!(seq, plan, "instance {i}");
            let (seq_nodes, plan_nodes) = (seq_stats.nodes_expanded, plan_stats.nodes_expanded);
            assert!(
                plan_nodes <= seq_nodes && plan_nodes + 1 >= seq_nodes,
                "instance {i}: plan {plan_nodes} vs sequential {seq_nodes}"
            );
        }
    }

    #[test]
    fn power_optima_and_witnesses_are_pinned() {
        use gaps_core::multi_exact;
        // 64-bit FNV-1a over each instance's optimum and witness times,
        // per family and α. Pruning may change how many states the search
        // expands, never what it returns.
        fn digest(instances: &[MultiInstance], alpha: u64) -> u64 {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut feed = |word: i64| {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            };
            for inst in instances {
                let (value, sched) = multi_exact::min_power_multi(inst, alpha).unwrap();
                feed(value as i64);
                sched.times().iter().for_each(|&t| feed(t));
            }
            hash
        }
        let multi = bare_multi(multi_batch(200));
        let coupled = bare_multi(coupled_batch(60));
        let pins = [
            ("multi_batch", &multi, 1, 0xef1b_1319_8bcc_7361),
            ("multi_batch", &multi, 2, 0x7477_f04c_b369_4c77),
            ("multi_batch", &multi, 5, 0xa537_6b47_2ba5_561b),
            ("coupled_batch", &coupled, 1, 0x17ad_d422_867a_c3f7),
            ("coupled_batch", &coupled, 2, 0xe4cf_9b87_3113_aa22),
            ("coupled_batch", &coupled, 5, 0x641a_59fe_0f5f_0d68),
        ];
        let got: Vec<_> = pins
            .iter()
            .map(|&(family, instances, alpha, _)| (family, alpha, digest(instances, alpha)))
            .collect();
        let want: Vec<_> = pins.iter().map(|&(f, _, a, d)| (f, a, d)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let suite = PerfSuite {
            suite: "engine".into(),
            results: vec![PerfResult {
                name: "a/b=1".into(),
                min_ns: 40,
                median_ns: 42,
                max_ns: 45,
                samples: 5,
            }],
            derived: vec![("quote\"test".into(), 1.5)],
        };
        let json = suite.to_json();
        assert!(json.contains("\"min_ns\": 40, \"median_ns\": 42, \"max_ns\": 45"));
        assert!(json.contains("quote\\\"test"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"), "no trailing commas:\n{json}");
    }
}
