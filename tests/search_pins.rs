//! Pins the `multi_exact` branch-and-bound's search effort on generated
//! coupled instances: the optimum and the number of nodes a
//! single-thread, cache-less engine solve expands.
//!
//! The two objectives' pins mean different things:
//!
//! * **Gaps.** The repository benchmark (`servebench`) keeps a
//!   `batch_coupled` draw only if exactly this kind of gaps solve expands
//!   30k–90k nodes, so the gaps counts decide which instances it
//!   measures. A change that moves them changes the benchmark's workload
//!   too: update them only together with the benchmark.
//! * **Power.** No benchmark selects by them. They track the power
//!   search's admissible slot-union floor: a change to that floor moves
//!   them, and should move them down.

use gap_scheduling::engine::{BatchInstance, Engine, EngineConfig, Objective};
use gap_scheduling::workloads::multi_interval;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What `gaps generate --kind multi --seed {seed} --n 18 --horizon 54`
/// emits: an 18-job coupled core.
fn generated(seed: u64) -> BatchInstance {
    BatchInstance::Multi(multi_interval::feasible_slots(
        &mut StdRng::seed_from_u64(seed),
        18,
        54,
        2,
    ))
}

/// Solve on a fresh 1-thread engine without a cache; returns the result
/// body and the nodes the search expanded.
fn solve(inst: &BatchInstance, objective: Objective) -> (String, u64) {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let outcome = engine.solve_request(inst, objective, false);
    (
        outcome.body,
        engine.metrics().search_totals().nodes_expanded,
    )
}

#[test]
fn generated_coupled_instances_expand_pinned_node_counts() {
    let power = Objective::Power { alpha: 2 };
    let pins = [
        (5, Objective::Gaps, "gaps=5", 71_818),
        (5, power, "power=28", 69_612),
        (7, Objective::Gaps, "gaps=5", 35_968),
        (7, power, "power=27", 29_136),
    ];
    for (seed, objective, value, nodes) in pins {
        let (body, expanded) = solve(&generated(seed), objective);
        assert_eq!(
            body,
            format!("multi n=18 {value} solver=multi_exact"),
            "seed {seed} {objective:?}"
        );
        assert_eq!(expanded, nodes, "seed {seed} {objective:?}: nodes expanded");
    }
}
