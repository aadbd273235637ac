//! Intra-instance parallel branch-and-bound driver.
//!
//! [`gaps_core::multi_exact::ParallelPlan`] exposes a solve as data —
//! decomposed components, each with a canonical root frontier and a
//! shared atomic incumbent — because the analyzer pins thread creation
//! to [`crate::pool`]. This module is the other half: it fans the
//! subtree tasks out over [`crate::pool::map_ordered_with`], giving each
//! worker one [`gaps_core::multi_exact::WorkerMemo`] for all the tasks it
//! runs plus a task counter, folds the outcomes back in task order, and
//! turns the per-worker counts into the *steal* statistic (`tasks run by
//! any worker but the first`) that `STATS v3` reports.
//!
//! Determinism: outcomes are reassembled by task index and
//! `ParallelPlan::finish` picks per-component winners by canonical root
//! order, so the returned value *and witness schedule* are bit-identical
//! for every thread count — the differential suite re-proves this at
//! `--threads 1/2/8` on every run. Only the node counts depend on which
//! worker ran which task.

use gaps_core::instance::MultiInstance;
use gaps_core::multi_exact::{MultiObjective, ParallelPlan, SearchStats};
use gaps_core::schedule::MultiSchedule;

use crate::pool;

/// Solve a multi-interval instance exactly with `threads` intra-instance
/// workers; `None` iff infeasible. With `threads <= 1` the plan still
/// runs (inline on one memo, no pool spawn) so the statistics stay
/// comparable.
///
/// The returned [`SearchStats`] carries nodes expanded, the component
/// size histogram, subtree task/steal counts, and incumbent updates.
pub fn solve_multi_parallel(
    inst: &MultiInstance,
    objective: MultiObjective,
    threads: usize,
) -> (Option<(u64, MultiSchedule)>, SearchStats) {
    let Some(plan) = ParallelPlan::new(inst, objective) else {
        return (None, SearchStats::default());
    };
    let tasks = plan.tasks();
    let (outcomes, steals) = if threads <= 1 || tasks.len() <= 1 {
        // Nothing to fan out: run inline and spare the scope setup.
        let mut memo = plan.worker_memo();
        let outcomes = tasks.iter().map(|t| plan.run_task(t, &mut memo)).collect();
        (outcomes, 0)
    } else {
        let (outcomes, workers) = pool::map_ordered_with(
            tasks,
            threads,
            || (plan.worker_memo(), 0u64),
            |(memo, executed), _, task| {
                *executed += 1;
                plan.run_task(&task, memo)
            },
        );
        (outcomes, workers.iter().skip(1).map(|(_, n)| n).sum())
    };
    let (value, sched, mut stats) = plan.finish(&outcomes);
    stats.subtree_steals = steals;
    (Some((value, sched)), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_core::multi_exact;

    fn inst(times: &[Vec<i64>]) -> MultiInstance {
        MultiInstance::from_times(times.to_vec()).unwrap()
    }

    /// A coupled core (no decomposition cuts) plus satellite bands: the
    /// shape the parallel path exists for.
    fn mixed_instance() -> MultiInstance {
        let mut jobs: Vec<Vec<i64>> = (0..10)
            .map(|j| (0..20).filter(|t| (t + j) % 3 != 0).collect())
            .collect();
        jobs.push(vec![40, 41]);
        jobs.push(vec![41, 42]);
        jobs.push(vec![60]);
        inst(&jobs)
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let i = mixed_instance();
        for obj in [
            MultiObjective::Gaps,
            MultiObjective::Spans,
            MultiObjective::Power { alpha: 4 },
        ] {
            let (seq, _) = multi_exact::solve_multi_stats(&i, obj);
            let (sv, ss) = seq.unwrap();
            for threads in [1usize, 2, 8] {
                let (par, stats) = solve_multi_parallel(&i, obj, threads);
                let (pv, ps) = par.unwrap();
                assert_eq!(sv, pv, "value diverged at {threads} threads");
                assert_eq!(
                    ss.times(),
                    ps.times(),
                    "schedule diverged at {threads} threads"
                );
                assert!(stats.subtree_tasks > 0);
            }
        }
    }

    #[test]
    fn steals_are_zero_on_one_thread() {
        let (_, stats) = solve_multi_parallel(&mixed_instance(), MultiObjective::Spans, 1);
        assert_eq!(stats.subtree_steals, 0);
        assert!(stats.nodes_expanded > 0);
        assert_eq!(stats.component_jobs, vec![10, 2, 1]);
    }

    #[test]
    fn infeasible_instances_return_none() {
        let i = inst(&[vec![5], vec![5]]);
        let (res, _) = solve_multi_parallel(&i, MultiObjective::Gaps, 4);
        assert!(res.is_none());
    }
}
