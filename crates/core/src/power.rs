//! The power-consumption model and cost evaluation.
//!
//! A processor is either **active** (consuming 1 unit of energy per slot) or
//! **asleep** (consuming nothing); each transition sleep → active costs `α`.
//! A processor's total power is therefore
//!
//! ```text
//! power = (#active slots) + α · (#wake-ups)
//!       = (#active slots) + α · (#maximal active runs)
//! ```
//!
//! including the very first wake-up — this matches the paper's accounting
//! ("each job incurs power consumption of either 1 … or 1 + α", Section 3,
//! and "the optimal solution has a power consumption of n + M·α" for M
//! spans).
//!
//! Given a *schedule* (busy slots only), the optimal active profile is
//! forced per idle period: stay awake across a gap of length `g` iff
//! `g ≤ α`, making the gap cost `min(g, α)`. The functions here compute
//! both the forced-optimal cost of a schedule and the exact cost of an
//! explicit active profile (used to cross-check the simulator in E15).

use crate::schedule::{MultiSchedule, Schedule};
use crate::time::{runs_of, Time};

/// Largest transition cost α the exact power solvers accept. They add α
/// (and `1 + α`) per wake-up in `u64`; at most `u32::MAX` keeps
/// `n · (α + 1)` within `u64` for any `n < 2³¹` jobs, so no power cost can
/// wrap.
pub const MAX_ALPHA: u64 = u32::MAX as u64;

/// The `# Panics` contract of the exact power solvers' entry points: an α
/// above [`MAX_ALPHA`] could wrap a cost and yield a wrong optimum.
pub(crate) fn assert_alpha(alpha: u64) {
    assert!(
        alpha <= MAX_ALPHA,
        "alpha {alpha} exceeds MAX_ALPHA = {MAX_ALPHA} (u32::MAX), above which power costs can wrap u64"
    );
}

/// Power cost of one processor's sorted busy slots under transition cost
/// `alpha`, with optimal stay-awake decisions per gap:
/// `busy + α + Σ_gaps min(gap_len, α)` (0 if never busy).
pub fn processor_power(busy: &[Time], alpha: u64) -> u64 {
    if busy.is_empty() {
        return 0;
    }
    let runs = runs_of(busy);
    let mut cost = busy.len() as u64 + alpha; // execution + first wake-up
    for w in runs.windows(2) {
        let gap = (w[1].start - w[0].end - 1) as u64;
        cost += gap.min(alpha);
    }
    cost
}

/// Power cost of a multiprocessor schedule (sum over processors), with
/// optimal sleep decisions. This is the objective of the paper's Theorem 2
/// evaluated on a concrete schedule.
pub fn power_cost_multiproc(sched: &Schedule, processors: u32, alpha: u64) -> u64 {
    sched
        .busy_times(processors)
        .iter()
        .map(|busy| processor_power(busy, alpha))
        .sum()
}

/// Power cost of a single-processor multi-interval schedule, with optimal
/// sleep decisions — the objective of Theorem 3.
pub fn power_cost_single(sched: &MultiSchedule, alpha: u64) -> u64 {
    processor_power(&sched.occupied(), alpha)
}

/// Real-valued variant for the approximation pipeline, which accepts
/// non-integer `alpha`.
pub fn power_cost_single_f(sched: &MultiSchedule, alpha: f64) -> f64 {
    assert!(
        alpha >= 0.0 && alpha.is_finite(),
        "alpha must be finite and >= 0"
    );
    let occupied = sched.occupied();
    if occupied.is_empty() {
        return 0.0;
    }
    let runs = runs_of(&occupied);
    let mut cost = occupied.len() as f64 + alpha;
    for w in runs.windows(2) {
        let gap = (w[1].start - w[0].end - 1) as f64;
        cost += gap.min(alpha);
    }
    cost
}

/// Exact power cost of an explicit active profile: per processor, the
/// active slots must be sorted and deduplicated.
/// `Σ_q (|active_q| + α · runs(active_q))`.
///
/// # Panics
/// Debug-asserts that each profile is strictly increasing.
pub fn power_cost_of_active_profile(active: &[Vec<Time>], alpha: u64) -> u64 {
    active
        .iter()
        .map(|a| a.len() as u64 + alpha * crate::time::run_count(a) as u64)
        .sum()
}

/// The optimal active profile for a schedule: each processor is active in
/// its busy slots plus every gap of length ≤ `alpha` (bridging is exactly
/// break-even at `gap == alpha`; we bridge, which keeps costs equal and
/// wake-ups fewer).
pub fn optimal_active_profile(sched: &Schedule, processors: u32, alpha: u64) -> Vec<Vec<Time>> {
    sched
        .busy_times(processors)
        .iter()
        .map(|busy| {
            let mut active = Vec::with_capacity(busy.len());
            let runs = runs_of(busy);
            for (i, run) in runs.iter().enumerate() {
                active.extend(run.iter());
                if i + 1 < runs.len() {
                    let gap_len = (runs[i + 1].start - run.end - 1) as u64;
                    if gap_len <= alpha {
                        active.extend(run.end + 1..runs[i + 1].start);
                    }
                }
            }
            active
        })
        .collect()
}

/// A trivial lower bound on the optimal power of any feasible instance with
/// `n ≥ 1` jobs: all jobs execute (cost `n`) and at least one wake-up
/// happens (cost `α`).
pub fn power_lower_bound(n: usize, alpha: u64) -> u64 {
    if n == 0 {
        0
    } else {
        n as u64 + alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, MultiInstance};
    use crate::multi_exact::{self, MultiObjective};
    use crate::schedule::Schedule;
    use crate::{baptiste, power_dp};

    #[test]
    fn processor_power_basics() {
        assert_eq!(processor_power(&[], 5), 0);
        // Single span of 3: 3 + α.
        assert_eq!(processor_power(&[1, 2, 3], 5), 8);
        // Two spans with a gap of 2 and α = 5: bridge (cost 2).
        assert_eq!(processor_power(&[1, 2, 5], 5), 3 + 5 + 2);
        // Same with α = 1: sleep (cost 1 more wake-up).
        assert_eq!(processor_power(&[1, 2, 5], 1), 3 + 1 + 1);
        // Gap exactly α: both choices cost the same.
        assert_eq!(processor_power(&[0, 3], 2), 2 + 2 + 2);
    }

    #[test]
    fn multiproc_power_sums_processors() {
        let s = Schedule::from_pairs([(0, 0), (4, 0), (0, 1)]);
        // P0: busy {0,4}, gap 3; P1: busy {0}.
        assert_eq!(power_cost_multiproc(&s, 2, 2), (2 + 2 + 2) + (1 + 2));
        assert_eq!(power_cost_multiproc(&s, 2, 10), (2 + 10 + 3) + (1 + 10));
    }

    #[test]
    fn active_profile_is_consistent_with_forced_cost() {
        let s = Schedule::from_pairs([(0, 0), (4, 0), (0, 1)]);
        for alpha in 0..6 {
            let profile = optimal_active_profile(&s, 2, alpha);
            assert_eq!(
                power_cost_of_active_profile(&profile, alpha),
                power_cost_multiproc(&s, 2, alpha),
                "alpha = {alpha}"
            );
        }
    }

    #[test]
    fn single_and_f64_agree_on_integers() {
        let m = MultiSchedule::new(vec![0, 2, 3, 9]);
        for alpha in 0u64..8 {
            assert_eq!(
                power_cost_single(&m, alpha) as f64,
                power_cost_single_f(&m, alpha as f64)
            );
        }
    }

    #[test]
    fn alpha_zero_counts_only_execution() {
        let m = MultiSchedule::new(vec![0, 5, 10]);
        assert_eq!(power_cost_single(&m, 0), 3);
    }

    #[test]
    fn lower_bound_sane() {
        assert_eq!(power_lower_bound(0, 9), 0);
        assert_eq!(power_lower_bound(4, 9), 13);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite")]
    fn f64_rejects_nan() {
        power_cost_single_f(&MultiSchedule::new(vec![0]), f64::NAN);
    }

    /// Two jobs eight idle slots apart: above α = 8 the gap is bridged, so
    /// the optimum is 2 busy slots + α + 8 = α + 10.
    fn far_pair() -> (Instance, MultiInstance) {
        let one = Instance::from_windows([(0, 0), (9, 9)], 1).expect("valid");
        let multi = MultiInstance::from_times([vec![0], vec![9]]).expect("valid");
        (one, multi)
    }

    #[test]
    fn power_solvers_are_exact_at_max_alpha() {
        let (one, multi) = far_pair();
        let want = MAX_ALPHA + 10;
        assert_eq!(power_dp::min_power_value(&one, MAX_ALPHA), Some(want));
        let sol = power_dp::min_power_schedule(&one, MAX_ALPHA).expect("feasible");
        assert_eq!(sol.power, want);
        assert_eq!(baptiste::min_power_value(&one, MAX_ALPHA), Some(want));
        let (power, _) = baptiste::min_power_schedule(&one, MAX_ALPHA).expect("feasible");
        assert_eq!(power, want);
        let (power, _) = multi_exact::min_power_multi(&multi, MAX_ALPHA).expect("feasible");
        assert_eq!(power, want);
        let objective = MultiObjective::Power { alpha: MAX_ALPHA };
        let (solved, _) = multi_exact::solve_multi_stats(&multi, objective);
        assert_eq!(solved.map(|(power, _)| power), Some(want));
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn power_dp_value_rejects_alpha_above_the_bound() {
        power_dp::min_power_value(&far_pair().0, MAX_ALPHA + 1);
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn power_dp_schedule_rejects_alpha_above_the_bound() {
        power_dp::min_power_schedule(&far_pair().0, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn baptiste_value_rejects_alpha_above_the_bound() {
        baptiste::min_power_value(&far_pair().0, u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn baptiste_schedule_rejects_alpha_above_the_bound() {
        baptiste::min_power_schedule(&far_pair().0, MAX_ALPHA + 1);
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn multi_exact_rejects_alpha_above_the_bound() {
        multi_exact::min_power_multi(&far_pair().1, u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "MAX_ALPHA")]
    fn multi_exact_stats_reject_alpha_above_the_bound() {
        let objective = MultiObjective::Power { alpha: u64::MAX };
        multi_exact::solve_multi_stats(&far_pair().1, objective);
    }
}
