//! Optimized exact solver for multi-interval instances — the engine's
//! replacement for routing multi-interval traffic to the deliberately
//! unoptimized [`crate::brute_force`] reference.
//!
//! All three objectives (gaps, spans, power) are supported and return
//! bit-identical optima to `brute_force`, which stays around as the
//! differential oracle (`tests/solver_differential.rs` re-proves the
//! equality on every run).
//!
//! # Why it is fast
//!
//! * **Time compression to critical times.** The solver never sweeps the
//!   timeline: it works on the sorted slot union (the instance's critical
//!   times) and the distances between consecutive occupied slots. A dead
//!   zone of any width contributes only its capped cost `min(width, α)`
//!   through the distance — the same argument `crate::compress` proves
//!   for the compression bijections, applied implicitly.
//! * **Connected-component decomposition.** Before any search opens, the
//!   timeline is cut at dead zones that no job's allowed window crosses
//!   (and, under power, that are at least `α` wide — see
//!   [`Cost::min_zone`]). No span of any schedule crosses such a zone and
//!   the crossing pair cost equals the split-off side's own
//!   first-placement cost, so the components solve independently and
//!   their optima **add** exactly. Exponential cost is paid only by the
//!   coupled core, never by the instance's full job count.
//! * **Left-to-right branch and bound.** Within a component, occupied
//!   slots are chosen in increasing time order, branching on *(next
//!   occupied slot, job placed there)*. Objective costs accrue
//!   incrementally per consecutive pair (`+1` span when a hole opens;
//!   `min(hole, α)` for power), so there is no per-leaf cost evaluation,
//!   and distinct slots are guaranteed by construction — no occupancy
//!   bitmask over slots.
//! * **Memoization keyed by [`crate::fasthash`].** The suffix value
//!   depends only on *(last occupied slot, set of placed jobs)*. The memo
//!   keeps one table per slot, keyed by the 64-bit placed-job mask, so an
//!   entry is 16 bytes and a probe hashes one word. That flips
//!   `brute_force`'s `jobs × 2^slots` state space to `slots × 2^jobs` —
//!   exponential in the (component-local, router-capped) job count
//!   instead of the slot count.
//! * **Constant-time bit work per node.** Job sets are `u64` masks: the
//!   jobs allowed at a slot, and per slot the prefix union of jobs due by
//!   it. A node's slot range ends at the first slot where an unplaced job
//!   falls due (one AND per slot, no scan over the jobs), its children
//!   are the set bits of `allowed & !placed` in ascending order, and the
//!   twin rule below is one AND.
//! * **Dominance pruning between interchangeable jobs.** Jobs with
//!   identical allowed-interval sets are interchangeable; branching
//!   places them in canonical index order, collapsing the `c!`
//!   permutations of each duplicate class to one.
//! * **Admissible lower bounds for early cutoff.** Feasibility is decided
//!   up front by matching (no tree exhaustion on infeasible instances);
//!   a Lemma 3 completion supplies an upper bound, and when the best of
//!   [`crate::lower_bounds`] (including the skeleton bound
//!   [`crate::lower_bounds::skeleton_spans_lower_bound`]) and the
//!   set-cover greedy relaxation
//!   ([`crate::lower_bounds::setcover_spans_relaxation`]) meets it, the
//!   search is skipped entirely. Inside the search, branches iterate in
//!   non-decreasing pair-cost order and cut off against the incumbent of
//!   their own state plus an admissible floor on the rest. Under power
//!   that floor is [`SlotFloor`]: the cheapest chain of distinct union
//!   slots for the jobs still to place, wake-ups and capped holes
//!   included, precomputed per component. A slot whose floor cannot beat
//!   the state's best is skipped, and the loop stops at the first slot
//!   from which no later slot can. Under spans the floor is 0. Both cuts
//!   are exact, because a skipped branch provably cannot improve the
//!   state's minimum.
//!
//! # Parallelism
//!
//! The module spawns no threads (the analyzer pins thread creation to
//! the engine's worker pool). Instead [`ParallelPlan`] exposes the
//! search as data: the decomposition, each component's **root frontier**
//! (the canonical first-placement branches), and a shared [`AtomicU64`]
//! incumbent per component. An external driver — `gaps_engine`'s
//! work-stealing pool — runs [`ParallelPlan::run_task`] on each
//! [`SubtreeTask`] in any order on any thread and folds the outcomes
//! with [`ParallelPlan::finish`]. The result is bit-identical to the
//! sequential solver for every thread count: each non-skipped subtree
//! reports its *exact* optimum, root-level skipping is strict
//! (`bound > incumbent`), so every subtree attaining the component
//! optimum always reports it, and the winner is the first such root in
//! canonical order — precisely the branch sequential reconstruction
//! takes.
//!
//! Each worker threads one [`WorkerMemo`] through all the tasks it runs,
//! so a *(last slot, placed-job mask)* state is expanded at most once per
//! worker instead of once per root. Sharing is sound because a memo
//! entry is the state's exact suffix minimum: the search inside a state
//! prunes only against that state's own running best, never against the
//! root, the task, or the shared incumbent.

use crate::fasthash::FastMap;
use crate::instance::MultiInstance;
use crate::lower_bounds;
use crate::multi_interval::complete_schedule;
use crate::power::power_cost_single;
use crate::schedule::MultiSchedule;
use crate::time::Time;
use std::sync::atomic::{AtomicU64, Ordering};

const INF: u64 = u64::MAX;

/// Hard cap on jobs: placed-job sets are packed into a `u64` mask, and
/// the router caps multi-exact routing at exactly this job count.
const MAX_JOBS: usize = 64;
/// Hard cap on distinct slots (slot indices are packed into `u16`).
const MAX_SLOTS: usize = 4096;

// The branching masks and the memo key layout both encode "one bit per
// job in a u64"; widening MAX_JOBS past the mask width would silently
// truncate placed-job sets.
const _: () = assert!(
    MAX_JOBS <= u64::BITS as usize,
    "MAX_JOBS must fit the u64 placed-job mask"
);

/// The objective a multi-interval solve minimizes — the public selector
/// for the decomposed/parallel entry points ([`solve_multi_stats`],
/// [`ParallelPlan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiObjective {
    /// Idle periods (spans − 1, Theorem 6's convention).
    Gaps,
    /// Wake-ups (Section 5's "gaps" = spans convention).
    Spans,
    /// Busy slots + `alpha` per wake-up, holes capped at `alpha`.
    Power {
        /// Transition (wake-up) cost.
        alpha: u64,
    },
}

impl MultiObjective {
    fn cost(self) -> Cost {
        match self {
            // Gaps reuse the span minimizer: gaps = spans − 1.
            MultiObjective::Gaps | MultiObjective::Spans => Cost::Spans,
            MultiObjective::Power { alpha } => Cost::Power { alpha },
        }
    }

    fn finalize(self, spans_or_power: u64) -> u64 {
        match self {
            MultiObjective::Gaps => spans_or_power.saturating_sub(1),
            _ => spans_or_power,
        }
    }
}

/// Counters describing one solve's search effort — the observability
/// feed for `STATS v3` (`search.*` rows) and `EngineReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Branch-and-bound states expanded (memo misses).
    pub nodes_expanded: u64,
    /// Job count of each decomposed component, left to right.
    pub component_jobs: Vec<usize>,
    /// Root-frontier subtree tasks enumerated (0 on the sequential path).
    pub subtree_tasks: u64,
    /// Subtree tasks executed by a worker other than the first — filled
    /// in by the engine driver; always 0 from the core solver.
    pub subtree_steals: u64,
    /// Times a shared incumbent bound was tightened (parallel path).
    pub incumbent_updates: u64,
}

impl SearchStats {
    fn note_components(&mut self, comps: &[Vec<usize>]) {
        self.component_jobs = comps.iter().map(Vec::len).collect();
    }
}

/// Minimum-gap schedule of a multi-interval instance, or `None` if
/// infeasible. Gaps are counted as spans − 1 (Theorem 6's convention),
/// so the span minimizer is the gap minimizer.
pub fn min_gaps_multi(inst: &MultiInstance) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Gaps).0
}

/// Minimum number of spans (Section 5 convention: "gaps" = spans), or
/// `None` if infeasible.
pub fn min_spans_multi(inst: &MultiInstance) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Spans).0
}

/// Minimum-power schedule under transition cost `alpha` (Theorem 3's
/// problem, solved exactly), or `None` if infeasible.
pub fn min_power_multi(inst: &MultiInstance, alpha: u64) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Power { alpha }).0
}

/// Decomposed sequential solve with search statistics: cut the timeline
/// into independent components, solve each with the branch-and-bound,
/// and add the optima (spans and power both add across qualifying dead
/// zones; gaps are finalized as spans − 1).
pub fn solve_multi_stats(
    inst: &MultiInstance,
    objective: MultiObjective,
) -> (Option<(u64, MultiSchedule)>, SearchStats) {
    let mut stats = SearchStats::default();
    let cost = objective.cost();
    let n = inst.job_count();
    if n == 0 {
        return (
            Some((objective.finalize(0), MultiSchedule::new(vec![]))),
            stats,
        );
    }
    check_caps(inst);
    let comps = decompose_jobs(inst, cost.min_zone());
    stats.note_components(&comps);
    if comps.len() == 1 {
        let solved = solve_component(inst, cost, &mut stats)
            .map(|(v, sched)| (objective.finalize(v), sched));
        return (solved, stats);
    }
    let mut times = vec![0; n];
    let mut total = 0u64;
    for jobs in &comps {
        let sub = sub_instance(inst, jobs);
        let Some((value, sched)) = solve_component(&sub, cost, &mut stats) else {
            // One infeasible component makes the whole instance
            // infeasible (the matching decomposes along the same cuts).
            return (None, stats);
        };
        total += value;
        for (local, &j) in jobs.iter().enumerate() {
            times[j] = sched.times()[local];
        }
    }
    (
        Some((objective.finalize(total), MultiSchedule::new(times))),
        stats,
    )
}

/// The pre-decomposition solver: one branch-and-bound over the whole
/// instance. Kept public as the **differential reference** that pins the
/// decomposition's exactness (`tests/solver_differential.rs` asserts
/// equal optima against [`solve_multi_stats`] and `brute_force`).
pub fn solve_multi_undecomposed(
    inst: &MultiInstance,
    objective: MultiObjective,
) -> Option<(u64, MultiSchedule)> {
    let cost = objective.cost();
    if inst.job_count() == 0 {
        return Some((objective.finalize(0), MultiSchedule::new(vec![])));
    }
    check_caps(inst);
    let mut stats = SearchStats::default();
    solve_component(inst, cost, &mut stats).map(|(v, sched)| (objective.finalize(v), sched))
}

fn check_caps(inst: &MultiInstance) {
    let n = inst.job_count();
    assert!(
        n <= MAX_JOBS,
        "multi_exact supports at most {MAX_JOBS} jobs, got {n}"
    );
    let slots = inst.slot_union().len();
    assert!(
        slots <= MAX_SLOTS,
        "multi_exact supports at most {MAX_SLOTS} distinct slots, got {slots}"
    );
}

/// The objective being minimized. Gaps reuse the span minimizer.
#[derive(Clone, Copy)]
enum Cost {
    Spans,
    Power { alpha: u64 },
}

impl Cost {
    /// Cost of occupying `slot` right after `prev` (`None` = first
    /// placement): busy cost, wake-ups, and the capped hole in between.
    #[inline]
    fn pair(self, prev: Option<Time>, slot: Time) -> u64 {
        match self {
            Cost::Spans => match prev {
                None => 1,
                Some(p) => u64::from(slot != p + 1),
            },
            Cost::Power { alpha } => match prev {
                None => 1 + alpha,
                Some(p) => 1 + ((slot - p - 1) as u64).min(alpha),
            },
        }
    }

    /// Minimum dead-zone width at which the timeline may be cut exactly.
    ///
    /// Spans: any dead zone (width ≥ 1) — no span crosses it, and the
    /// crossing pair cost (1) equals the right side's first-placement
    /// cost. Power: the crossing pair costs `1 + min(hole, α)`; with
    /// `hole ≥ width ≥ α` that is `1 + α`, exactly the split-off side's
    /// own wake-up, so cuts are exact only at zones of width ≥ `α`.
    #[inline]
    fn min_zone(self) -> u64 {
        match self {
            Cost::Spans => 1,
            Cost::Power { alpha } => alpha.max(1),
        }
    }

    fn of_schedule(self, sched: &MultiSchedule) -> u64 {
        match self {
            Cost::Spans => sched.span_count(),
            Cost::Power { alpha } => power_cost_single(sched, alpha),
        }
    }

    fn instance_bound(self, inst: &MultiInstance) -> u64 {
        match self {
            Cost::Spans => lower_bounds::min_spans_lower_bound(inst)
                .max(lower_bounds::setcover_spans_relaxation(inst)),
            Cost::Power { alpha } => lower_bounds::min_power_lower_bound(inst, alpha),
        }
    }
}

/// Cut the instance at dead zones of width ≥ `min_zone` that no job's
/// allowed window crosses; returns original job indices grouped per
/// component, left to right (each job's relative order preserved).
fn decompose_jobs(inst: &MultiInstance, min_zone: u64) -> Vec<Vec<usize>> {
    let slots = inst.slot_union();
    let n = inst.job_count();
    if slots.is_empty() {
        return Vec::new();
    }
    // Job windows [first, last allowed time]; every valid job has ≥ 1
    // slot, so first/last exist.
    let mut firsts: Vec<(Time, usize)> = (0..n).map(|j| (inst.jobs()[j].times()[0], j)).collect();
    firsts.sort_unstable();
    // Sweep the union left to right. A cut between consecutive union
    // slots is valid iff the zone is wide enough AND no started job's
    // window reaches past it.
    let mut cuts: Vec<Time> = Vec::new(); // cut = last slot time before the zone
    let mut started = 0usize;
    let mut reach = Time::MIN; // max last-allowed-time over started jobs
    for w in slots.windows(2) {
        let (here, next) = (w[0], w[1]);
        while started < n && firsts[started].0 <= here {
            let job = firsts[started].1;
            // analyzer: allow(panic-free): every valid MultiJob has ≥ 1 slot
            let last = *inst.jobs()[job].times().last().expect("job has slots");
            reach = reach.max(last);
            started += 1;
        }
        let width = (next - here - 1) as u64;
        if width >= min_zone && reach <= here {
            cuts.push(here);
        }
    }
    let mut comps: Vec<Vec<usize>> = vec![Vec::new(); cuts.len() + 1];
    for j in 0..n {
        let first = inst.jobs()[j].times()[0];
        // Segment = number of cuts strictly left of the job's window.
        let seg = cuts.partition_point(|&c| c < first);
        comps[seg].push(j);
    }
    // Every segment holds ≥ 1 job (each union slot belongs to some job
    // that lies entirely within its segment), but keep this robust.
    comps.retain(|c| !c.is_empty());
    comps
}

/// Sub-instance over the given original job indices.
fn sub_instance(inst: &MultiInstance, jobs: &[usize]) -> MultiInstance {
    let times = jobs.iter().map(|&j| inst.jobs()[j].times().to_vec());
    // analyzer: allow(panic-free): sub-jobs of a valid instance each keep ≥ 1 slot
    MultiInstance::from_times(times).expect("component jobs are valid")
}

/// Solve one (already connected) component: matching feasibility, early
/// lower-bound cutoff, then the memoized branch-and-bound.
fn solve_component(
    inst: &MultiInstance,
    cost: Cost,
    stats: &mut SearchStats,
) -> Option<(u64, MultiSchedule)> {
    let n = inst.job_count();
    // Exact feasibility + upper bound in one matching pass (Lemma 3).
    let greedy = complete_schedule(inst, &vec![None; n])?;
    let upper = cost.of_schedule(&greedy);
    if cost.instance_bound(inst) >= upper {
        // The admissible bound meets the greedy witness: certified
        // optimal without opening the search at all.
        return Some((upper, greedy));
    }

    let slots = inst.slot_union();
    let mut solver = Solver::new(inst, &slots, cost);
    let best = solver.suffix(0, 0);
    assert_ne!(best, INF, "matching said feasible, search must agree");
    let times = solver.reconstruct(best);
    stats.nodes_expanded += solver.nodes;
    let sched = MultiSchedule::new(times);
    debug_assert_eq!(sched.verify(inst), Ok(()));
    debug_assert_eq!(cost.of_schedule(&sched), best);
    Some((best, sched))
}

/// The power search's admissible floor on what a state still has to
/// place, taken from the slot union alone.
///
/// `rest(s, k)` is the least cost of placing `k` more jobs on distinct
/// union slots after slot `s`, each paying [`Cost::pair`] from the slot
/// before it:
///
/// ```text
/// rest(s, 0) = 0
/// rest(s, k) = min over u > s of pair(t_s, t_u) + rest(u, k − 1)
/// ```
///
/// (`INF` when fewer than `k` slots follow `s`), and `rest_min(s, k)` is
/// the least `rest(s', k)` over `s' ≥ s`. The table ignores which job
/// goes where, so every completion of a state whose last placement is at
/// `s` with `k` jobs left is one of the chains it minimizes over: the
/// floor is admissible. Unlike one busy slot per job, it charges the
/// wake-ups and capped holes that the union's runs force.
///
/// Spans builds no table and keeps a floor of 0, so its search expands
/// exactly the states it did before. The same table under spans would
/// prune that search too, but the benchmark's `batch_coupled` workload
/// selects its instances by this search's node count
/// (`servebench/benches/workload.rs`), so a spans floor waits until that
/// selection no longer depends on the solver it measures (ROADMAP,
/// item 1).
struct SlotFloor {
    /// Slot-union length; entry `(s, k)` sits at `k · slots + s`.
    slots: usize,
    /// `(rest, rest_min)` per entry, rows `k = 0..n`; empty under spans.
    table: Vec<(u64, u64)>,
}

impl SlotFloor {
    /// The table of a component with `n` jobs over the sorted union
    /// `times`: O(slots · n · min(α + 1, slots)) under power.
    fn new(cost: Cost, times: &[Time], n: usize) -> SlotFloor {
        let slots = times.len();
        let Cost::Power { alpha } = cost else {
            return SlotFloor {
                slots,
                table: Vec::new(),
            };
        };
        let mut table = vec![(0, 0); slots * n];
        for k in 1..n {
            let (done, todo) = table.split_at_mut(k * slots);
            let prev = &done[(k - 1) * slots..];
            let row = &mut todo[..slots];
            // `far` is the first slot after `s` whose hole from `s` is at
            // least α: it and every later slot cost the same capped
            // `1 + α`, so one `rest_min` covers them all.
            let mut far = slots;
            for s in (0..slots).rev() {
                while far > s + 1 && (times[far - 1] - times[s] - 1) as u64 >= alpha {
                    far -= 1;
                }
                let pair = |u: usize| cost.pair(Some(times[s]), times[u]);
                let mut rest = (s + 1..far)
                    .map(|u| pair(u).saturating_add(prev[u].0))
                    .min()
                    .unwrap_or(INF);
                if far < slots {
                    rest = rest.min(pair(far).saturating_add(prev[far].1));
                }
                let later = row.get(s + 1).map_or(INF, |&(_, m)| m);
                row[s] = (rest, rest.min(later));
            }
        }
        SlotFloor { slots, table }
    }

    /// `(rest(s, k), rest_min(s, k))`, or `(0, 0)` under spans.
    #[inline]
    fn at(&self, s: usize, k: usize) -> (u64, u64) {
        self.table
            .get(k * self.slots + s)
            .copied()
            .unwrap_or((0, 0))
    }
}

struct Solver {
    n: usize,
    cost: Cost,
    /// One bit per job: the placed-job mask of a finished schedule.
    full: u64,
    /// Sorted slot-union times (the critical times).
    times: Vec<Time>,
    /// Jobs allowed at each slot, one bit per job.
    jobs_at: Vec<u64>,
    /// Jobs whose last allowed slot is ≤ each slot (a prefix union), so
    /// an unplaced job in `due_by[s]` must occupy a slot ≤ `s`.
    due_by: Vec<u64>,
    /// For each job, the bit of the previous job with the identical
    /// allowed set, or 0 (the duplicate-class chain used by the dominance
    /// pruning).
    twin: Vec<u64>,
    /// Admissible floors on what is left to place after each slot.
    floor: SlotFloor,
    /// Suffix-value memo, one table per first free slot (`last + 1`,
    /// 0 before any placement), keyed by the placed-job mask.
    memo: Vec<FastMap<u64, u64>>,
    /// Branch-and-bound states expanded (memo misses).
    nodes: u64,
    /// Re-entrancy guard for the debug-build memo audit: while a hit is
    /// being re-derived, nested hits must return without re-verifying or
    /// the recomputation becomes exponential again.
    #[cfg(debug_assertions)]
    verifying: bool,
}

impl Solver {
    fn new(inst: &MultiInstance, slots: &[Time], cost: Cost) -> Solver {
        let n = inst.job_count();
        let mut jobs_at = vec![0u64; slots.len()];
        let mut due_by = vec![0u64; slots.len()];
        for (j, job) in inst.jobs().iter().enumerate() {
            let mut last = 0;
            for t in job.times() {
                // analyzer: allow(panic-free): slot_union() is the sorted set of exactly these job times
                let s = slots.binary_search(t).expect("slot in union");
                jobs_at[s] |= 1u64 << j;
                last = last.max(s);
            }
            due_by[last] |= 1u64 << j;
        }
        for s in 1..due_by.len() {
            due_by[s] |= due_by[s - 1];
        }
        // Duplicate classes: jobs share a class iff their allowed sets
        // (hence interval structures) are identical.
        let mut twin = vec![0u64; n];
        for (j, bit) in twin.iter_mut().enumerate().skip(1) {
            *bit = (0..j)
                .rev()
                .find(|&i| inst.jobs()[i].times() == inst.jobs()[j].times())
                .map_or(0, |i| 1u64 << i);
        }
        Solver {
            n,
            cost,
            full: if n == MAX_JOBS {
                u64::MAX
            } else {
                (1u64 << n) - 1
            },
            times: slots.to_vec(),
            jobs_at,
            due_by,
            twin,
            floor: SlotFloor::new(cost, slots, n),
            memo: (0..=slots.len()).map(|_| FastMap::default()).collect(),
            nodes: 0,
            #[cfg(debug_assertions)]
            verifying: false,
        }
    }

    /// Debug-build memo audit: re-derive a hit state once (children are
    /// served from the memo) and check the cached value is still the
    /// exact recomputed one — a stale or clobbered entry would silently
    /// corrupt the optimum and every reconstruction step that follows it.
    #[cfg(debug_assertions)]
    fn audit_memo_hit(&mut self, next: usize, mask: u64, cached: u64) {
        if self.verifying {
            return;
        }
        self.verifying = true;
        // The re-derivation is an audit, not search effort: keep
        // `nodes` equal to the release-build count.
        let nodes = self.nodes;
        let fresh = self.suffix_compute(next, mask);
        debug_assert_eq!(
            cached, fresh,
            "multi_exact memo entry diverged from recomputation"
        );
        self.nodes = nodes;
        self.verifying = false;
    }

    /// Pop the next branch from `open` (unplaced jobs of one slot), in
    /// ascending job order. A job may be branched on only if its
    /// smaller-index twin is already placed — interchangeable jobs go in
    /// index order.
    #[inline]
    fn next_branch(&self, open: &mut u64, mask: u64) -> Option<u32> {
        while *open != 0 {
            let job = open.trailing_zeros();
            *open &= *open - 1;
            let twin = self.twin[job as usize];
            if mask & twin == twin {
                return Some(job);
            }
        }
        None
    }

    /// The time of the last occupied slot when `next` is the first free
    /// one (`None` before any placement).
    #[inline]
    fn prev_time(&self, next: usize) -> Option<Time> {
        next.checked_sub(1).map(|last| self.times[last])
    }

    /// Exact minimum cost of placing every job not in `mask` at slots
    /// `next` and later, including the pair cost back to slot `next − 1`.
    /// `INF` iff no completion exists.
    fn suffix(&mut self, next: usize, mask: u64) -> u64 {
        if mask == self.full {
            return 0;
        }
        if let Some(&v) = self.memo[next].get(&mask) {
            #[cfg(debug_assertions)]
            self.audit_memo_hit(next, mask, v);
            return v;
        }
        let best = self.suffix_compute(next, mask);
        self.memo[next].insert(mask, best);
        best
    }

    /// The uncached body of [`Solver::suffix`]: branch over the next
    /// occupied slot and the canonical job placed there.
    fn suffix_compute(&mut self, next: usize, mask: u64) -> u64 {
        self.nodes += 1;
        // Every unplaced job lands at or after the next occupied slot, so
        // that slot is bounded by the tightest remaining deadline: a job
        // already due before `next` leaves no completion at all.
        if next > 0 && self.due_by[next - 1] & !mask != 0 {
            return INF;
        }
        let r = self.n - mask.count_ones() as usize;
        let prev_time = self.prev_time(next);
        let mut best = INF;
        // The next occupied slot must leave r − 1 free slots behind it.
        for s in next..=self.times.len() - r {
            let pair = self.cost.pair(prev_time, self.times[s]);
            let (rest, rest_min) = self.floor.at(s, r - 1);
            // Pair costs are non-decreasing in the slot (holes only grow)
            // and `rest_min` floors every later slot's remainder, so once
            // that cannot beat the state's best, neither can any branch
            // from here on: cut the whole loop.
            if pair.saturating_add(rest_min) >= best {
                break;
            }
            // Skip this slot's children when its own floor cannot beat
            // the best: none of them could set the minimum, so the memo
            // stays exact.
            if pair.saturating_add(rest) < best {
                let mut open = self.jobs_at[s] & !mask;
                while let Some(job) = self.next_branch(&mut open, mask) {
                    let v = self.suffix(s + 1, mask | 1u64 << job);
                    if v != INF {
                        best = best.min(pair + v);
                    }
                }
            }
            // An unplaced job due by `s` cannot wait for a later slot.
            if self.due_by[s] & !mask != 0 {
                break;
            }
        }
        best
    }

    /// Re-walk the memoized search along an optimal branch, returning the
    /// per-job times (original job order).
    fn reconstruct(&mut self, total: u64) -> Vec<Time> {
        self.reconstruct_from(0, 0, vec![0; self.n], total)
    }

    /// [`Solver::reconstruct`] continued from a mid-search state: `next`
    /// the first free slot, `mask` the placed jobs, their `times` filled
    /// in, and the remaining `target` cost. The walk always takes the
    /// *first* `(slot, job)` branch in canonical scan order that attains
    /// the target, which is what makes reconstruction deterministic — and
    /// identical between the sequential solver and a parallel subtree.
    fn reconstruct_from(
        &mut self,
        mut next: usize,
        mut mask: u64,
        mut times: Vec<Time>,
        mut target: u64,
    ) -> Vec<Time> {
        while mask != self.full {
            let prev_time = self.prev_time(next);
            let mut step = None;
            'slots: for s in next..self.times.len() {
                let pair = self.cost.pair(prev_time, self.times[s]);
                if pair > target {
                    break;
                }
                let mut open = self.jobs_at[s] & !mask;
                while let Some(job) = self.next_branch(&mut open, mask) {
                    let v = self.suffix(s + 1, mask | 1u64 << job);
                    if v != INF && pair + v == target {
                        step = Some((s, job, pair));
                        break 'slots;
                    }
                }
            }
            // analyzer: allow(panic-free): `target` is a memoized optimum, so some branch attains it
            let (s, job, pair) = step.expect("reconstruction must follow an optimal branch");
            times[job as usize] = self.times[s];
            mask |= 1u64 << job;
            next = s + 1;
            target -= pair;
        }
        // Duplicate-class members are interchangeable: the canonical
        // ordering may have assigned a twin's slot; any bijection within
        // a class is valid, and index order is what the walk produced.
        times
    }
}

/// One unit of parallel work: one root branch (first occupied slot and
/// the job placed there) of one component's search tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubtreeTask {
    /// Component index within the plan.
    pub component: usize,
    /// Root index within the component's canonical frontier.
    pub root: usize,
}

/// What one subtree task produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubtreeOutcome {
    /// Pruned at the root against the shared incumbent (strict
    /// comparison, so a subtree attaining the optimum is never skipped).
    Skipped,
    /// Explored to its exact subtree optimum. `value` is `None` when
    /// the subtree admits no completion; `times` is the canonical
    /// witness (component-local job order), `nodes` the states expanded.
    Solved {
        /// Exact subtree optimum (root pair cost included).
        value: Option<u64>,
        /// Canonical witness times, component-local job order.
        times: Vec<Time>,
        /// Branch-and-bound states this task expanded (misses in its
        /// worker's memo).
        nodes: u64,
    },
}

/// One worker's branch-and-bound memo for one [`ParallelPlan`], made by
/// [`ParallelPlan::worker_memo`] and passed to every
/// [`ParallelPlan::run_task`] call that worker makes. It keeps the
/// current component's suffix values across tasks and is cleared when a
/// task from another component arrives. Tasks run in any order stay
/// exact; a driver that hands each worker its tasks in plan order (as
/// `gaps_engine` does) never has to rebuild a component's memo.
pub struct WorkerMemo<'p> {
    plan: &'p ParallelPlan,
    /// The component the solver was built for, and its memoized search.
    current: Option<(usize, Solver)>,
}

struct PlanComponent {
    /// Original job indices, relative order preserved.
    jobs: Vec<usize>,
    inst: MultiInstance,
    slots: Vec<Time>,
    /// Lemma 3 feasible completion — the initial incumbent witness.
    greedy: MultiSchedule,
    upper: u64,
    /// Lower bound met the greedy witness: certified optimal, no tasks.
    closed: bool,
    /// Root frontier in canonical scan order.
    roots: Vec<Root>,
    /// Shared best-so-far (monotone non-increasing). Relaxed ordering is
    /// sound: the bound is the only datum transferred, staleness only
    /// weakens pruning, and exactness never depends on reading the
    /// latest value — see DESIGN.md §13.
    incumbent: AtomicU64,
    updates: AtomicU64,
}

/// The decomposed search, exposed as data for an external parallel
/// driver (see the module docs' *Parallelism* section). Usage:
/// [`ParallelPlan::new`] → [`ParallelPlan::tasks`] → run each task (any
/// order, any thread) via [`ParallelPlan::run_task`] →
/// [`ParallelPlan::finish`] with the outcomes in task order.
pub struct ParallelPlan {
    objective: MultiObjective,
    cost: Cost,
    n: usize,
    components: Vec<PlanComponent>,
}

impl ParallelPlan {
    /// Decompose and prepare the instance; `None` iff infeasible (some
    /// component has no complete matching).
    pub fn new(inst: &MultiInstance, objective: MultiObjective) -> Option<ParallelPlan> {
        let cost = objective.cost();
        let n = inst.job_count();
        if n > 0 {
            check_caps(inst);
        }
        let mut components = Vec::new();
        if n > 0 {
            for jobs in decompose_jobs(inst, cost.min_zone()) {
                let sub = sub_instance(inst, &jobs);
                let greedy = complete_schedule(&sub, &vec![None; jobs.len()])?;
                let upper = cost.of_schedule(&greedy);
                let closed = cost.instance_bound(&sub) >= upper;
                let slots = sub.slot_union();
                let roots = if closed {
                    Vec::new()
                } else {
                    root_frontier(&sub, &slots, cost)
                };
                components.push(PlanComponent {
                    jobs,
                    inst: sub,
                    slots,
                    greedy,
                    upper,
                    closed,
                    roots,
                    incumbent: AtomicU64::new(upper),
                    updates: AtomicU64::new(0),
                });
            }
        }
        Some(ParallelPlan {
            objective,
            cost,
            n,
            components,
        })
    }

    /// Every subtree task, component by component, roots in canonical
    /// order. Outcomes must be handed back to [`ParallelPlan::finish`]
    /// in exactly this order.
    pub fn tasks(&self) -> Vec<SubtreeTask> {
        let mut out = Vec::new();
        for (component, comp) in self.components.iter().enumerate() {
            for root in 0..comp.roots.len() {
                out.push(SubtreeTask { component, root });
            }
        }
        out
    }

    /// An empty memo for one worker of this plan.
    pub fn worker_memo(&self) -> WorkerMemo<'_> {
        WorkerMemo {
            plan: self,
            current: None,
        }
    }

    /// Explore one subtree to its exact optimum (or skip it when even
    /// the admissible floor cannot beat the shared incumbent), reusing
    /// and extending the calling worker's `memo`. Safe to call
    /// concurrently from any thread, each with its own memo.
    ///
    /// # Panics
    /// If `memo` was made by another plan.
    pub fn run_task(&self, task: &SubtreeTask, memo: &mut WorkerMemo<'_>) -> SubtreeOutcome {
        assert!(
            std::ptr::eq(memo.plan, self),
            "a worker memo serves only the plan that made it"
        );
        let comp = &self.components[task.component];
        let root = comp.roots[task.root];
        let (s, job) = (root.slot, root.job);
        let nc = comp.inst.job_count();
        // Strict `>`: a subtree whose exact optimum equals the incumbent
        // still runs, so every optimum-attaining root reports its value
        // — that is what keeps the winner choice timing-independent.
        if root.floor > comp.incumbent.load(Ordering::Relaxed) {
            return SubtreeOutcome::Skipped;
        }
        let pair = self.cost.pair(None, comp.slots[s as usize]);
        if matches!(&memo.current, Some((c, _)) if *c != task.component) {
            memo.current = None;
        }
        let (_, solver) = memo.current.get_or_insert_with(|| {
            (
                task.component,
                Solver::new(&comp.inst, &comp.slots, self.cost),
            )
        });
        let nodes_before = solver.nodes;
        let mask = 1u64 << job;
        let suffix = solver.suffix(s as usize + 1, mask);
        if suffix == INF {
            return SubtreeOutcome::Solved {
                value: None,
                times: Vec::new(),
                nodes: solver.nodes - nodes_before,
            };
        }
        let value = pair + suffix;
        let prev = comp.incumbent.fetch_min(value, Ordering::Relaxed);
        if value < prev {
            comp.updates.fetch_add(1, Ordering::Relaxed);
        }
        let mut times = vec![0; nc];
        times[job as usize] = comp.slots[s as usize];
        let times = solver.reconstruct_from(s as usize + 1, mask, times, suffix);
        SubtreeOutcome::Solved {
            value: Some(value),
            times,
            nodes: solver.nodes - nodes_before,
        }
    }

    /// Fold the per-task outcomes (in [`ParallelPlan::tasks`] order)
    /// into the instance optimum, its canonical witness, and the search
    /// statistics. Per component the winner is the **first** root in
    /// canonical order attaining the component optimum — the same branch
    /// sequential reconstruction takes, which is why the result is
    /// bit-identical to the sequential solver for any thread count.
    pub fn finish(&self, outcomes: &[SubtreeOutcome]) -> (u64, MultiSchedule, SearchStats) {
        let mut stats = SearchStats {
            component_jobs: self.components.iter().map(|c| c.jobs.len()).collect(),
            subtree_tasks: outcomes.len() as u64,
            ..SearchStats::default()
        };
        let mut times = vec![0; self.n];
        let mut total = 0u64;
        let mut offset = 0usize;
        for comp in &self.components {
            let slice = &outcomes[offset..offset + comp.roots.len()];
            offset += comp.roots.len();
            stats.incumbent_updates += comp.updates.load(Ordering::Relaxed);
            if comp.closed {
                total += comp.upper;
                for (local, &j) in comp.jobs.iter().enumerate() {
                    times[j] = comp.greedy.times()[local];
                }
                continue;
            }
            let mut best = INF;
            let mut winner: Option<&[Time]> = None;
            for outcome in slice {
                if let SubtreeOutcome::Solved {
                    value,
                    times: sub_times,
                    nodes,
                } = outcome
                {
                    stats.nodes_expanded += nodes;
                    // Strictly `<`, so the first root keeps ties — the
                    // canonical winner.
                    if let Some(v) = value {
                        if *v < best {
                            best = *v;
                            winner = Some(sub_times);
                        }
                    }
                }
            }
            // A feasible, non-closed component always yields a finite
            // winner: a subtree attaining the optimum is never skipped
            // (strict root pruning) and never returns `None`.
            // analyzer: allow(panic-free): see the invariant above
            let winner = winner.expect("some subtree attains the component optimum");
            assert!(best <= comp.upper, "subtree optimum beat by greedy?");
            total += best;
            for (local, &j) in comp.jobs.iter().enumerate() {
                times[j] = winner[local];
            }
        }
        assert_eq!(offset, outcomes.len(), "outcomes misaligned with tasks");
        (
            self.objective.finalize(total),
            MultiSchedule::new(times),
            stats,
        )
    }
}

/// One root-frontier branch of a component's search.
#[derive(Clone, Copy)]
struct Root {
    /// Slot index of the first occupied slot.
    slot: u16,
    /// The job placed there.
    job: u8,
    /// Admissible floor on every schedule in the subtree: the first
    /// placement's cost plus [`SlotFloor`]'s `rest` for the other jobs.
    floor: u64,
}

/// The canonical root frontier of one component: every `(first slot,
/// job)` branch the sequential search's root state would scan, in scan
/// order.
fn root_frontier(inst: &MultiInstance, slots: &[Time], cost: Cost) -> Vec<Root> {
    let seed = Solver::new(inst, slots, cost);
    let n = inst.job_count();
    let mut roots = Vec::new();
    for s in 0..=slots.len() - n {
        let floor = cost
            .pair(None, seed.times[s])
            .saturating_add(seed.floor.at(s, n - 1).0);
        let mut open = seed.jobs_at[s];
        while let Some(job) = seed.next_branch(&mut open, 0) {
            roots.push(Root {
                slot: s as u16,
                job: job as u8,
                floor,
            });
        }
        if seed.due_by[s] != 0 {
            break;
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;

    fn inst(times: &[Vec<i64>]) -> MultiInstance {
        MultiInstance::from_times(times.to_vec()).unwrap()
    }

    /// Sequential reference driver for [`ParallelPlan`]: run every task
    /// inline, in order, on one worker memo.
    fn run_plan(i: &MultiInstance, obj: MultiObjective) -> Option<(u64, MultiSchedule)> {
        let plan = ParallelPlan::new(i, obj)?;
        let mut memo = plan.worker_memo();
        let outcomes: Vec<_> = plan
            .tasks()
            .iter()
            .map(|t| plan.run_task(t, &mut memo))
            .collect();
        let (value, sched, _) = plan.finish(&outcomes);
        Some((value, sched))
    }

    #[test]
    fn matches_brute_force_on_worked_examples() {
        let cases = [
            vec![vec![0, 4], vec![5]],
            vec![vec![0, 1], vec![0, 1], vec![10, 11], vec![10, 11]],
            vec![vec![0, 10], vec![1, 11], vec![5]],
            vec![vec![0, 2], vec![1, 3], vec![4, 6], vec![5, 7]],
            vec![vec![0], vec![1, 5], vec![2, 6], vec![7]],
            vec![vec![3], vec![3, 4], vec![4, 5]],
        ];
        for times in cases {
            let i = inst(&times);
            assert_eq!(
                min_gaps_multi(&i).map(|(v, _)| v),
                brute_force::min_gaps_multi(&i).map(|(v, _)| v),
                "gaps diverged on {times:?}"
            );
            assert_eq!(
                min_spans_multi(&i).map(|(v, _)| v),
                brute_force::min_spans_multi(&i).map(|(v, _)| v),
                "spans diverged on {times:?}"
            );
            for alpha in [0u64, 1, 2, 5, 9] {
                assert_eq!(
                    min_power_multi(&i, alpha).map(|(v, _)| v),
                    brute_force::min_power_multi(&i, alpha).map(|(v, _)| v),
                    "power diverged on {times:?} α={alpha}"
                );
            }
        }
    }

    #[test]
    fn witnesses_verify_and_attain_their_values() {
        let i = inst(&[vec![0, 7], vec![3], vec![8, 9], vec![4, 5], vec![12]]);
        let (gaps, sched) = min_gaps_multi(&i).unwrap();
        sched.verify(&i).unwrap();
        assert_eq!(sched.gap_count(), gaps);
        let (power, psched) = min_power_multi(&i, 3).unwrap();
        psched.verify(&i).unwrap();
        assert_eq!(power_cost_single(&psched, 3), power);
    }

    #[test]
    fn infeasible_detected_without_search() {
        let i = inst(&[vec![3], vec![3]]);
        assert_eq!(min_gaps_multi(&i), None);
        assert_eq!(min_spans_multi(&i), None);
        assert_eq!(min_power_multi(&i, 4), None);
        assert!(run_plan(&i, MultiObjective::Spans).is_none());
    }

    #[test]
    fn empty_instance() {
        let i = MultiInstance::new(vec![]).unwrap();
        assert_eq!(min_gaps_multi(&i).unwrap().0, 0);
        assert_eq!(min_power_multi(&i, 7).unwrap().0, 0);
        assert_eq!(run_plan(&i, MultiObjective::Gaps).unwrap().0, 0);
    }

    #[test]
    fn duplicate_jobs_exercise_the_dominance_pruning() {
        // Eight interchangeable jobs over one window: one span, and the
        // canonical ordering must still produce a valid bijection.
        let times: Vec<Vec<i64>> = (0..8).map(|_| (0..10).collect()).collect();
        let i = inst(&times);
        let (spans, sched) = min_spans_multi(&i).unwrap();
        assert_eq!(spans, 1);
        sched.verify(&i).unwrap();
    }

    #[test]
    fn early_cutoff_agrees_with_search_on_forced_instances() {
        // Three far-apart pinned jobs: LB = UB = 3 spans; the shortcut
        // path must return the same value the search would.
        let i = inst(&[vec![0], vec![10], vec![20]]);
        assert_eq!(min_spans_multi(&i).unwrap().0, 3);
        assert_eq!(
            min_spans_multi(&i).unwrap().0,
            brute_force::min_spans_multi(&i).unwrap().0
        );
    }

    #[test]
    fn decomposition_cuts_at_uncrossed_dead_zones() {
        // Three bands nobody crosses → three components for spans.
        let i = inst(&[
            vec![0, 1],
            vec![1, 2],
            vec![10, 11],
            vec![20, 21],
            vec![21, 22],
        ]);
        let comps = decompose_jobs(&i, 1);
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
        // A job bridging the first zone glues the first two bands.
        let bridged = inst(&[
            vec![0, 1],
            vec![1, 2],
            vec![10, 11],
            vec![20, 21],
            vec![21, 22],
            vec![2, 10],
        ]);
        let comps = decompose_jobs(&bridged, 1);
        assert_eq!(comps, vec![vec![0, 1, 2, 5], vec![3, 4]]);
    }

    #[test]
    fn power_decomposition_respects_the_alpha_zone_width() {
        // Zone widths 7 (between 1 and 9) and 2 (between 10 and 13).
        let i = inst(&[vec![0, 1], vec![9, 10], vec![13]]);
        // α = 2: both zones qualify → 3 components.
        assert_eq!(decompose_jobs(&i, 2).len(), 3);
        // α = 5: only the width-7 zone qualifies → 2 components.
        assert_eq!(decompose_jobs(&i, 5), vec![vec![0], vec![1, 2]]);
        // The optima stay exact either way (vs. the undecomposed search).
        for alpha in [0u64, 1, 2, 3, 5, 8, 20] {
            let obj = MultiObjective::Power { alpha };
            assert_eq!(
                solve_multi_stats(&i, obj).0.map(|(v, _)| v),
                solve_multi_undecomposed(&i, obj).map(|(v, _)| v),
                "power decomposition diverged at α={alpha}"
            );
        }
    }

    #[test]
    fn decomposed_solves_report_component_stats() {
        let i = inst(&[vec![0, 1], vec![1, 2], vec![50, 51], vec![100]]);
        let (res, stats) = solve_multi_stats(&i, MultiObjective::Spans);
        let (spans, sched) = res.unwrap();
        sched.verify(&i).unwrap();
        assert_eq!(spans, 3);
        assert_eq!(stats.component_jobs, vec![2, 1, 1]);
        assert_eq!(stats.subtree_steals, 0, "core never records steals");
    }

    #[test]
    fn parallel_plan_is_bit_identical_to_the_sequential_solver() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA5A5));
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=8))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..24))
                        .collect()
                })
                .collect();
            let i = inst(&jobs);
            for obj in [
                MultiObjective::Gaps,
                MultiObjective::Spans,
                MultiObjective::Power { alpha: 3 },
            ] {
                let seq = solve_multi_stats(&i, obj).0;
                let par = run_plan(&i, obj);
                match (seq, par) {
                    (None, None) => {}
                    (Some((sv, ss)), Some((pv, ps))) => {
                        assert_eq!(sv, pv, "seed {seed}: value diverged on {jobs:?}");
                        assert_eq!(
                            ss.times(),
                            ps.times(),
                            "seed {seed}: schedule diverged on {jobs:?}"
                        );
                    }
                    (s, p) => panic!("seed {seed}: feasibility diverged: {s:?} vs {p:?}"),
                }
            }
        }
    }

    #[test]
    fn subtree_outcomes_fold_regardless_of_execution_order() {
        // Run the tasks in reverse order (worst-case steal pattern);
        // outcomes are folded by position, so the result must not move.
        // Both components search, so the one memo also has to switch
        // from one component to the other.
        let i = inst(&[
            vec![0, 2, 5],
            vec![1, 3],
            vec![4, 6],
            vec![20, 22, 25],
            vec![21, 23],
            vec![24, 26],
            vec![26, 27],
        ]);
        let obj = MultiObjective::Spans;
        let plan = ParallelPlan::new(&i, obj).unwrap();
        let tasks = plan.tasks();
        assert!(
            tasks.iter().any(|t| t.component == 0) && tasks.iter().any(|t| t.component == 1),
            "expected a real frontier in both components: {tasks:?}"
        );
        let mut outcomes: Vec<Option<SubtreeOutcome>> = vec![None; tasks.len()];
        let mut memo = plan.worker_memo();
        for (idx, task) in tasks.iter().enumerate().rev() {
            outcomes[idx] = Some(plan.run_task(task, &mut memo));
        }
        let outcomes: Vec<_> = outcomes.into_iter().map(Option::unwrap).collect();
        let (value, sched, stats) = plan.finish(&outcomes);
        let (seq_value, seq_sched) = solve_multi_stats(&i, obj).0.unwrap();
        assert_eq!(value, seq_value);
        assert_eq!(sched.times(), seq_sched.times());
        assert_eq!(stats.subtree_tasks, tasks.len() as u64);
    }

    #[test]
    #[should_panic(expected = "a worker memo serves only the plan that made it")]
    fn a_worker_memo_is_bound_to_its_plan() {
        // Reusing a memo across plans would serve one instance's suffix
        // values to another instance's search.
        let a = ParallelPlan::new(&inst(&[vec![0, 2], vec![1, 3]]), MultiObjective::Spans).unwrap();
        let b = ParallelPlan::new(
            &inst(&[vec![0, 2, 5], vec![1, 3], vec![4, 6]]),
            MultiObjective::Spans,
        )
        .unwrap();
        let mut memo = a.worker_memo();
        assert!(!b.tasks().is_empty(), "expected a real frontier");
        b.run_task(&b.tasks()[0], &mut memo);
    }

    #[test]
    fn randomized_bit_match_against_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37));
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=7))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..18))
                        .collect()
                })
                .collect();
            let i = inst(&jobs);
            assert_eq!(
                min_gaps_multi(&i).map(|(v, _)| v),
                brute_force::min_gaps_multi(&i).map(|(v, _)| v),
                "seed {seed}: gaps diverged on {jobs:?}"
            );
            for alpha in [0u64, 1, 3, 6] {
                assert_eq!(
                    min_power_multi(&i, alpha).map(|(v, _)| v),
                    brute_force::min_power_multi(&i, alpha).map(|(v, _)| v),
                    "seed {seed}: power diverged on {jobs:?} α={alpha}"
                );
            }
        }
    }

    #[test]
    fn slot_floor_is_the_cheapest_chain_of_union_slots() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Brute force: for each k, the cheapest k-subset of the union
        // slots after `s`, each paying its pair cost from the one before.
        fn cheapest_by_count(cost: Cost, times: &[Time], s: usize) -> Vec<u64> {
            let after = &times[s + 1..];
            let mut best = vec![INF; after.len() + 1];
            for set in 0u32..1 << after.len() {
                let mut prev = times[s];
                let mut total = 0;
                for (u, &t) in after.iter().enumerate() {
                    if set >> u & 1 == 1 {
                        total += cost.pair(Some(prev), t);
                        prev = t;
                    }
                }
                let k = set.count_ones() as usize;
                best[k] = best[k].min(total);
            }
            best
        }
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x51F7));
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    (0..rng.gen_range(1..=2))
                        .map(|_| rng.gen_range(0..24))
                        .collect()
                })
                .collect();
            let i = inst(&jobs);
            let times = i.slot_union();
            let n = i.job_count();
            for alpha in [0u64, 1, 2, 5] {
                let cost = Cost::Power { alpha };
                let floor = SlotFloor::new(cost, &times, n);
                let brute: Vec<Vec<u64>> = (0..times.len())
                    .map(|s| cheapest_by_count(cost, &times, s))
                    .collect();
                for k in 0..n {
                    let mut later = INF;
                    for s in (0..times.len()).rev() {
                        let rest = brute[s].get(k).copied().unwrap_or(INF);
                        later = later.min(rest);
                        assert_eq!(
                            floor.at(s, k),
                            (rest, later),
                            "seed {seed} α={alpha} s={s} k={k} on {times:?}"
                        );
                    }
                }
            }
        }
        // Spans builds no table: its floor is 0 everywhere.
        let spans = SlotFloor::new(Cost::Spans, &[0, 1, 5], 3);
        assert!(spans.table.is_empty());
        assert_eq!(spans.at(1, 2), (0, 0));
    }

    #[test]
    fn wide_job_counts_fit_the_u64_mask() {
        // 33+ jobs would have overflowed the old u32 mask; keep them
        // decomposable so the test stays fast.
        let times: Vec<Vec<i64>> = (0..36).map(|j| vec![10 * j, 10 * j + 1]).collect();
        let i = inst(&times);
        let (spans, sched) = min_spans_multi(&i).unwrap();
        assert_eq!(spans, 36);
        sched.verify(&i).unwrap();
    }
}
