//! Seeded workload generators. The benchmark takes the seed; the daemon or
//! batch process only ever sees the generated text.
//!
//! * `serve_hot` — K base instances, each request a time-shifted,
//!   job-permuted variant of one of them, so after warm-up every request
//!   is a cache hit and the time goes to the serving layers.
//! * `serve_cold` — every request a distinct canonical instance shaped
//!   like the engine's mixed batch (Baptiste's DP, the power DP, forced
//!   chains, small `multi_exact` searches), so every request misses.
//! * `batch_coupled` — coupled-core multi-interval instances above the
//!   parallel threshold that the dead-zone decomposition cannot split, so
//!   the time goes to the parallel branch-and-bound.

use gaps_core::instance::{Instance, Job, MultiInstance, MultiJob};
use gaps_engine::canonical::canonicalize;
use gaps_engine::{pool, BatchInstance, Engine, EngineConfig, Objective};
use gaps_serve::protocol::encode_payload;
use gaps_workloads::{multi_interval, one_interval, serialize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Seed used when `--seed` is not given; the recorded answers under
/// `expected/` belong to it.
pub const DEFAULT_SEED: u64 = 1;

/// serve_hot: distinct base instances (well under the 4096-entry cache).
pub const HOT_BASES: usize = 48;
/// serve_hot: distinct variant texts drawn per base.
pub const HOT_VARIANTS: usize = 8;
/// serve_cold: untimed warm-up requests, drawn from a disjoint seed.
pub const COLD_WARMUP: usize = 200;
/// batch_coupled: the router's parallel branch-and-bound threshold.
pub const PARALLEL_MIN_JOBS: usize = 17;
/// batch_coupled: accepted search effort (nodes a sequential solve
/// expands). The band holds about the middle half of coupled draws;
/// without it a run's few hardest instances, which differ from seed to
/// seed, would move throughput and tail latency by more than a tenth.
pub const COUPLED_NODES: std::ops::RangeInclusive<u64> = 30_000..=90_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeHot,
    ServeCold,
    BatchCoupled,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ServeHot, Kind::ServeCold, Kind::BatchCoupled];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::ServeCold => "serve_cold",
            Kind::BatchCoupled => "batch_coupled",
        }
    }

    pub fn objective(self) -> Objective {
        match self {
            Kind::ServeCold => Objective::Power { alpha: 2 },
            Kind::ServeHot | Kind::BatchCoupled => Objective::Gaps,
        }
    }

    /// The objective flags the daemon or batch process runs with.
    pub fn objective_flags(self) -> Vec<String> {
        match self.objective() {
            Objective::Power { alpha } => ["--objective", "power", "--alpha", &alpha.to_string()]
                .map(String::from)
                .to_vec(),
            other => vec!["--objective".to_string(), other.label().to_string()],
        }
    }

    pub fn is_serve(self) -> bool {
        self != Kind::BatchCoupled
    }
}

/// One distinct request text.
#[derive(Clone, Debug)]
pub struct Item {
    pub instance: BatchInstance,
    /// The instance as one `REQ` payload line (`;`-joined).
    pub payload: String,
}

impl Item {
    fn new(instance: BatchInstance) -> Item {
        let payload = encode_payload(&text_of(&instance));
        Item { instance, payload }
    }

    /// The instance's multi-line text, as `gaps batch` reads it.
    pub fn text(&self) -> String {
        text_of(&self.instance)
    }
}

fn text_of(inst: &BatchInstance) -> String {
    match inst {
        BatchInstance::One(one) => serialize::instance_to_text(one),
        BatchInstance::Multi(multi) => serialize::multi_to_text(multi),
    }
}

/// A generated workload: warm-up requests, the distinct measured request
/// texts, and the order they are sent in (`schedule[i]` indexes `items`).
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub warmup: Vec<Item>,
    pub items: Vec<Item>,
    pub schedule: Vec<u32>,
    /// Bodies known from generation (batch_coupled validates each draw by
    /// solving it); empty otherwise.
    pub bodies: Vec<String>,
}

impl Workload {
    /// Generate `requests` measured requests for `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64, requests: usize) -> Workload {
        match kind {
            Kind::ServeHot => hot(seed, requests),
            Kind::ServeCold => cold(seed, requests),
            Kind::BatchCoupled => coupled(seed, requests),
        }
    }

    /// Every generated byte in send order (warm-up, then the schedule):
    /// what the determinism test compares.
    #[cfg(test)]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for item in &self.warmup {
            out.push_str(&item.payload);
            out.push('\n');
        }
        for &i in &self.schedule {
            out.push_str(&self.items[i as usize].payload);
            out.push('\n');
        }
        out
    }

    /// The concatenated instance texts `gaps batch` reads on stdin.
    pub fn batch_stdin(&self) -> String {
        self.schedule
            .iter()
            .map(|&i| self.items[i as usize].text())
            .collect()
    }
}

fn rng_for(kind: Kind, seed: u64) -> StdRng {
    // Distinct streams per workload, so two workloads never share draws.
    let salt = match kind {
        Kind::ServeHot => 0x4807,
        Kind::ServeCold => 0xC01D,
        Kind::BatchCoupled => 0xBA7C,
    };
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn hot_base(rng: &mut StdRng, i: usize) -> BatchInstance {
    match i % 3 {
        0 => {
            let n = rng.gen_range(24..=36);
            BatchInstance::One(one_interval::feasible(rng, n, 2 * n as i64, 3, 1))
        }
        1 => {
            let n = rng.gen_range(24..=36);
            BatchInstance::One(one_interval::feasible(rng, n, n as i64, 2, 2))
        }
        _ => {
            let n = rng.gen_range(12..=14);
            BatchInstance::Multi(multi_interval::banded(rng, n, 3, 8, 2))
        }
    }
}

/// A key-preserving transform: shift every time by `shift` and permute
/// the job list.
fn variant(base: &BatchInstance, rng: &mut StdRng) -> BatchInstance {
    let shift: i64 = rng.gen_range(1..=5_000);
    match base {
        BatchInstance::One(one) => {
            let mut jobs: Vec<Job> = one
                .jobs()
                .iter()
                .map(|j| Job::new(j.release + shift, j.deadline + shift))
                .collect();
            jobs.shuffle(rng);
            BatchInstance::One(Instance::new(jobs, one.processors()).expect("shift keeps windows"))
        }
        BatchInstance::Multi(multi) => {
            let mut jobs: Vec<MultiJob> = multi
                .jobs()
                .iter()
                .map(|j| MultiJob::new(j.times().iter().map(|&t| t + shift).collect()))
                .collect();
            jobs.shuffle(rng);
            BatchInstance::Multi(MultiInstance::new(jobs).expect("shift keeps slots"))
        }
    }
}

fn hot(seed: u64, requests: usize) -> Workload {
    let mut rng = rng_for(Kind::ServeHot, seed);
    let objective = Kind::ServeHot.objective();
    let mut keys = HashSet::new();
    let mut bases = Vec::with_capacity(HOT_BASES);
    while bases.len() < HOT_BASES {
        let base = hot_base(&mut rng, bases.len());
        if keys.insert(canonicalize(&base, objective).key) {
            bases.push(base);
        }
    }
    let items: Vec<Item> = bases
        .iter()
        .flat_map(|base| {
            (0..HOT_VARIANTS)
                .map(|_| Item::new(variant(base, &mut rng)))
                .collect::<Vec<_>>()
        })
        .collect();
    // One variant of every base fills the cache before timing starts.
    let warmup = (0..HOT_BASES)
        .map(|b| items[b * HOT_VARIANTS].clone())
        .collect();
    let schedule = (0..requests)
        .map(|_| rng.gen_range(0..items.len()) as u32)
        .collect();
    Workload {
        kind: Kind::ServeHot,
        warmup,
        items,
        schedule,
        bodies: Vec::new(),
    }
}

fn cold_instance(rng: &mut StdRng, i: usize) -> BatchInstance {
    // Sized like the engine's mixed batch (`perf::mixed_batch`).
    match i % 5 {
        0 => BatchInstance::One(one_interval::feasible(rng, 36, 72, 3, 1)),
        1 => BatchInstance::One(one_interval::uniform(rng, 30, 60, 4, 2)),
        2 => BatchInstance::One(one_interval::bursty(
            rng,
            5,
            6,
            9,
            3,
            3,
            1 + (i / 5 % 2) as u32,
        )),
        3 => BatchInstance::One(one_interval::fixed_laxity(rng, 36, 90, 0, 1)),
        _ => BatchInstance::Multi(multi_interval::banded(rng, 14, 3, 8, 2)),
    }
}

/// Draw `count` instances whose canonical keys are new to `keys`.
fn distinct(rng: &mut StdRng, count: usize, keys: &mut HashSet<String>) -> Vec<Item> {
    let objective = Kind::ServeCold.objective();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let inst = cold_instance(rng, out.len());
        if keys.insert(canonicalize(&inst, objective).key) {
            out.push(Item::new(inst));
        }
    }
    out
}

fn cold(seed: u64, requests: usize) -> Workload {
    let mut keys = HashSet::new();
    // The warm-up stream comes from its own seed, so measured requests
    // can never be answered by a warm-up entry.
    let warmup = distinct(
        &mut rng_for(Kind::ServeCold, seed ^ 0x5EED_0FF5),
        COLD_WARMUP,
        &mut keys,
    );
    let items = distinct(&mut rng_for(Kind::ServeCold, seed), requests, &mut keys);
    Workload {
        kind: Kind::ServeCold,
        warmup,
        schedule: (0..items.len() as u32).collect(),
        items,
        bodies: Vec::new(),
    }
}

/// Why a batch_coupled draw was rejected, if it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    TooFewJobs,
    Decomposes,
    NoSearch,
    OutsideBand,
    NotExact,
}

/// Solve one draw single-threaded through the engine and keep it only if
/// it is a coupled core: at least [`PARALLEL_MIN_JOBS`] jobs, exactly one
/// component, and a search that expands nodes (the lower bounds alone do
/// not close it) — as many as [`COUPLED_NODES`] allows. Returns the result
/// body on acceptance.
pub fn validate_coupled(inst: &BatchInstance) -> Result<String, Reject> {
    if inst.job_count() < PARALLEL_MIN_JOBS {
        return Err(Reject::TooFewJobs);
    }
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let outcome = engine.solve_request(inst, Kind::BatchCoupled.objective(), false);
    let search = engine.metrics().search_totals();
    if !outcome.body.contains("solver=multi_exact") {
        return Err(Reject::NotExact);
    }
    if search.components.iter().sum::<u64>() != 1 {
        return Err(Reject::Decomposes);
    }
    if search.nodes_expanded == 0 {
        return Err(Reject::NoSearch);
    }
    if !COUPLED_NODES.contains(&search.nodes_expanded) {
        return Err(Reject::OutsideBand);
    }
    Ok(outcome.body)
}

fn coupled(seed: u64, requests: usize) -> Workload {
    let mut rng = rng_for(Kind::BatchCoupled, seed);
    let mut items = Vec::with_capacity(requests);
    let mut bodies = Vec::with_capacity(requests);
    let mut keys = HashSet::new();
    while items.len() < requests {
        // Draws come off one stream in order and are accepted in that
        // order, so the result does not depend on the round sizes.
        let need = requests - items.len();
        let round: Vec<BatchInstance> = (0..need + need / 4 + 2)
            .map(|_| {
                let n = rng.gen_range(18..=20);
                BatchInstance::Multi(multi_interval::banded(&mut rng, n, 3, 8, 2))
            })
            .collect();
        let verdicts = pool::map_ordered(round, 2, |_, inst| {
            validate_coupled(&inst).map(|body| (inst, body))
        });
        for (inst, body) in verdicts.into_iter().flatten() {
            let key = canonicalize(&inst, Kind::BatchCoupled.objective()).key;
            if items.len() < requests && keys.insert(key) {
                items.push(Item::new(inst));
                bodies.push(body);
            }
        }
    }
    Workload {
        kind: Kind::BatchCoupled,
        warmup: Vec::new(),
        schedule: (0..items.len() as u32).collect(),
        items,
        bodies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_text() {
        for kind in Kind::ALL {
            let n = if kind == Kind::BatchCoupled { 3 } else { 60 };
            let a = Workload::generate(kind, 7, n);
            let b = Workload::generate(kind, 7, n);
            assert_eq!(a.text(), b.text(), "{}", kind.name());
            assert_eq!(a.batch_stdin(), b.batch_stdin());
            let c = Workload::generate(kind, 8, n);
            assert_ne!(a.text(), c.text(), "{}: seeds must differ", kind.name());
        }
    }

    #[test]
    fn hot_variants_canonicalize_to_exactly_k_keys() {
        let w = Workload::generate(Kind::ServeHot, 3, 500);
        assert_eq!(w.items.len(), HOT_BASES * HOT_VARIANTS);
        let objective = Kind::ServeHot.objective();
        let keys: HashSet<String> = w
            .items
            .iter()
            .map(|item| canonicalize(&item.instance, objective).key)
            .collect();
        assert_eq!(keys.len(), HOT_BASES);
        let warm: HashSet<String> = w
            .warmup
            .iter()
            .map(|item| canonicalize(&item.instance, objective).key)
            .collect();
        assert_eq!(warm, keys, "warm-up must cover every base");
        const { assert!(HOT_BASES < 4096) };
    }

    #[test]
    fn cold_keys_are_all_distinct_including_warmup() {
        let w = Workload::generate(Kind::ServeCold, 5, 400);
        let objective = Kind::ServeCold.objective();
        let all: Vec<String> = w
            .warmup
            .iter()
            .chain(&w.items)
            .map(|item| canonicalize(&item.instance, objective).key)
            .collect();
        let distinct: HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
        assert_eq!(w.items.len(), 400);
        // Prefix-stable: a shorter draw is a prefix of a longer one.
        let short = Workload::generate(Kind::ServeCold, 5, 50);
        assert_eq!(short.items[49].payload, w.items[49].payload);
    }

    #[test]
    fn batch_instances_are_coupled_cores_with_search() {
        let w = Workload::generate(Kind::BatchCoupled, 2, 4);
        assert_eq!(w.items.len(), 4);
        for (item, body) in w.items.iter().zip(&w.bodies) {
            assert!(item.instance.job_count() >= PARALLEL_MIN_JOBS);
            assert_eq!(validate_coupled(&item.instance).as_ref(), Ok(body));
            assert!(body.contains("solver=multi_exact"), "{body}");
        }
        let short = Workload::generate(Kind::BatchCoupled, 2, 2);
        assert_eq!(short.bodies[..], w.bodies[..2]);
    }

    #[test]
    fn generator_rejects_draws_that_are_not_coupled_cores() {
        let mut rng = StdRng::seed_from_u64(11);
        // Too small for the parallel path.
        let small = BatchInstance::Multi(multi_interval::banded(&mut rng, 14, 3, 8, 2));
        assert_eq!(validate_coupled(&small), Err(Reject::TooFewJobs));
        // Four uncrossed clusters: the decomposition splits it.
        let split = BatchInstance::Multi(multi_interval::clustered(&mut rng, 4, 6, 8, 2, 5));
        assert_eq!(validate_coupled(&split), Err(Reject::Decomposes));
        // Eighteen back-to-back forced slots: one component that the
        // lower bounds close without expanding a node.
        let forced: Vec<Vec<i64>> = (0..18).map(|t| vec![t]).collect();
        let forced = BatchInstance::Multi(MultiInstance::from_times(forced).expect("valid"));
        assert_eq!(validate_coupled(&forced), Err(Reject::NoSearch));
    }
}
