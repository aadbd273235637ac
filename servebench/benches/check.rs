//! Answer checks, run outside the timed phases: every reply must equal
//! the single-thread in-process `Engine::solve_request` body for the same
//! instance, and the default seed's optima must equal the copy recorded
//! under `expected/`.

use crate::workload::{Item, Kind, Workload, DEFAULT_SEED};
use gaps_engine::{pool, Engine, EngineConfig};
use std::path::PathBuf;

/// Items of the default-seed workload whose recorded answers every run
/// re-derives, whatever its seed.
fn canary_items(kind: Kind) -> usize {
    match kind {
        Kind::ServeHot => 0, // the whole variant pool, independent of size
        Kind::ServeCold => 200,
        Kind::BatchCoupled => 8,
    }
}

/// Items recorded under `expected/` by `--record`.
fn recorded_items(kind: Kind) -> usize {
    match kind {
        Kind::ServeHot => 0,
        Kind::ServeCold => 2000,
        Kind::BatchCoupled => 200,
    }
}

/// The reference body of every distinct item: a single-thread engine
/// without a cache, so each item is solved from scratch. Items are
/// independent, so two of them are solved at a time.
pub fn expected_bodies(w: &Workload) -> Vec<String> {
    if !w.bodies.is_empty() {
        return w.bodies.clone();
    }
    let objective = w.kind.objective();
    let items: Vec<&Item> = w.items.iter().collect();
    pool::map_ordered(items, 2, |_, item| {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        engine.solve_request(&item.instance, objective, false).body
    })
}

/// The answer status a body carries: `exact=<v>`, `infeasible`, or
/// `bounded:<payload>` for a `<=` / `>=` bound.
pub fn status(body: &str) -> String {
    let payload = body.split_whitespace().nth(2).unwrap_or("");
    if payload == "infeasible" {
        "infeasible".to_string()
    } else if payload.contains("<=") || payload.contains(">=") {
        format!("bounded:{payload}")
    } else {
        match payload.split_once('=') {
            Some((_, value)) => format!("exact={value}"),
            None => format!("unknown:{payload}"),
        }
    }
}

/// Exact optimum or proven infeasible.
pub fn is_definitive(body: &str) -> bool {
    let s = status(body);
    s.starts_with("exact=") || s == "infeasible"
}

fn recorded_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.txt", kind.name()))
}

fn render(kind: Kind, bodies: &[String]) -> String {
    let mut out = format!(
        "# {} seed {DEFAULT_SEED}: item index, then exact=<value> | infeasible | bounded:<payload>\n",
        kind.name()
    );
    for (i, body) in bodies.iter().enumerate() {
        out.push_str(&format!("{i} {}\n", status(body)));
    }
    out
}

fn load(kind: Kind) -> Result<Vec<String>, String> {
    let path = recorded_path(kind);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once(' ').map_or("", |(_, s)| s).to_string())
        .collect())
}

/// Compare item statuses against the recorded copy; returns how many
/// items were compared and the mismatching indices.
fn compare(kind: Kind, bodies: &[String]) -> Result<(usize, Vec<usize>), String> {
    let recorded = load(kind)?;
    let n = bodies.len().min(recorded.len());
    let bad = (0..n)
        .filter(|&i| status(&bodies[i]) != recorded[i])
        .collect();
    Ok((n, bad))
}

/// The recorded-optimum check. With the default seed the run's own items
/// are compared; with any other seed the default seed's first items are
/// regenerated and solved in-process, so a changed optimum fails every
/// run.
pub fn recorded(
    kind: Kind,
    seed: u64,
    run_bodies: &[String],
) -> Result<(usize, Vec<usize>), String> {
    if seed == DEFAULT_SEED {
        return compare(kind, run_bodies);
    }
    let canary = Workload::generate(kind, DEFAULT_SEED, canary_items(kind));
    compare(kind, &expected_bodies(&canary))
}

/// `--record`: write the default seed's statuses under `expected/`.
pub fn record_all() -> Result<(), String> {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, DEFAULT_SEED, recorded_items(kind));
        let bodies = expected_bodies(&w);
        let path = recorded_path(kind);
        std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
            .and_then(|()| std::fs::write(&path, render(kind, &bodies)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("recorded {} items to {}", bodies.len(), path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_classify_payloads() {
        assert_eq!(status("one n=3 gaps=2 solver=baptiste_dp"), "exact=2");
        assert_eq!(
            status("one n=3 infeasible solver=forced_chain"),
            "infeasible"
        );
        assert_eq!(
            status("multi n=90 power<=9.50 solver=theorem3_approx"),
            "bounded:power<=9.50"
        );
        assert!(is_definitive("multi n=9 infeasible solver=multi_exact"));
        assert!(is_definitive("one n=3 power=14 solver=power_dp"));
        assert!(!is_definitive("multi n=90 gaps>=1 solver=lower_bound"));
    }

    #[test]
    fn recorded_copies_exist_and_match_the_renderer() {
        for kind in Kind::ALL {
            let recorded = load(kind).expect("recorded copy is committed");
            assert!(recorded.len() >= canary_items(kind));
            assert!(recorded.iter().all(|s| !s.starts_with("unknown")));
        }
    }
}
