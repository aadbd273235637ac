//! Experiment driver: regenerates every table of the reproduction, and
//! records the engine perf trajectory machine-readably.
//!
//! Usage:
//!   experiments              # run everything
//!   experiments e4 e16       # run selected experiments
//!   experiments --list       # show the catalog
//!   experiments --json PATH  # run the engine perf suite and write the
//!                            # per-benchmark min/median/max wall-clock
//!                            # JSON (BENCH_engine.json by convention);
//!                            # optional: --instances N --samples N
//!                            # (default 600 instances, 5 samples)

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        println!("available experiments:");
        for (id, desc) in gaps_bench::catalog() {
            println!("  {id:<4} {desc}");
        }
        return;
    }
    if args.iter().any(|a| a == "--json") {
        let path = flag_value(&args, "--json").unwrap_or_else(|| {
            eprintln!("error: --json needs a file path (e.g. --json BENCH_engine.json)");
            std::process::exit(2);
        });
        let instances = numeric_flag(&args, "--instances", 600);
        let samples = numeric_flag(&args, "--samples", 5);
        eprintln!(
            "measuring engine trajectory ({instances} instances, {samples} samples per point)…"
        );
        let suite = gaps_bench::perf::engine_trajectory(instances, samples);
        for r in &suite.results {
            eprintln!(
                "  {:<36} min {:>12} / median {:>12} / max {:>12} ns",
                r.name, r.min_ns, r.median_ns, r.max_ns
            );
        }
        for (name, value) in &suite.derived {
            eprintln!("  {name:<36} {value:.3}");
        }
        std::fs::write(&path, suite.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
        return;
    }
    let start = Instant::now();
    let tables = gaps_bench::run(&args);
    if tables.is_empty() {
        eprintln!("no experiment matches {args:?}; try --list");
        std::process::exit(2);
    }
    for t in &tables {
        println!("{t}");
    }
    println!(
        "ran {} experiment(s) in {:.1}s",
        tables.len(),
        start.elapsed().as_secs_f64()
    );
}

/// Value following `flag`, if present and not itself a flag.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

fn numeric_flag(args: &[String], flag: &str, default: usize) -> usize {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("bad {flag} value {v:?}")),
    }
}
