//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload all ...      every workload, one result line each
//! perfbench pin                     re-pin oracles.json (see oracles.rs)
//! perfbench shard --shard FILE ...  sweep worker (spawned by fig4a-full)
//! ```
//!
//! Workloads: `fig5a`, `fig4a-full`, `serve-warm` (see README.md). With
//! `--trace 0` a run prints every end-to-end metric; with `--trace 1`
//! every per-layer metric. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. The exit code
//! is 1 when any output differs from its oracle or any operation failed.

mod common;
mod fig;
mod layers;
mod oracles;
mod reqgen;
mod serve;
mod spans;
mod stats;
mod traced;

use common::{clean_run_dir, Args, Outcome};
use std::process::ExitCode;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["fig5a", "fig4a-full", "serve-warm"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (0|1)")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(usage());
    }
    Ok(out)
}

fn run_one(args: &Args) -> Outcome {
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fig5a", false) => fig::fig5a(args),
        ("fig5a", true) => fig::fig5a_traced(args),
        ("fig4a-full", false) => fig::fig4a_full(args),
        ("fig4a-full", true) => fig::fig4a_full_traced(args),
        ("serve-warm", false) => serve::serve_warm(args),
        ("serve-warm", true) => serve::serve_warm_traced(args),
        _ => unreachable!("workload names are validated"),
    };
    clean_run_dir();
    for m in &outcome.metrics {
        println!("   {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "   failed_frac {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    outcome
}

fn pin() -> Result<(), String> {
    let (csv, manifest) = fig::pin_fig4a_full()?;
    let serve = serve::pin_serve_warm()?;
    clean_run_dir();
    let text = oracles::render(&oracles::Fig4aOracle { csv, manifest }, &serve);
    std::fs::write("perfbench/oracles.json", text).map_err(|e| format!("oracles.json: {e}"))?;
    println!("wrote perfbench/oracles.json");
    Ok(())
}

fn main() -> ExitCode {
    // Relative paths (results/, the scratch root, sockets) resolve
    // against the repository root, wherever the benchmark is run from.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if let Err(e) = std::env::set_current_dir(root) {
        eprintln!("perfbench: cannot enter {root}: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match argv.first().map(String::as_str) {
        Some("shard") => fig::shard_worker(&argv[1..]).map(|()| true),
        Some("pin") => pin().map(|()| true),
        _ => parse(&argv).map(|args| {
            let names: Vec<&str> = if args.workload == "all" {
                WORKLOADS.to_vec()
            } else {
                vec![args.workload.as_str()]
            };
            let mut correct = true;
            for name in names {
                let outcome = run_one(&Args {
                    workload: name.to_string(),
                    ..args.clone()
                });
                correct &= outcome.failed == 0;
                println!("{}", outcome.to_json());
            }
            correct
        }),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
