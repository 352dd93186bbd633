//! Runs the paper's experiments and prints their reports.
//!
//! Usage: `cargo run --release -p wgtt-bench --bin run_all -- [<id>…] [--fast]`
//!
//! With no ids it runs every experiment in paper order, regenerating the
//! complete evaluation; otherwise it runs the named ones in the order
//! given. The ids are those of `wgtt_bench::all_experiments()`; an
//! unknown id exits non-zero and lists the valid ones. `--fast` runs a
//! quick single-seed pass instead of full fidelity.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--fast");
    let fast = !flags.is_empty();
    let all = wgtt_bench::all_experiments();
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !all.iter().any(|(known, _)| known == id))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {}", unknown.join(", "));
        eprintln!("valid ids:");
        for (id, _) in &all {
            eprintln!("  {id}");
        }
        return ExitCode::from(2);
    }
    let selected: Vec<_> = if ids.is_empty() {
        all.iter().collect()
    } else {
        ids.iter()
            .filter_map(|want| all.iter().find(|(id, _)| id == want))
            .collect()
    };
    for (id, report) in selected {
        println!("=== {id} ===");
        let t0 = std::time::Instant::now();
        print!("{}", report(fast));
        println!("[{id} took {:.1?}]\n", t0.elapsed());
    }
    ExitCode::SUCCESS
}
