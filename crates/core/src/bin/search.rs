//! Enumerate the Fill & Spill policy-parameter grid, run every candidate
//! across the fault catalogue, and print the ranked table.
//!
//! ```text
//! cargo run --release -p mantle-core --bin search             # full grid
//! cargo run --release -p mantle-core --bin search -- --smoke  # CI-sized
//! ```

use mantle_core::search::search_table;

const USAGE: &str = "\
usage: search [--smoke]

Enumerates the policy-parameter grid around Listing 3 (spill fraction ×
CPU threshold × patience × dirfrag selector × mds_load capacity term —
216 candidates), runs each across the five degraded-cluster fault
scenarios, and prints the candidates ranked by
mean ops/s with migrations/timeouts/fallbacks alongside. --smoke runs a
CI-sized corner of the grid instead (seconds, not minutes).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut smoke = false;
    for arg in &args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    println!("{}", search_table(smoke));
}
