//! Run the scale-mode scenarios and print the wall-clock table.
//!
//! ```text
//! cargo run --release -p mantle-core --bin scale               # full rows
//! cargo run --release -p mantle-core --bin scale -- --smoke    # CI-sized
//! ```

use mantle_core::scale::scale_table;

const USAGE: &str = "\
usage: scale [--smoke]

Runs the scale-mode scenarios (zipf-mix workloads at 10/64/128 MDSs) and
prints the wall-clock table recorded in EXPERIMENTS.md. --smoke runs a
single CI-sized row instead of the full (multi-minute) sweep.";

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
    println!("{}", scale_table(smoke));
}
