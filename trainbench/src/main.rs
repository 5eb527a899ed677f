//! `trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the benchmark's JSON result as the last line of standard output.
//! See `README.md` for the workloads and metrics.

use std::process::ExitCode;
use trainbench::{Args, E2E, LAYERS};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match trainbench::child(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("trainbench {}: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let json = if args.trace {
        trainbench::layers(&args).to_json(LAYERS)
    } else {
        trainbench::timed(&args).to_json(E2E)
    };
    println!("{json}");
    ExitCode::SUCCESS
}
