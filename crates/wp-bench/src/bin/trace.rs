//! Trace a real WeiPipe training run and compare it against the simulator.
//!
//! Runs one traced iteration of WeiPipe-Interleave on 4 rank threads,
//! renders the *measured* timeline with the same ASCII Gantt renderer the
//! simulator uses, and prints the measured-vs-simulated drift report
//! (per-phase bubble, per-class busy shares).
//!
//! ```text
//! cargo run --release -p wp-bench --bin trace -- \
//!     [--trace-out trace.json] [--validate] [--ranks 4] [--microbatches 8] \
//!     [--blocking]
//! ```
//!
//! `--trace-out` writes the Chrome trace-event JSON (open at
//! <https://ui.perfetto.dev>); `--validate` re-parses the export and fails
//! the process if it is malformed — the CI smoke check.

use weipipe::{run_distributed, Strategy, TraceConfig, TrainSetup};
use wp_bench::drift::{drift_report, truncation_warning};
use wp_bench::flag_value;
use wp_sched::{build, PipelineSpec};
use wp_sim::{
    measured_result, render::ascii_timeline, simulate, ClusterSpec, CostModel, GpuSpec, ModelDims,
    SimOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_out = flag_value(&args, "--trace-out");
    let validate = args.iter().any(|a| a == "--validate");
    let ranks: usize = flag_value(&args, "--ranks").map_or(4, |v| v.parse().expect("--ranks"));
    let microbatches: usize = flag_value(&args, "--microbatches")
        .map_or(2 * ranks, |v| v.parse().expect("--microbatches"));
    // `--blocking` traces the blocking weight ring instead of the default
    // double-buffered (overlapped) one, on both the measured and simulated
    // sides — so the drift report can compare overlap against its ablation.
    let overlap = !args.iter().any(|a| a == "--blocking");

    // One traced iteration of a real run. Layers = ranks keeps the tiny
    // model legal for any P.
    let mut setup = TrainSetup::tiny(ranks, microbatches).with_overlap(overlap);
    setup.iters = 1;
    setup.trace = TraceConfig::on();
    let strategy = Strategy::WeiPipeInterleave;
    println!(
        "tracing {strategy:?}: P={ranks}, {microbatches} microbatches, 1 iteration, {} ring…\n",
        if overlap { "overlapped" } else { "blocking" }
    );
    let out = run_distributed(strategy, ranks, &setup).expect("healthy world");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let measured = measured_result(trace);

    // The simulator's view of the *same schedule IR*, timed on A800s.
    let spec = PipelineSpec::new(ranks, microbatches)
        .without_recompute()
        .with_overlap(overlap);
    let sched = build(strategy, spec);
    let dims = ModelDims::paper(1024, ranks, 4096, microbatches);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let cluster = ClusterSpec {
        ranks,
        node_size: ranks,
        ..ClusterSpec::nvlink_16()
    };
    let sim = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("fits");

    if let Some(warn) = truncation_warning(trace) {
        eprintln!("{warn}\n");
    }
    println!("measured timeline ({} spans):", trace.span_count());
    println!("{}", ascii_timeline(&measured, 96));
    println!("simulated timeline:");
    println!("{}", ascii_timeline(&sim, 96));
    println!(
        "{}",
        drift_report(
            &format!("Measured vs simulated — {strategy:?}, P={ranks}"),
            &sim,
            &measured
        )
    );

    let json = wp_trace::export_chrome_json(trace);
    if validate {
        match wp_trace::validate_chrome_json(&json) {
            Ok(stats) => println!(
                "validated export: {} events ({} spans, {} instants) on {} tracks",
                stats.events, stats.spans, stats.instants, stats.tracks
            ),
            Err(e) => {
                eprintln!("export failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, &json).expect("write trace file");
        println!("wrote {path} — open at https://ui.perfetto.dev or chrome://tracing");
    }
}
