//! Regenerate the paper's scaling studies: Figures 6–9.
//!
//! ```text
//! scaling           # all four
//! scaling --fig 7   # one
//! ```

use wp_bench::{flag_value, format_scaling};
use wp_sim::experiments::{fig6_weak_small, fig7_weak_large, fig8_strong_small, fig9_strong_large};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which: Option<u32> = flag_value(&args, "--fig").map(|v| v.parse().expect("--fig"));

    if which.is_none() || which == Some(6) {
        println!(
            "{}",
            format_scaling(
                "Figure 6 — small-scale weak scaling (4→16 GPUs, 4/server, batch 64→256)",
                &fig6_weak_small()
            )
        );
    }
    if which.is_none() || which == Some(7) {
        println!(
            "{}",
            format_scaling(
                "Figure 7 — large-scale weak scaling (8→32 GPUs, 8/server, batch 128→512)",
                &fig7_weak_large()
            )
        );
    }
    if which.is_none() || which == Some(8) {
        println!(
            "{}",
            format_scaling(
                "Figure 8 — small-scale strong scaling (4→16 GPUs, batch fixed 128)",
                &fig8_strong_small()
            )
        );
    }
    if which.is_none() || which == Some(9) {
        println!(
            "{}",
            format_scaling(
                "Figure 9 — large-scale strong scaling (8→32 GPUs, batch fixed 256)",
                &fig9_strong_large()
            )
        );
    }
}
