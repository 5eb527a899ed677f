//! Regenerate the paper's Tables 2, 3 and 4.
//!
//! ```text
//! tables            # all three
//! tables --table 2  # one table
//! ```

use wp_bench::{flag_value, format_table, table_csv};
use wp_sim::experiments::{table2, table3, table4};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which: Option<u32> = flag_value(&args, "--table").map(|v| v.parse().expect("--table"));
    let csv_dir = flag_value(&args, "--csv-dir");
    let maybe_csv = |id: u32,
                     rows: &[(
        wp_sim::experiments::RowConfig,
        Vec<wp_sim::experiments::CellResult>,
    )]| {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/table{id}.csv");
            std::fs::write(&path, table_csv(rows)).expect("write csv");
            eprintln!("(CSV written to {path})");
        }
    };

    if which.is_none() || which == Some(2) {
        let rows = table2();
        maybe_csv(2, &rows);
        println!(
            "{}",
            format_table(
                "Table 2 — 16×A800, NVLink within two clusters, 32 layers \
                 (throughput tokens/s/GPU + worst-rank memory)",
                &rows,
                true
            )
        );
    }
    if which.is_none() || which == Some(3) {
        let rows = table3();
        maybe_csv(3, &rows);
        println!(
            "{}",
            format_table(
                "Table 3 — 16×A800 across 4 clusters, PCIe within + 10 GbE between, 32 layers",
                &rows,
                false
            )
        );
    }
    if which.is_none() || which == Some(4) {
        let rows = table4();
        maybe_csv(4, &rows);
        println!(
            "{}",
            format_table(
                "Table 4 — 8×A800, single NVLink island, 16 layers \
                 (the small/fast corner where baselines can win)",
                &rows,
                true
            )
        );
    }
}
