//! Ablation studies for the reproduction's design decisions (beyond the
//! paper's published experiments).

use via_bench::ablations;
use via_bench::report::{banner, render_table};
use via_bench::{cli_args, ExperimentScale, SCALE_FLAGS};

fn main() {
    let args = cli_args(SCALE_FLAGS, &[]);
    let scale = ExperimentScale::default().from_args(&args);
    print!(
        "{}",
        banner(
            "Ablations",
            "design-decision sweeps: commit serialization (§IV-E), CSB block \
             tuning (§V-B), gather overhead (§III-A), SSPM port width, \
             prefetching, CSB baseline style",
        )
    );
    for ab in ablations::all(&scale) {
        println!("\n## {}", ab.name);
        let header: Vec<String> = ["knob", "cycles", "relative"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = ab
            .points
            .iter()
            .map(|p| {
                vec![
                    p.knob.clone(),
                    p.cycles.to_string(),
                    format!("{:.3}", p.relative),
                ]
            })
            .collect();
        print!("{}", render_table(&header, &rows));
        println!("=> {}", ab.conclusion);
    }
}
