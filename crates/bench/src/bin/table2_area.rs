//! Table II: SSPM area and leakage per configuration.

use via_bench::report::{banner, render_table};
use via_bench::{cli_args, table2_area};
use via_core::ViaConfig;
use via_energy::{AreaModel, HASWELL_CORE_MM2};

fn main() {
    cli_args(&[], &[]);
    print!(
        "{}",
        banner(
            "Table II — area and leakage power (22 nm)",
            "16_4p: 0.827 mm2 / 0.69 mW; 16_2p: 0.515 / 0.50; 4_4p: 0.180 / 0.22; \
             4_2p: 0.118 / 0.14; 8_4p: 0.43 / 0.39; 8_2p: 0.29 / 0.28 (paper §VI-B)",
        )
    );
    let header: Vec<String> = [
        "config",
        "area model (mm2)",
        "area paper",
        "err",
        "leak model (mW)",
        "leak paper",
        "err",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = table2_area()
        .into_iter()
        .map(|(p, area, leak)| {
            vec![
                format!("{}_{}p", p.sspm_kb, p.ports),
                format!("{area:.3}"),
                format!("{:.3}", p.area_mm2),
                format!("{:+.1}%", (area / p.area_mm2 - 1.0) * 100.0),
                format!("{leak:.3}"),
                format!("{:.3}", p.leakage_mw),
                format!("{:+.1}%", (leak / p.leakage_mw - 1.0) * 100.0),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
    let model = AreaModel::new();
    for cfg in [ViaConfig::new(16, 4), ViaConfig::new(16, 2)] {
        println!(
            "core-area overhead of {}: {:.1}% of a {HASWELL_CORE_MM2} mm2 Haswell core \
             (paper: 5% for 16_4p, 3% for 16_2p)",
            cfg.name(),
            AreaModel::new().core_overhead(&cfg) * 100.0
        );
    }
    let _ = model;
}
