//! Table I: simulation parameters of the reproduction.

use via_bench::cli_args;
use via_bench::report::{banner, render_table};
use via_core::ViaConfig;
use via_kernels::SimContext;

fn main() {
    cli_args(&[], &[]);
    print!(
        "{}",
        banner(
            "Table I — simulation parameters",
            "gem5 full-system x86 OoO core + VIA hardware configurations (paper §V-A)",
        )
    );
    let ctx = SimContext::default();
    let core = &ctx.core;
    let mem = &ctx.mem;
    let header = vec!["parameter".to_string(), "value".to_string()];
    let gb = |b: usize| format!("{} KB", b / 1024);
    let mut rows = vec![
        vec![
            "core".into(),
            format!("out-of-order, {} GHz", core.freq_ghz),
        ],
        vec![
            "fetch/commit width".into(),
            format!("{}/{}", core.fetch_width, core.commit_width),
        ],
        vec!["ROB".into(), format!("{} entries", core.rob_size)],
        vec![
            "scalar ALUs / vector ALUs".into(),
            format!("{}/{}", core.scalar_alus, core.vector_alus),
        ],
        vec![
            "load/store ports".into(),
            format!("{}/{}", core.load_ports, core.store_ports),
        ],
        vec![
            "vector length".into(),
            format!("{} x 64-bit (AVX2-class)", core.vl),
        ],
        vec![
            "gather overhead".into(),
            format!("{} cycles + per-element access", core.gather_overhead),
        ],
        vec![
            "branch mispredict penalty".into(),
            format!("{} cycles", core.mispredict_penalty),
        ],
        vec![
            "L1D".into(),
            format!(
                "{}, {}-way, {} cycles",
                gb(mem.l1.size_bytes),
                mem.l1.ways,
                mem.l1.latency
            ),
        ],
        vec![
            "L2".into(),
            format!(
                "{}, {}-way, {} cycles",
                gb(mem.l2.size_bytes),
                mem.l2.ways,
                mem.l2.latency
            ),
        ],
        vec![
            "L3".into(),
            format!(
                "{}, {}-way, {} cycles",
                gb(mem.l3.size_bytes),
                mem.l3.ways,
                mem.l3.latency
            ),
        ],
        vec![
            "DRAM".into(),
            format!(
                "{} cycles, {} B/cycle",
                mem.dram_latency, mem.dram_bytes_per_cycle
            ),
        ],
    ];
    for cfg in ViaConfig::all_synthesized_points() {
        rows.push(vec![
            format!("VIA SSPM {}", cfg.name()),
            format!(
                "{} KB SRAM ({} entries), {} ports, CAM {} entries, CSB block {}",
                cfg.sspm_kb,
                cfg.entries(),
                cfg.ports,
                cfg.cam_entries(),
                cfg.csb_block_size()
            ),
        ]);
    }
    print!("{}", render_table(&header, &rows));
    println!("\nVIA ISA extensions (paper §IV-C):");
    print!("{}", via_core::render_isa());
}
