//! Regenerates the paper's Fig. 5: area and gate count for Ibex variants.
//!
//! Three panels, selectable by argument (default: all):
//! * `isa`     — RISC-V ISA variants generated from the base ISA;
//! * `mibench` — cores customized for the MiBench benchmark groups;
//! * `special` — Reduced Addressing / Safety Critical / No Parallelism /
//!   Aligned / RiSC-16.

use pdat::PdatConfig;
use pdat_bench::{ibex_variant_rows, render_rows, write_csv};
use pdat_isa::RvSubset;
use pdat_workloads::{mibench_rv_all, mibench_rv_subset, BenchGroup};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let config = PdatConfig::default();

    if which == "all" || which == "isa" {
        let subsets = vec![
            RvSubset::rv32imcz(), // the paper's "Ibex ISA"
            RvSubset::rv32imc(),
            RvSubset::rv32im(),
            RvSubset::rv32ic(),
            RvSubset::rv32i(),
            RvSubset::rv32e(),
        ];
        let rows = ibex_variant_rows(&subsets, &config);
        print!("{}", render_rows("Fig. 5 (left): Ibex ISA variants", &rows));
        if let Ok(p) = write_csv("fig5_isa.csv", &rows) {
            println!("-> {}\n", p.display());
        }
    }
    if which == "all" || which == "mibench" {
        let subsets = vec![
            mibench_rv_subset(BenchGroup::Networking),
            mibench_rv_subset(BenchGroup::Security),
            mibench_rv_subset(BenchGroup::Automotive),
            mibench_rv_all(),
        ];
        let rows = ibex_variant_rows(&subsets, &config);
        print!(
            "{}",
            render_rows("Fig. 5 (middle): MiBench-customized Ibex", &rows)
        );
        if let Ok(p) = write_csv("fig5_mibench.csv", &rows) {
            println!("-> {}\n", p.display());
        }
    }
    if which == "all" || which == "special" {
        let subsets = vec![
            RvSubset::rv32i(), // the panel's baseline
            RvSubset::reduced_addressing(),
            RvSubset::safety_critical(),
            RvSubset::no_parallelism(),
            RvSubset::aligned(),
            RvSubset::risc16(),
        ];
        let rows = ibex_variant_rows(&subsets, &config);
        print!(
            "{}",
            render_rows("Fig. 5 (right): special RV32I variants", &rows)
        );
        if let Ok(p) = write_csv("fig5_special.csv", &rows) {
            println!("-> {}\n", p.display());
        }
    }
    println!(
        "paper shape: 'Ibex ISA' (full-ISA PDAT) ~10% smaller than Full; extension\n\
         removals 10-47%; c-removal cheap; MiBench All ~14% fewer gates than Full."
    );
}
