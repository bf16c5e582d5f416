//! Regenerates the paper's Fig. 6: PDAT on the obfuscated Cortex-M0
//! netlist with port-based constraints.

use pdat::PdatConfig;
use pdat_bench::{m0_variant_rows, render_rows, write_csv};
use pdat_isa::ThumbSubset;
use pdat_workloads::{mibench_thumb_all, mibench_thumb_subset, BenchGroup};

fn main() {
    let config = PdatConfig::default();
    let subsets = vec![
        ThumbSubset::armv6m(),
        mibench_thumb_subset(BenchGroup::Networking),
        mibench_thumb_subset(BenchGroup::Security),
        mibench_thumb_subset(BenchGroup::Automotive),
        mibench_thumb_all(),
        ThumbSubset::interesting_subset(),
    ];
    let rows = m0_variant_rows(&subsets, true, &config);
    print!(
        "{}",
        render_rows("Fig. 6: obfuscated Cortex-M0 variants", &rows)
    );
    if let Ok(p) = write_csv("fig6.csv", &rows) {
        println!("-> {}\n", p.display());
    }
    println!(
        "paper shape: full-ISA PDAT alone saves ~20% area / 18% gates on the\n\
         obfuscated core; 'MiBench All' matches 'ARMv6-M' (port-based constraints\n\
         can't capture two-halfword alignment); Interesting Subset ~23%/20%."
    );
}
