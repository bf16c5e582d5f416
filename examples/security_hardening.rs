//! Security hardening scenario (paper §III, "trustworthy execution"):
//! an embedded deployment wants a core that *physically cannot* execute
//! indirect jumps or environment calls — the classic ROP/exploit gadget
//! surface — without touching the RTL.
//!
//! PDAT generates the reduced core automatically from the gate-level
//! netlist using the paper's "Safety Critical" subset (no JALR, AUIPC,
//! FENCE, ECALL, EBREAK).
//!
//! Run with:
//! ```sh
//! cargo run --release --example security_hardening
//! ```

use pdat_repro::cores::{build_ibex, rebind_ibex, CoreHarness};
use pdat_repro::isa::rv32::{encode as e, Assembler};
use pdat_repro::isa::RvSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn main() {
    let core = build_ibex();
    let subset = RvSubset::safety_critical();
    println!(
        "hardening for `{}`: {} of 78 instruction forms allowed",
        subset.name,
        subset.instrs.len()
    );

    let result = run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset: &subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &PdatConfig::default(),
    )
    .expect("pdat run");
    println!(
        "gates {} -> {} ({:.1}% reduction), {} invariants proved",
        result.baseline.gate_count,
        result.optimized.gate_count,
        100.0 * result.gate_reduction(),
        result.proved
    );

    // A conforming firmware image (direct jumps only) runs identically...
    let mut a = Assembler::new();
    let f = a.new_label();
    a.emit(e::addi(1, 0, 64)); // data base
    a.emit(e::addi(2, 0, 0x5A));
    a.emit(e::sw(2, 1, 0));
    a.jal(5, f); // direct call — allowed
    a.emit(e::lw(3, 1, 0));
    a.emit(e::xor(4, 3, 2)); // 0
    loop_forever(&mut a);
    a.bind(f);
    a.emit(e::slli(2, 2, 1));
    // return via direct jump instead of jalr (subset-conforming):
    let back = a.new_label();
    a.jal(0, back);
    a.bind(back);
    // fallthrough continues after... (toy control flow)
    a.emit(e::addi(6, 0, 1));
    let program = a.finish();

    let reduced = rebind_ibex(result.netlist);
    let mut h1 = CoreHarness::new(&core, &program, 1024);
    let mut h2 = CoreHarness::new(&reduced, &program, 1024);
    h1.run_until_retires(6, 500);
    h2.run_until_retires(6, 500);
    assert_eq!(h1.retires, h2.retires);
    println!("conforming firmware executes identically on the hardened core.");

    // ...and the gadget instruction is *gone*: executing a JALR on the
    // hardened core cannot produce the architectural effect it has on the
    // original (its support logic was physically removed).
    let mut g = Assembler::new();
    g.emit(e::addi(1, 0, 16)); // target address
    g.emit(e::jalr(2, 1, 0)); // indirect jump — the ROP gadget
    g.emit(e::addi(3, 0, 7)); // (skipped on the original core)
    let gadget = g.finish();
    let mut h1 = CoreHarness::new(&core, &gadget, 1024);
    let mut h2 = CoreHarness::new(&reduced, &gadget, 1024);
    h1.run_until_retires(2, 100);
    h2.run_until_retires(2, 100);
    let jumped_original = h1.retires.get(1).map(|r| r.0);
    let jumped_reduced = h2.retires.get(1).map(|r| r.0);
    println!(
        "JALR on original core: pc trace {:?}; on hardened core: {:?}",
        h1.retires, h2.retires
    );
    if jumped_original != jumped_reduced || h1.reg(2) != h2.reg(2) {
        println!("indirect-jump support is physically absent from the hardened core ✓");
    } else {
        println!(
            "note: this particular gadget behaved identically (the removed logic \
             may not affect this encoding) — the guarantee is for conforming \
             software only"
        );
    }
}

fn loop_forever(a: &mut Assembler) {
    let here = a.here();
    a.jump_back(here);
}
