//! The MiBench-like kernels run on the *gate-level* Ibex-class and
//! Cortex-M0-class cores and must produce exactly the results the
//! instruction-set simulators produce — closing the loop between the
//! workload substrate (Table I) and the hardware substrate (Figs. 5–7).

use pdat_repro::cores::{build_cortexm0, build_ibex, CoreHarness};
use pdat_repro::isa::armv6m::ThumbInstr;
use pdat_repro::workloads::kernels_thumb::{
    t_automotive_kernels, t_networking_kernels, t_security_kernels,
};
use pdat_repro::workloads::{kernels_rv, run_rv_kernel, run_thumb_kernel, RvKernel};

fn gate_level_result(kernel: &RvKernel) -> (u32, u64) {
    let core = build_ibex();
    let mut h = CoreHarness::new(&core, &kernel.image, 4096);
    // Run until the trap for `ecall` fires (the core redirects to mtvec=0;
    // we simply stop at the first trap strobe by bounding on retires).
    let iss = run_rv_kernel(kernel);
    let want_retires = iss.retired as usize + 1; // + the ecall itself
    let got = h.run_until_retires(want_retires, kernel.fuel * 40);
    assert_eq!(
        got, want_retires,
        "{}: gate-level core stalled ({} of {} retires)",
        kernel.name, got, want_retires
    );
    (h.reg(10), h.cycles())
}

#[test]
fn basicmath_matches_iss_on_gates() {
    let k = kernels_rv::basicmath();
    let iss = run_rv_kernel(&k);
    let (x10, cycles) = gate_level_result(&k);
    assert_eq!(x10, iss.regs[10], "basicmath diverged");
    // div/rem stall 33 cycles each: the gate-level run must be much longer
    // than the instruction count.
    assert!(cycles > iss.retired, "mul/div stalls expected");
}

#[test]
fn crc32_matches_iss_on_gates() {
    let k = kernels_rv::crc32();
    let iss = run_rv_kernel(&k);
    let (x10, _) = gate_level_result(&k);
    assert_eq!(x10, iss.regs[10], "crc32 diverged");
}

#[test]
fn patricia_matches_iss_on_gates() {
    let k = kernels_rv::patricia();
    let iss = run_rv_kernel(&k);
    let (x10, _) = gate_level_result(&k);
    assert_eq!(x10, iss.regs[10], "patricia diverged");
}

#[test]
fn sha_mix_matches_iss_on_gates() {
    let k = kernels_rv::sha_mix();
    let iss = run_rv_kernel(&k);
    let (x10, _) = gate_level_result(&k);
    assert_eq!(x10, iss.regs[10], "sha_mix diverged");
}

#[test]
fn qsort_matches_iss_on_gates() {
    let k = kernels_rv::qsort();
    let iss = run_rv_kernel(&k);
    let (x10, _) = gate_level_result(&k);
    assert_eq!(x10, iss.regs[10], "qsort diverged");
}

#[test]
fn thumb_kernels_match_iss_on_gates() {
    let core = build_cortexm0();
    let kernels = [
        t_networking_kernels(),
        t_security_kernels(),
        t_automotive_kernels(),
    ]
    .concat();
    assert_eq!(kernels.len(), 8);
    for k in &kernels {
        let iss = run_thumb_kernel(k);
        // The core retires a BL's two halfwords separately.
        let bls = iss.profile.get(&ThumbInstr::Bl).copied().unwrap_or(0);
        let want_retires = (iss.retired + bls) as usize;
        let mut h = CoreHarness::new(&core, &k.image, 4096);
        let got = h.run_until_retires(want_retires, k.fuel * 40);
        assert_eq!(
            got, want_retires,
            "{}: gate-level core stalled ({} of {} retires)",
            k.name, got, want_retires
        );
        for r in 0..15 {
            assert_eq!(h.reg(r), iss.regs[r], "{}: r{r} diverged", k.name);
        }
        let image = k.image.len();
        assert_eq!(
            h.dmem[image..],
            iss.mem[image..],
            "{}: data memory above the image diverged",
            k.name
        );
    }
}
