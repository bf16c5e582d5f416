//! A Cortex-M0-class core generator: 3-stage (IF/DE/EX), in-order ARMv6-M
//! (Thumb) with 16 registers and NZCV flags.
//!
//! Matches the paper's Table II row: 3 stages, issue width 1, statically
//! not-taken branches, 16 registers, ~10k gates. ARMv6-M is *not* modular —
//! the decode/flag/system logic here is deliberately interwoven so that no
//! parameterization could remove instruction support; only PDAT-style
//! analysis can.
//!
//! Functional scope (exercised by the gate-level tests and the MiBench-like
//! Thumb kernels): data processing with flags, shifts with carry-out,
//! compares, all 14 branch conditions, B/BX/BLX/BL, loads/stores
//! (imm/reg/byte/half/signed), PUSH/POP/LDM/STM via an iterative state
//! machine, iterative MULS, extends and byte-reverses, hi-register
//! ADD/MOV/CMP, ADR and SP-relative adds. Barriers, hints, and system forms
//! (MRS/MSR/CPS) execute as no-ops; SVC/BKPT/UDF raise the fault output.

use crate::harness::{CorePorts, GateCore, PortNames};
use pdat_isa::armv6m::ThumbInstr;
use pdat_netlist::{NetId, Netlist};
use pdat_rtl::{RtlBuilder, Word};

/// Handles to the generated Cortex-M0-class core.
///
/// The core retires the two halfwords of a `BL` separately, so a program
/// strobes `retire_o` once more per executed `BL` than the instruction-set
/// simulator counts retired instructions.
#[derive(Debug, Clone)]
pub struct CortexM0Core {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Instruction fetch halfword inputs (16 bits); the same nets as
    /// `ports.fetch`.
    pub instr_in: Vec<NetId>,
    /// The fetch→decode register input nets (cutpoint location).
    pub cut_fetch: Vec<NetId>,
    /// The memory, retire and register ports the harness drives. The core
    /// has no retire-pc port, and its registers are r0..r14: the EX-stage
    /// pc view (r15) has no port.
    pub ports: CorePorts,
    /// Fault strobe (SVC/BKPT/UDF or unknown encoding executed).
    pub fault_out: NetId,
}

impl GateCore for CortexM0Core {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn ports(&self) -> &CorePorts {
        &self.ports
    }
}

/// Generate the core.
pub fn build_cortexm0() -> CortexM0Core {
    let mut b = RtlBuilder::new("cortexm0_like");

    let instr_i = b.input_word("instr_i", 16);
    let data_rdata = b.input_word("data_rdata_i", 32);
    let zero = b.zero();
    let one = b.one();

    let fwd = |b: &mut RtlBuilder, name: &str| -> NetId { b.raw_net(name) };
    let fwd_w = |b: &mut RtlBuilder, name: &str, w: usize| -> Word {
        (0..w).map(|i| b.raw_net(&format!("{name}{i}"))).collect()
    };

    let stall_w = fwd(&mut b, "stall_w");
    let redirect_w = fwd(&mut b, "redirect_w");
    let target_w = fwd_w(&mut b, "target_w", 32);

    // ---- fetch ----
    let pc_f_fb = fwd_w(&mut b, "pc_f_fb", 32);
    let two = b.constant(2, 32);
    let pc_plus = b.add(&pc_f_fb, &two);
    let held = b.mux_word(stall_w, &pc_f_fb, &pc_plus);
    let next_pc_f = b.mux_word(redirect_w, &target_w, &held);
    let pc_f = b.reg(&next_pc_f, 0, "pc_f");
    b.bind(&pc_f_fb, &pc_f);

    // ---- IF/DE register (cutpoint location) ----
    let fd_d: Word = instr_i
        .bits()
        .iter()
        .enumerate()
        .map(|(i, &bit)| b.named_buf(bit, &format!("fd_instr_d[{i}]")))
        .collect();
    let not_stall = b.not(stall_w);
    let de_hw = b.reg_en(&fd_d, not_stall, 0, "de_hw");
    let de_pc = b.reg_en(&pc_f, not_stall, 0, "de_pc");
    let not_redirect = b.not(redirect_w);
    let de_valid_fb = fwd(&mut b, "de_valid_fb");
    let de_valid_d = b.mux(stall_w, de_valid_fb, not_redirect);
    let de_valid = b.dff(de_valid_d, false, "de_valid");
    b.bind_bit(de_valid_fb, de_valid);

    // ---- DE: decode all 83 forms, register the selects into EX ----
    let mut de_sel = std::collections::HashMap::new();
    for f in ThumbInstr::ALL {
        if f.is_32bit() {
            continue; // 32-bit forms identified by prefix below
        }
        let p = f.pattern();
        let mut hit = b.match_pattern(&de_hw, p.mask as u64, p.value as u64);
        // Priority: clear the hit if an earlier overlapping form matches.
        for g in ThumbInstr::ALL {
            if g == f {
                break;
            }
            if g.is_32bit() {
                continue;
            }
            if g.pattern().overlaps(&p) {
                let gp = g.pattern();
                let ghit = b.match_pattern(&de_hw, gp.mask as u64, gp.value as u64);
                let ng = b.not(ghit);
                hit = b.and2(hit, ng);
            }
        }
        de_sel.insert(f, hit);
    }
    // BCond excludes cond = 111x (UDF/SVC space).
    {
        let c3 = de_hw.bit(11);
        let c2 = de_hw.bit(10);
        let c1 = de_hw.bit(9);
        let hi = b.and_many(&[c3, c2, c1]);
        let nhi = b.not(hi);
        let old = de_sel[&ThumbInstr::BCond];
        let fixed = b.and2(old, nhi);
        de_sel.insert(ThumbInstr::BCond, fixed);
    }
    // 32-bit prefix detector: hw[15:11] in {11101, 11110, 11111}.
    let is32_prefix = {
        let p1 = b.match_pattern(&de_hw, 0xF800, 0xE800);
        let p2 = b.match_pattern(&de_hw, 0xF000, 0xF000);
        b.or2(p1, p2)
    };

    // Register the decode outputs into EX.
    let mut ex_sel = std::collections::HashMap::new();
    for f in ThumbInstr::ALL {
        if f.is_32bit() {
            continue;
        }
        let gated = b.and2(de_sel[&f], de_valid);
        let q = b.reg_en(
            &Word::from_bits(vec![gated]),
            not_stall,
            0,
            &format!(
                "ex_sel_{}",
                f.mnemonic().replace(['(', ')', ',', '<', '>'], "_")
            ),
        );
        ex_sel.insert(f, q.bit(0));
    }
    let de_is32 = b.and2(is32_prefix, de_valid);
    let ex_is32 = b
        .reg_en(&Word::from_bits(vec![de_is32]), not_stall, 0, "ex_is32")
        .bit(0);
    let ex_hw = b.reg_en(&de_hw, not_stall, 0, "ex_hw");
    let ex_pc = b.reg_en(&de_pc, not_stall, 0, "ex_pc");
    let ex_valid_fb = fwd(&mut b, "ex_valid_fb");
    let de_pass = b.and2(de_valid, not_redirect);
    let ex_valid_d = b.mux(stall_w, ex_valid_fb, de_pass);
    let ex_valid = b.dff(ex_valid_d, false, "ex_valid");
    b.bind_bit(ex_valid_fb, ex_valid);

    let m = |f: ThumbInstr| -> NetId { ex_sel[&f] };
    use ThumbInstr::*;

    // ---- BL pairing state ----
    let bl_pending_fb = fwd(&mut b, "bl_pending_fb");
    let bl_hw1_fb = fwd_w(&mut b, "bl_hw1_fb", 16);

    // ---- register file (r0..r14 real, r15 = pc view) ----
    let rf_wen = fwd(&mut b, "rf_wen_w");
    let rf_waddr = fwd_w(&mut b, "rf_waddr_w", 4);
    let rf_wdata = fwd_w(&mut b, "rf_wdata_w", 32);
    let mut regs: Vec<Word> = Vec::with_capacity(16);
    for r in 0..15 {
        let hit = b.decode_index(&rf_waddr, r);
        let we = b.and2(hit, rf_wen);
        regs.push(b.reg_en(&rf_wdata, we, 0, &format!("r{r}")));
    }
    // r15 reads as pc + 4 (Thumb PC offset).
    let four = b.constant(4, 32);
    let pc_read = b.add(&ex_pc, &four);
    regs.push(pc_read.clone());

    // Field extraction.
    let rd3 = ex_hw.slice(0, 3);
    let rn3 = ex_hw.slice(3, 6);
    let rm3 = ex_hw.slice(6, 9);
    let rdn8 = ex_hw.slice(8, 11);
    let imm8: Word = ex_hw.slice(0, 8);
    let imm5 = ex_hw.slice(6, 11);
    let imm3 = ex_hw.slice(6, 9);
    // Hi-register fields: Rd = {hw[7], hw[2:0]}, Rm = hw[6:3].
    let rd_hi: Word = [ex_hw.bit(0), ex_hw.bit(1), ex_hw.bit(2), ex_hw.bit(7)]
        .into_iter()
        .collect();
    let rm_hi = ex_hw.slice(3, 7);

    let rd3w = b.extend(&rd3, 4, false);
    let rn3w = b.extend(&rn3, 4, false);
    let rm3w = b.extend(&rm3, 4, false);
    let rdn8w = b.extend(&rdn8, 4, false);

    // Operand source selection.
    let use_rdn8 = {
        let a = m(MovImm);
        let a = b.or2(a, m(CmpImm));
        let a = b.or2(a, m(AddsImm8));
        let a = b.or2(a, m(SubsImm8));
        let a = b.or2(a, m(LdrLit));
        let a = b.or2(a, m(LdrSp));
        let a = b.or2(a, m(StrSp));
        let a = b.or2(a, m(Adr));
        let a = b.or2(a, m(AddSpImmT1));
        let a = b.or2(a, m(Ldm));
        b.or2(a, m(Stm))
    };
    let use_hi = {
        let a = m(AddRegHigh);
        let a = b.or2(a, m(AddSpReg));
        let a = b.or2(a, m(CmpRegHigh));
        let a = b.or2(a, m(MovRegHigh));
        let a = b.or2(a, m(Bx));
        b.or2(a, m(BlxReg))
    };

    // Read addresses.
    let raddr_a = {
        // First operand register: Rn (3-bit), or Rd for 2-operand DP forms,
        // or Rd(hi) for hi-reg ops, or Rdn8 for imm8 ops, or SP for
        // SP-relative.
        let dp2 = {
            // forms where Rd is also a source (Rdn)
            let x = m(Ands);
            let x = b.or2(x, m(Eors));
            let x = b.or2(x, m(LslsReg));
            let x = b.or2(x, m(LsrsReg));
            let x = b.or2(x, m(AsrsReg));
            let x = b.or2(x, m(Adcs));
            let x = b.or2(x, m(Sbcs));
            let x = b.or2(x, m(Rors));
            let x = b.or2(x, m(Orrs));
            let x = b.or2(x, m(Bics));
            let x = b.or2(x, m(AddsImm8));
            let x = b.or2(x, m(SubsImm8));
            let x = b.or2(x, m(CmpImm));
            let x = b.or2(x, m(CmpReg));
            let x = b.or2(x, m(Tst));
            let x = b.or2(x, m(Cmn));
            b.or2(x, m(Muls))
        };
        let base = b.mux_word(dp2, &rd3w, &rn3w);
        let base = b.mux_word(use_rdn8, &rdn8w, &base);
        let sp = b.constant(13, 4);
        let use_sp = {
            let x = m(LdrSp);
            let x = b.or2(x, m(StrSp));
            let x = b.or2(x, m(AddSpImmT1));
            let x = b.or2(x, m(AddSpImmT2));
            let x = b.or2(x, m(SubSpImm));
            let x = b.or2(x, m(Push));
            b.or2(x, m(Pop))
        };
        let base = b.mux_word(use_sp, &sp, &base);
        b.mux_word(use_hi, &rd_hi, &base)
    };
    let raddr_b = {
        // Second operand register: Rm (3-bit), or Rm(hi), or Rn for
        // Rdn-style DP (the register operand sits in bits 5:3), or Rd for
        // stores (store data).
        let store_rt = {
            let x = m(StrImm);
            let x = b.or2(x, m(StrReg));
            let x = b.or2(x, m(StrbImm));
            let x = b.or2(x, m(StrbReg));
            let x = b.or2(x, m(StrhImm));
            b.or2(x, m(StrhReg))
        };
        let base = b.mux_word(store_rt, &rd3w, &rn3w);
        let strsp = b.mux_word(m(StrSp), &rdn8w, &base);
        b.mux_word(use_hi, &rm_hi, &strsp)
    };
    let op_a = b.regfile_read(&regs, &raddr_a);
    let op_b_reg = b.regfile_read(&regs, &raddr_b);
    // Third read port: Rm in bits 8:6 (register-offset memory forms and
    // three-register adds/subs).
    let rm3w4 = b.extend(&rm3w, 4, false);
    let op_idx = b.regfile_read(&regs, &rm3w4);

    // Immediate operand.
    let imm8_32 = b.extend(&imm8, 32, false);
    let imm3_32 = b.extend(&imm3, 32, false);
    let use_imm8 = {
        let x = m(MovImm);
        let x = b.or2(x, m(CmpImm));
        let x = b.or2(x, m(AddsImm8));
        b.or2(x, m(SubsImm8))
    };
    let use_imm3 = b.or2(m(AddsImm3), m(SubsImm3));
    let mut op_b = op_b_reg.clone();
    // Three-register adds/subs take Rm from bits 8:6.
    let three_reg = b.or2(m(AddsReg), m(SubsReg));
    op_b = b.mux_word(three_reg, &op_idx, &op_b);
    op_b = b.mux_word(use_imm8, &imm8_32, &op_b);
    op_b = b.mux_word(use_imm3, &imm3_32, &op_b);

    // ---- flags ----
    let flag_n_fb = fwd(&mut b, "flag_n_fb");
    let flag_z_fb = fwd(&mut b, "flag_z_fb");
    let flag_c_fb = fwd(&mut b, "flag_c_fb");
    let flag_v_fb = fwd(&mut b, "flag_v_fb");

    // ---- ALU ----
    let is_sub_like = {
        let x = m(SubsReg);
        let x = b.or2(x, m(SubsImm3));
        let x = b.or2(x, m(SubsImm8));
        let x = b.or2(x, m(CmpImm));
        let x = b.or2(x, m(CmpReg));
        let x = b.or2(x, m(CmpRegHigh));
        let x = b.or2(x, m(Rsbs));
        b.or2(x, m(SubSpImm))
    };
    let is_adc = m(Adcs);
    let is_sbc = m(Sbcs);
    // RSBS computes 0 - Rn: swap operands.
    let zero32 = b.constant(0, 32);
    let alu_a = b.mux_word(m(Rsbs), &zero32, &op_a);
    let alu_b = {
        let rsb_b = b.mux_word(m(Rsbs), &op_a, &op_b);
        // SP-immediate forms use shifted immediates.
        let imm7: Word = ex_hw.slice(0, 7);
        let imm7_sp = {
            let w = b.extend(&imm7, 30, false);
            let lo = b.constant(0, 2);
            lo.concat(&w)
        };
        let sp_imm = b.or2(m(AddSpImmT2), m(SubSpImm));
        let x = b.mux_word(sp_imm, &imm7_sp, &rsb_b);
        let imm8_w = {
            let w = b.extend(&imm8, 30, false);
            let lo = b.constant(0, 2);
            lo.concat(&w)
        };
        let imm8_words = b.or2(m(AddSpImmT1), m(Adr));
        b.mux_word(imm8_words, &imm8_w, &x)
    };
    // ADR uses aligned PC as operand A.
    let pc_al = {
        let mut bits = pc_read.bits().to_vec();
        bits[0] = zero;
        bits[1] = zero;
        Word::from_bits(bits)
    };
    let alu_a = b.mux_word(m(Adr), &pc_al, &alu_a);

    let sub_sel = b.or2(is_sub_like, is_sbc);
    let bnot = b.not_word(&alu_b);
    let addend = b.mux_word(sub_sel, &bnot, &alu_b);
    let cin = {
        // add: 0; sub: 1; adc: C; sbc: C.
        let carryish = b.or2(is_adc, is_sbc);
        let base = b.mux(carryish, flag_c_fb, zero);
        let nc = b.not(carryish);
        let plain_sub = b.and2(is_sub_like, nc);
        b.or2(base, plain_sub)
    };
    let (sum, cout) = b.add_with_carry(&alu_a, &addend, Some(cin));
    let v_add = {
        // overflow: same sign operands, different sign result.
        let sa = alu_a.msb();
        let sb_ = addend.msb();
        let sr = sum.msb();
        let same = b.xor2(sa, sb_);
        let nsame = b.not(same);
        let diff_r = b.xor2(sa, sr);
        b.and2(nsame, diff_r)
    };

    // Logic ops.
    let and_r = b.and_word(&op_a, &op_b);
    let bic_r = {
        let nb = b.not_word(&op_b);
        b.and_word(&op_a, &nb)
    };
    let or_r = b.or_word(&op_a, &op_b);
    let xor_r = b.xor_word(&op_a, &op_b);
    let mvn_r = b.not_word(&op_b);

    // Shifter (33-bit for carry-out).
    let shift_amt_imm = b.extend(&imm5, 8, false);
    let shift_amt_reg = op_b_reg.slice(0, 8);
    let use_reg_shift = {
        let x = m(LslsReg);
        let x = b.or2(x, m(LsrsReg));
        let x = b.or2(x, m(AsrsReg));
        b.or2(x, m(Rors))
    };
    let shift_amt = b.mux_word(use_reg_shift, &shift_amt_reg, &shift_amt_imm);
    let samt5 = shift_amt.slice(0, 5);
    // Shift source: Rm (bits 5:3) for imm forms, Rdn for reg forms.
    let shift_src = {
        let rm_val = b.regfile_read(&regs, &rn3w);
        b.mux_word(use_reg_shift, &op_a, &rm_val)
    };
    // LSL with carry: 33-bit left shift.
    let src33 = b.extend(&shift_src, 33, false);
    let lsl33 = b.shl(&src33, &samt5);
    let lsl_r = lsl33.slice(0, 32);
    let lsl_c = lsl33.bit(32);
    // LSR with carry: {src,0} >> s, carry at bit 0.
    let srcr33: Word = {
        let mut bits = vec![zero];
        bits.extend_from_slice(shift_src.bits());
        Word::from_bits(bits)
    };
    let lsr33 = b.shr(&srcr33, &samt5);
    let lsr_r = lsr33.slice(1, 33);
    let lsr_c = lsr33.bit(0);
    let asr33 = b.sar(&srcr33, &samt5);
    let asr_r = asr33.slice(1, 33);
    let asr_c = asr33.bit(0);
    // ROR: r = (src >> s) | (src << (32-s)).
    let ror_r = {
        let right = b.shr(&shift_src, &samt5);
        let thirty_two = b.constant(32, 6);
        let samt6 = b.extend(&samt5, 6, false);
        let inv = b.sub(&thirty_two, &samt6);
        let inv5 = inv.slice(0, 5);
        let left = b.shl(&shift_src, &inv5);
        b.or_word(&right, &left)
    };
    let ror_c = ror_r.msb();
    let shift_zero = b.is_zero(&samt5);

    // Extends / reverses.
    let sxtb_r = {
        let lo = op_b_reg.slice(0, 8);
        b.extend(&lo, 32, true)
    };
    let uxtb_r = {
        let lo = op_b_reg.slice(0, 8);
        b.extend(&lo, 32, false)
    };
    let sxth_r = {
        let lo = op_b_reg.slice(0, 16);
        b.extend(&lo, 32, true)
    };
    let uxth_r = {
        let lo = op_b_reg.slice(0, 16);
        b.extend(&lo, 32, false)
    };
    let byte = |w: &Word, i: usize| w.slice(8 * i, 8 * i + 8);
    let rev_r = byte(&op_b_reg, 3)
        .concat(&byte(&op_b_reg, 2))
        .concat(&byte(&op_b_reg, 1))
        .concat(&byte(&op_b_reg, 0));
    let rev16_r = byte(&op_b_reg, 1)
        .concat(&byte(&op_b_reg, 0))
        .concat(&byte(&op_b_reg, 3))
        .concat(&byte(&op_b_reg, 2));
    let revsh_r = {
        let lo = byte(&op_b_reg, 1).concat(&byte(&op_b_reg, 0));
        b.extend(&lo, 32, true)
    };

    // The shift source register for extend/rev forms is Rm = bits 5:3
    // (op_b_reg reads rn3 for non-store forms — same field). Good.

    // ---- iterative MULS ----
    let md_busy_fb = fwd(&mut b, "md_busy_fb");
    let md_cnt_fb = fwd_w(&mut b, "md_cnt_fb", 6);
    let md_lo_fb = fwd_w(&mut b, "md_lo_fb", 32);
    let md_hi_fb = fwd_w(&mut b, "md_hi_fb", 32);
    let is_mul = m(Muls);
    let mul_req = b.and2(is_mul, ex_valid);
    let nb_busy = b.not(md_busy_fb);
    let mul_start = b.and2(mul_req, nb_busy);
    let addend_m: Word = {
        let lo0 = md_lo_fb.bit(0);
        op_a.bits().iter().map(|&x| b.and2(x, lo0)).collect()
    };
    let (msum, mc) = b.add_with_carry(&md_hi_fb, &addend_m, None);
    let m_next_hi: Word = {
        let mut bits: Vec<NetId> = msum.bits()[1..].to_vec();
        bits.push(mc);
        Word::from_bits(bits)
    };
    let m_next_lo: Word = {
        let mut bits: Vec<NetId> = md_lo_fb.bits()[1..].to_vec();
        bits.push(msum.bit(0));
        Word::from_bits(bits)
    };
    let cnt31 = b.match_pattern(&md_cnt_fb, 0x3F, 31);
    let mul_done = b.and2(md_busy_fb, cnt31);
    let md_busy_next = {
        let nd = b.not(mul_done);
        let keep = b.and2(md_busy_fb, nd);
        b.or2(mul_start, keep)
    };
    let md_busy = b.dff(md_busy_next, false, "md_busy");
    b.bind_bit(md_busy_fb, md_busy);
    let one6 = b.constant(1, 6);
    let cnt_plus = b.add(&md_cnt_fb, &one6);
    let zero6 = b.constant(0, 6);
    let cnt_next = {
        let stepped = b.mux_word(md_busy_fb, &cnt_plus, &md_cnt_fb);
        b.mux_word(mul_start, &zero6, &stepped)
    };
    let md_cnt = b.reg(&cnt_next, 0, "md_cnt");
    b.bind(&md_cnt_fb, &md_cnt);
    let lo_next = {
        let stepped = b.mux_word(md_busy_fb, &m_next_lo, &md_lo_fb);
        b.mux_word(mul_start, &op_b_reg, &stepped)
    };
    let hi_next = {
        let stepped = b.mux_word(md_busy_fb, &m_next_hi, &md_hi_fb);
        b.mux_word(mul_start, &zero32, &stepped)
    };
    let md_lo = b.reg(&lo_next, 0, "md_lo");
    let md_hi = b.reg(&hi_next, 0, "md_hi");
    b.bind(&md_lo_fb, &md_lo);
    b.bind(&md_hi_fb, &md_hi);
    let mul_result = m_next_lo.clone();

    // ---- LDM/STM/PUSH/POP iterative unit ----
    // State: remaining register list (9 bits: r0..r7 + LR/PC), current
    // address, busy flag, and whether this is a load.
    let ls_busy_fb = fwd(&mut b, "ls_busy_fb");
    let ls_list_fb = fwd_w(&mut b, "ls_list_fb", 9);
    let ls_addr_fb = fwd_w(&mut b, "ls_addr_fb", 32);
    let is_push = m(Push);
    let is_pop = m(Pop);
    let is_ldm = m(Ldm);
    let is_stm = m(Stm);
    let is_multi = {
        let x = b.or2(is_push, is_pop);
        let y = b.or2(is_ldm, is_stm);
        b.or2(x, y)
    };
    let multi_req = b.and2(is_multi, ex_valid);
    let nls_busy = b.not(ls_busy_fb);
    let list9: Word = ex_hw.slice(0, 9);
    let list_empty_init = b.is_zero(&list9);
    let nle = b.not(list_empty_init);
    let multi_start = {
        let x = b.and2(multi_req, nls_busy);
        b.and2(x, nle)
    };
    // The start cycle only latches the list/address and performs the
    // base-register update; memory beats run on the following ls_busy
    // cycles (single write port).
    // PUSH pre-decrements: start address = SP - 4*popcount(list).
    let popcount = {
        // adder tree over the 9 list bits.
        let mut acc = b.constant(0, 4);
        for &bit in list9.bits() {
            let bw = {
                let mut bits = vec![bit];
                bits.resize(4, zero);
                Word::from_bits(bits)
            };
            acc = b.add(&acc, &bw);
        }
        acc
    };
    let bytes_total: Word = {
        let ext = b.extend(&popcount, 30, false);
        let lo = b.constant(0, 2);
        lo.concat(&ext)
    };
    let sp_val = {
        let sp_a = b.constant(13, 4);
        b.regfile_read(&regs, &sp_a)
    };
    let push_base = b.sub(&sp_val, &bytes_total);
    let start_addr = b.mux_word(is_push, &push_base, &op_a);
    // Lowest set bit of the remaining list (beat cycles only).
    let cur_list = ls_list_fb.clone();
    let mut lowest_idx = b.constant(0, 4);
    let mut found = zero;
    for i in (0..9).rev() {
        // iterate high→low so the final mux chain prefers the lowest index
        let bit = cur_list.bit(i);
        let iw = b.constant(i as u64, 4);
        lowest_idx = b.mux_word(bit, &iw, &lowest_idx);
        found = b.or2(found, bit);
    }
    // Clear the lowest bit.
    let next_list: Word = {
        let mut bits = Vec::with_capacity(9);
        for i in 0..9 {
            let here = b.decode_index(&lowest_idx, i);
            let nh = b.not(here);
            bits.push(b.and2(cur_list.bit(i), nh));
        }
        Word::from_bits(bits)
    };
    let ls_active = ls_busy_fb;
    let cur_addr = ls_addr_fb.clone();
    let four32 = b.constant(4, 32);
    let next_addr = b.add(&cur_addr, &four32);
    let next_list_empty = b.is_zero(&next_list);
    let multi_done = b.and2(ls_active, next_list_empty);
    let ls_busy_next = {
        let nd = b.not(multi_done);
        let keep = b.and2(ls_active, nd);
        b.or2(multi_start, keep)
    };
    let ls_busy = b.dff(ls_busy_next, false, "ls_busy");
    b.bind_bit(ls_busy_fb, ls_busy);
    let ls_list_next = {
        let stepped = b.mux_word(ls_active, &next_list, &ls_list_fb);
        b.mux_word(multi_start, &list9, &stepped)
    };
    let ls_list = b.reg(&ls_list_next, 0, "ls_list");
    b.bind(&ls_list_fb, &ls_list);
    let ls_addr_next = {
        let stepped = b.mux_word(ls_active, &next_addr, &ls_addr_fb);
        b.mux_word(multi_start, &start_addr, &stepped)
    };
    let ls_addr = b.reg(&ls_addr_next, 0, "ls_addr");
    b.bind(&ls_addr_fb, &ls_addr);
    // The register being transferred this beat: index 8 means LR for PUSH,
    // PC for POP.
    let multi_reg: Word = {
        let idx8 = b.decode_index(&lowest_idx, 8);
        let lr = b.constant(14, 4);
        let pc = b.constant(15, 4);
        let hi_reg = b.mux_word(is_push, &lr, &pc);
        let low = b.extend(&lowest_idx, 4, false);
        b.mux_word(idx8, &hi_reg, &low)
    };
    let multi_reg_val = b.regfile_read(&regs, &multi_reg);
    let multi_is_store = b.or2(is_push, is_stm);
    let pop_to_pc = {
        let idx8 = b.decode_index(&lowest_idx, 8);
        let x = b.and2(is_pop, idx8);
        b.and2(x, ls_active)
    };
    // Final SP update value.
    let sp_after = {
        // PUSH: SP - total ; POP: SP + total ; LDM/STM: Rn + total.
        let sp_minus = push_base.clone();
        let base_plus = b.add(&op_a, &bytes_total);
        b.mux_word(is_push, &sp_minus, &base_plus)
    };

    // ---- loads/stores (single) ----
    let is_ldr_w = {
        let x = m(LdrImm);
        let x = b.or2(x, m(LdrReg));
        let x = b.or2(x, m(LdrSp));
        b.or2(x, m(LdrLit))
    };
    let is_ldr_b = b.or2(m(LdrbImm), m(LdrbReg));
    let is_ldr_h = b.or2(m(LdrhImm), m(LdrhReg));
    let is_ldr_sb = m(LdrsbReg);
    let is_ldr_sh = m(LdrshReg);
    let is_load_any = {
        let x = b.or2(is_ldr_w, is_ldr_b);
        let x = b.or2(x, is_ldr_h);
        let x = b.or2(x, is_ldr_sb);
        b.or2(x, is_ldr_sh)
    };
    let is_str_w = {
        let x = b.or2(m(StrImm), m(StrReg));
        b.or2(x, m(StrSp))
    };
    let is_str_b = b.or2(m(StrbImm), m(StrbReg));
    let is_str_h = b.or2(m(StrhImm), m(StrhReg));
    let is_store_any = {
        let x = b.or2(is_str_w, is_str_b);
        b.or2(x, is_str_h)
    };
    // Offset: imm5 scaled by access size, or register.
    let off_w: Word = {
        let ext = b.extend(&imm5, 30, false);
        let lo = b.constant(0, 2);
        lo.concat(&ext)
    };
    let off_h: Word = {
        let ext = b.extend(&imm5, 31, false);
        let lo = b.constant(0, 1);
        lo.concat(&ext)
    };
    let off_b = b.extend(&imm5, 32, false);
    let off_imm8w: Word = {
        let ext = b.extend(&imm8, 30, false);
        let lo = b.constant(0, 2);
        lo.concat(&ext)
    };
    let use_reg_off = {
        let x = b.or2(m(LdrReg), m(StrReg));
        let x = b.or2(x, m(LdrbReg));
        let x = b.or2(x, m(StrbReg));
        let x = b.or2(x, m(LdrhReg));
        let x = b.or2(x, m(StrhReg));
        let x = b.or2(x, m(LdrsbReg));
        b.or2(x, m(LdrshReg))
    };
    let size_h_any = {
        let x = b.or2(is_ldr_h, is_ldr_sh);
        b.or2(x, is_str_h)
    };
    let size_b_any = {
        let x = b.or2(is_ldr_b, is_ldr_sb);
        b.or2(x, is_str_b)
    };
    let mut offset = off_w.clone();
    offset = b.mux_word(size_h_any, &off_h, &offset);
    offset = b.mux_word(size_b_any, &off_b, &offset);
    let sp_rel = {
        let x = b.or2(m(LdrSp), m(StrSp));
        b.or2(x, m(LdrLit))
    };
    offset = b.mux_word(sp_rel, &off_imm8w, &offset);
    offset = b.mux_word(use_reg_off, &op_idx, &offset);
    // Base: op_a (Rn / SP / Rdn8 paths resolved above); LDR literal uses
    // aligned PC.
    let base = b.mux_word(m(LdrLit), &pc_al, &op_a);
    let mem_addr_s = b.add(&base, &offset);
    // Multi-transfer overrides.
    let mem_addr = b.mux_word(ls_active, &cur_addr, &mem_addr_s);
    let a0 = mem_addr.bit(0);
    let a1 = mem_addr.bit(1);
    let word_addr: Word = {
        let mut bits = mem_addr.bits().to_vec();
        bits[0] = zero;
        bits[1] = zero;
        Word::from_bits(bits)
    };
    let sh_amt: Word = [zero, zero, zero, a0, a1].into_iter().collect();
    let aligned_load = b.shr(&data_rdata, &sh_amt);
    let ld_b = {
        let by = aligned_load.slice(0, 8);
        b.extend(&by, 32, false)
    };
    let ld_sb = {
        let by = aligned_load.slice(0, 8);
        b.extend(&by, 32, true)
    };
    let ld_h = {
        let hf = aligned_load.slice(0, 16);
        b.extend(&hf, 32, false)
    };
    let ld_sh = {
        let hf = aligned_load.slice(0, 16);
        b.extend(&hf, 32, true)
    };
    let mut load_val = aligned_load.clone();
    load_val = b.mux_word(is_ldr_b, &ld_b, &load_val);
    load_val = b.mux_word(is_ldr_sb, &ld_sb, &load_val);
    load_val = b.mux_word(is_ldr_h, &ld_h, &load_val);
    load_val = b.mux_word(is_ldr_sh, &ld_sh, &load_val);
    // Store path.
    let store_src = b.mux_word(ls_active, &multi_reg_val, &op_b_reg);
    let store_data = b.shl(&store_src, &sh_amt);
    let be = {
        let b0 = one;
        let b1 = b.not(size_b_any);
        let b23 = {
            let x = b.or2(size_b_any, size_h_any);
            b.not(x)
        };
        let base_w: Word = [b0, b1, b23, b23].into_iter().collect();
        let ones4 = b.constant(0xF, 4);
        let w = b.mux_word(ls_active, &ones4, &base_w);
        let sh2: Word = [a0, a1].into_iter().collect();
        b.shl(&w, &sh2)
    };

    // ---- branches ----
    let flag_n = flag_n_fb;
    let flag_z = flag_z_fb;
    let flag_c = flag_c_fb;
    let flag_v = flag_v_fb;
    let cond = ex_hw.slice(8, 12);
    let cond_pass = {
        // Standard ARM condition table.
        let nn = b.not(flag_n);
        let nz = b.not(flag_z);
        let nc = b.not(flag_c);
        let nv = b.not(flag_v);
        let ge = {
            let x = b.xor2(flag_n, flag_v);
            b.not(x)
        };
        let lt = b.xor2(flag_n, flag_v);
        let gt = b.and2(nz, ge);
        let le = b.or2(flag_z, lt);
        let hi = b.and2(flag_c, nz);
        let ls = b.or2(nc, flag_z);
        let c0 = b.decode_index(&cond, 0); // EQ
        let c1 = b.decode_index(&cond, 1); // NE
        let c2 = b.decode_index(&cond, 2); // CS
        let c3 = b.decode_index(&cond, 3); // CC
        let c4 = b.decode_index(&cond, 4); // MI
        let c5 = b.decode_index(&cond, 5); // PL
        let c6 = b.decode_index(&cond, 6); // VS
        let c7 = b.decode_index(&cond, 7); // VC
        let c8 = b.decode_index(&cond, 8); // HI
        let c9 = b.decode_index(&cond, 9); // LS
        let c10 = b.decode_index(&cond, 10); // GE
        let c11 = b.decode_index(&cond, 11); // LT
        let c12 = b.decode_index(&cond, 12); // GT
        let c13 = b.decode_index(&cond, 13); // LE
        let mut p = zero;
        for (sel_c, val) in [
            (c0, flag_z),
            (c1, nz),
            (c2, flag_c),
            (c3, nc),
            (c4, flag_n),
            (c5, nn),
            (c6, flag_v),
            (c7, nv),
            (c8, hi),
            (c9, ls),
            (c10, ge),
            (c11, lt),
            (c12, gt),
            (c13, le),
        ] {
            let t = b.and2(sel_c, val);
            p = b.or2(p, t);
        }
        p
    };
    // Branch offsets (relative to pc + 4).
    let bcond_off = {
        let w: Word = {
            let mut bits = vec![zero];
            bits.extend_from_slice(imm8.bits());
            Word::from_bits(bits)
        };
        b.extend(&w, 32, true)
    };
    let b_off = {
        let imm11 = ex_hw.slice(0, 11);
        let w: Word = {
            let mut bits = vec![zero];
            bits.extend_from_slice(imm11.bits());
            Word::from_bits(bits)
        };
        b.extend(&w, 32, true)
    };
    let bcond_tgt = b.add(&pc_read, &bcond_off);
    let b_tgt = b.add(&pc_read, &b_off);
    let bx_tgt = {
        let mut bits = op_b_reg.bits().to_vec();
        bits[0] = zero;
        Word::from_bits(bits)
    };
    // BL: second half (ex_is32 registered says *this* halfword was hw1).
    let bl_exec = b.and2(bl_pending_fb, ex_valid);
    let bl_off = {
        // offset = S:I1:I2:imm10:imm11:0 where I = !(J ^ S).
        let s = bl_hw1_fb.bit(10);
        let j1 = ex_hw.bit(13);
        let j2 = ex_hw.bit(11);
        let i1 = {
            let x = b.xor2(j1, s);
            b.not(x)
        };
        let i2 = {
            let x = b.xor2(j2, s);
            b.not(x)
        };
        let imm10 = bl_hw1_fb.slice(0, 10);
        let imm11 = ex_hw.slice(0, 11);
        let mut bits = vec![zero];
        bits.extend_from_slice(imm11.bits());
        bits.extend_from_slice(imm10.bits());
        bits.push(i2);
        bits.push(i1);
        bits.push(s);
        let w = Word::from_bits(bits);
        b.extend(&w, 32, true)
    };
    // BL target relative to hw1's pc + 4 = ex_pc - 2 + 4 = ex_pc + 2.
    let two32 = b.constant(2, 32);
    let bl_base = b.add(&ex_pc, &two32);
    let bl_tgt = b.add(&bl_base, &bl_off);
    let bl_lr = {
        // return address = address after hw2, with thumb bit set.
        let ret = b.add(&ex_pc, &two32);
        let mut bits = ret.bits().to_vec();
        bits[0] = one;
        Word::from_bits(bits)
    };

    // ---- result mux & writeback ----
    let exec = fwd(&mut b, "exec_w");
    let _ = &two32;
    let mut result = sum.clone();
    let sel_and = m(Ands);
    result = b.mux_word(sel_and, &and_r, &result);
    result = b.mux_word(m(Tst), &and_r, &result);
    result = b.mux_word(m(Bics), &bic_r, &result);
    result = b.mux_word(m(Orrs), &or_r, &result);
    result = b.mux_word(m(Eors), &xor_r, &result);
    result = b.mux_word(m(Mvns), &mvn_r, &result);
    let sel_lsl = b.or2(m(LslsImm), m(LslsReg));
    result = b.mux_word(sel_lsl, &lsl_r, &result);
    let sel_lsr = b.or2(m(LsrsImm), m(LsrsReg));
    result = b.mux_word(sel_lsr, &lsr_r, &result);
    let sel_asr = b.or2(m(AsrsImm), m(AsrsReg));
    result = b.mux_word(sel_asr, &asr_r, &result);
    result = b.mux_word(m(Rors), &ror_r, &result);
    let sel_mov = b.or2(m(MovImm), m(MovsReg));
    let mov_val = b.mux_word(m(MovImm), &imm8_32, &op_b_reg);
    // MOVS reg moves Rm (bits 5:3) — op_b_reg reads rn3 for that form.
    result = b.mux_word(sel_mov, &mov_val, &result);
    result = b.mux_word(m(MovRegHigh), &op_b_reg, &result);
    result = b.mux_word(m(Sxtb), &sxtb_r, &result);
    result = b.mux_word(m(Sxth), &sxth_r, &result);
    result = b.mux_word(m(Uxtb), &uxtb_r, &result);
    result = b.mux_word(m(Uxth), &uxth_r, &result);
    result = b.mux_word(m(Rev), &rev_r, &result);
    result = b.mux_word(m(Rev16), &rev16_r, &result);
    result = b.mux_word(m(Revsh), &revsh_r, &result);
    result = b.mux_word(is_load_any, &load_val, &result);
    result = b.mux_word(is_mul, &mul_result, &result);
    let multi_load_active = {
        let ld = b.or2(is_pop, is_ldm);
        b.and2(ld, ls_active)
    };
    result = b.mux_word(multi_load_active, &load_val, &result);

    // Destination register.
    let blx_lr: Word = {
        let ret = b.add(&ex_pc, &two32);
        let mut bits = ret.bits().to_vec();
        bits[0] = one;
        Word::from_bits(bits)
    };
    let wdest = {
        let d = b.mux_word(use_rdn8, &rdn8w, &rd3w);
        let d = b.mux_word(use_hi, &rd_hi, &d);
        let sp = b.constant(13, 4);
        let sp_write = b.or2(m(AddSpImmT2), m(SubSpImm));
        let d = b.mux_word(sp_write, &sp, &d);
        let lr = b.constant(14, 4);
        let link = b.or2(bl_exec, m(BlxReg));
        let d = b.mux_word(link, &lr, &d);
        // Multi-transfer loads write the per-beat register.
        b.mux_word(ls_active, &multi_reg, &d)
    };

    let writes_rd = {
        let x = m(MovImm);
        let x = b.or2(x, m(MovsReg));
        let x = b.or2(x, m(MovRegHigh));
        let x = b.or2(x, m(AddsReg));
        let x = b.or2(x, m(SubsReg));
        let x = b.or2(x, m(AddsImm3));
        let x = b.or2(x, m(SubsImm3));
        let x = b.or2(x, m(AddsImm8));
        let x = b.or2(x, m(SubsImm8));
        let x = b.or2(x, m(AddRegHigh));
        let x = b.or2(x, m(AddSpImmT1));
        let x = b.or2(x, m(AddSpImmT2));
        let x = b.or2(x, m(SubSpImm));
        let x = b.or2(x, m(AddSpReg));
        let x = b.or2(x, m(Adr));
        let x = b.or2(x, m(Ands));
        let x = b.or2(x, m(Eors));
        let x = b.or2(x, m(Orrs));
        let x = b.or2(x, m(Bics));
        let x = b.or2(x, m(Mvns));
        let x = b.or2(x, m(Adcs));
        let x = b.or2(x, m(Sbcs));
        let x = b.or2(x, m(Rsbs));
        let x = b.or2(x, sel_lsl);
        let x = b.or2(x, sel_lsr);
        let x = b.or2(x, sel_asr);
        let x = b.or2(x, m(Rors));
        let x = b.or2(x, m(Sxtb));
        let x = b.or2(x, m(Sxth));
        let x = b.or2(x, m(Uxtb));
        let x = b.or2(x, m(Uxth));
        let x = b.or2(x, m(Rev));
        let x = b.or2(x, m(Rev16));
        let x = b.or2(x, m(Revsh));
        let x = b.or2(x, is_mul);
        b.or2(x, is_load_any)
    };

    // ---- pipeline control ----
    // Stalls: MULS until done; multi-transfer until done.
    let stall_v = {
        let mul_stall = {
            let nd = b.not(mul_done);
            b.and2(mul_req, nd)
        };
        let multi_stall = {
            let nd = b.not(multi_done);
            let req_nonempty = b.and2(multi_req, nle);
            let active_req = b.or2(req_nonempty, ls_busy_fb);
            b.and2(active_req, nd)
        };
        b.or2(mul_stall, multi_stall)
    };
    b.bind_bit(stall_w, stall_v);
    let exec_v = {
        let ns = b.not(stall_v);
        b.and2(ex_valid, ns)
    };
    b.bind_bit(exec, exec_v);

    // BL pairing registers.
    let bl_pending_next = {
        // Set when a 32-bit prefix executes — but not while already
        // pending: BL's *second* halfword also matches the prefix pattern
        // and must not re-arm the latch. Cleared when the pair retires.
        let np = b.not(bl_pending_fb);
        let first = b.and2(ex_is32, np);
        let set = b.and2(first, exec_v);
        let npend = b.not(exec_v);
        let keep = b.and2(bl_pending_fb, npend);
        b.or2(set, keep)
    };
    let bl_pending = b.dff(bl_pending_next, false, "bl_pending");
    b.bind_bit(bl_pending_fb, bl_pending);
    let hw1_keep = {
        let np = b.not(bl_pending_fb);
        let first = b.and2(ex_is32, np);
        b.and2(first, exec_v)
    };
    let bl_hw1_next = b.mux_word(hw1_keep, &ex_hw, &bl_hw1_fb);
    let bl_hw1 = b.reg(&bl_hw1_next, 0, "bl_hw1");
    b.bind(&bl_hw1_fb, &bl_hw1);

    // Taken control transfers.
    let bcond_taken = b.and2(m(BCond), cond_pass);
    let is_bx = b.or2(m(Bx), m(BlxReg));
    let take = {
        let x = b.or2(bcond_taken, m(B));
        let x = b.or2(x, is_bx);
        let x = b.or2(x, bl_exec);
        b.or2(x, pop_to_pc)
    };
    // Suppress normal side effects while a BL pair is in flight (hw1 and
    // hw2 are not standalone instructions).
    let plain = {
        let n32 = b.not(ex_is32);
        let npend = b.not(bl_pending_fb);
        b.and2(n32, npend)
    };
    let taken = {
        let t = {
            let pt = b.and2(take, plain);
            let blp = b.and2(bl_exec, one);
            b.or2(pt, blp)
        };
        b.and2(t, exec_v)
    };
    let redirect_v = taken;
    b.bind_bit(redirect_w, redirect_v);
    let mut tgt = bcond_tgt.clone();
    tgt = b.mux_word(m(B), &b_tgt, &tgt);
    tgt = b.mux_word(is_bx, &bx_tgt, &tgt);
    let pop_pc_tgt = {
        let mut bits = load_val.bits().to_vec();
        bits[0] = zero;
        Word::from_bits(bits)
    };
    tgt = b.mux_word(pop_to_pc, &pop_pc_tgt, &tgt);
    tgt = b.mux_word(bl_exec, &bl_tgt, &tgt);
    b.bind(&target_w, &tgt);

    // ---- writeback enables ----
    let wen = {
        let base_we = b.and2(writes_rd, plain);
        // Multi-transfer loads write each beat; SP update handled below via
        // a second write cycle? No second port: write SP at done using the
        // dedicated sp_after path muxed into the final beat... The final
        // beat must write both the last register and SP. To stay
        // single-ported, LDM/STM/PUSH/POP write SP on the *start* cycle
        // (the list beats follow), which is architecturally equivalent here
        // because the beat addresses come from the dedicated address
        // register.
        let multi_load_beat = {
            let ld = b.or2(is_pop, is_ldm);
            let x = b.and2(ld, ls_active);
            let npc = b.not(pop_to_pc);
            b.and2(x, npc)
        };
        let x = b.or2(base_we, multi_load_beat);
        let sp_up = b.and2(is_multi, multi_start);
        let x2 = b.or2(x, sp_up);
        let blw = b.and2(bl_exec, one);
        let blxw = m(BlxReg);
        let x2 = b.or2(x2, blxw);
        let x3 = b.or2(x2, blw);
        let mr = b.not(mul_req);
        let allow_mul = b.or2(mr, mul_done);
        b.and2(x3, allow_mul)
    };
    // Base-update on the start cycle overrides destination/result.
    let sp_up_now = b.and2(is_multi, multi_start);
    let wdest_final = {
        let sp = b.constant(13, 4);
        let stack_op = b.or2(is_push, is_pop);
        let base_dst = b.mux_word(stack_op, &sp, &rdn8w);
        b.mux_word(sp_up_now, &base_dst, &wdest)
    };
    let result_final = {
        let r = b.mux_word(sp_up_now, &sp_after, &result);
        let r = b.mux_word(m(BlxReg), &blx_lr, &r);
        b.mux_word(bl_exec, &bl_lr, &r)
    };
    let wen_final = {
        // Gate on valid: either executing normally, or a busy beat.
        let normal = b.and2(wen, exec_v);
        let beat_we = {
            let ld = b.or2(is_pop, is_ldm);
            let x = b.and2(ld, ls_busy_fb);
            let npc = b.not(pop_to_pc);
            let x = b.and2(x, npc);
            b.and2(x, ex_valid)
        };
        let w = b.or2(normal, beat_we);
        // The base-register update happens on the start cycle, which is a
        // stall cycle (exec_v low) — it must bypass the exec gate.
        b.or2(w, sp_up_now)
    };
    b.bind_bit(rf_wen, wen_final);
    b.bind(&rf_waddr, &wdest_final);
    b.bind(&rf_wdata, &result_final);

    // ---- flags update ----
    let sets_nz_only = {
        let x = m(Ands);
        let x = b.or2(x, m(Eors));
        let x = b.or2(x, m(Orrs));
        let x = b.or2(x, m(Bics));
        let x = b.or2(x, m(Mvns));
        let x = b.or2(x, m(Tst));
        let x = b.or2(x, m(MovImm));
        let x = b.or2(x, m(MovsReg));
        b.or2(x, is_mul)
    };
    let sets_nzc_shift = {
        let x = b.or2(sel_lsl, sel_lsr);
        let x = b.or2(x, sel_asr);
        b.or2(x, m(Rors))
    };
    let sets_nzcv = {
        let x = m(AddsReg);
        let x = b.or2(x, m(SubsReg));
        let x = b.or2(x, m(AddsImm3));
        let x = b.or2(x, m(SubsImm3));
        let x = b.or2(x, m(AddsImm8));
        let x = b.or2(x, m(SubsImm8));
        let x = b.or2(x, m(Adcs));
        let x = b.or2(x, m(Sbcs));
        let x = b.or2(x, m(Rsbs));
        let x = b.or2(x, m(CmpImm));
        let x = b.or2(x, m(CmpReg));
        let x = b.or2(x, m(CmpRegHigh));
        b.or2(x, m(Cmn))
    };
    let sets_any = {
        let x = b.or2(sets_nz_only, sets_nzc_shift);
        b.or2(x, sets_nzcv)
    };
    let flag_en = {
        let x = b.and2(sets_any, exec_v);
        b.and2(x, plain)
    };
    // For MULS the final-cycle gating matters.
    let flag_en = {
        let nm = b.not(mul_req);
        let ok = b.or2(nm, mul_done);
        b.and2(flag_en, ok)
    };
    let res_n = result_final.msb();
    let res_z = b.is_zero(&result_final);
    let new_c = {
        let shift_c = {
            let mut c = lsl_c;
            c = b.mux(sel_lsr, lsr_c, c);
            c = b.mux(sel_asr, asr_c, c);
            c = b.mux(m(Rors), ror_c, c);
            // shift by zero keeps old carry.
            b.mux(shift_zero, flag_c, c)
        };
        let c = b.mux(sets_nzc_shift, shift_c, flag_c);
        b.mux(sets_nzcv, cout, c)
    };
    let new_v = b.mux(sets_nzcv, v_add, flag_v);
    let n_next = b.mux(flag_en, res_n, flag_n);
    let z_next = b.mux(flag_en, res_z, flag_z);
    let c_next = b.mux(flag_en, new_c, flag_c);
    let v_next = b.mux(flag_en, new_v, flag_v);
    let n_q = b.dff(n_next, false, "flag_n");
    let z_q = b.dff(z_next, false, "flag_z");
    let c_q = b.dff(c_next, false, "flag_c");
    let v_q = b.dff(v_next, false, "flag_v");
    b.bind_bit(flag_n_fb, n_q);
    b.bind_bit(flag_z_fb, z_q);
    b.bind_bit(flag_c_fb, c_q);
    b.bind_bit(flag_v_fb, v_q);

    // ---- faults ----
    let fault = {
        let x = b.or2(m(Svc), m(Bkpt));
        let x = b.or2(x, m(Udf));
        let known: Vec<NetId> = ThumbInstr::ALL
            .iter()
            .filter(|f| !f.is_32bit())
            .map(|f| ex_sel[f])
            .collect();
        let any_known = b.or_many(&known);
        let any_known = b.or2(any_known, ex_is32);
        let any_known = b.or2(any_known, bl_pending_fb);
        let unk = b.not(any_known);
        let x = b.or2(x, unk);
        b.and2(x, exec_v)
    };

    // ---- memory port outputs ----
    let data_we = {
        let single = b.and2(is_store_any, exec_v);
        let single = b.and2(single, plain);
        let multi_beat = {
            let st = b.and2(multi_is_store, ls_active);
            b.and2(st, ex_valid)
        };
        b.or2(single, multi_beat)
    };
    let be_gated: Word = be.bits().iter().map(|&x| b.and2(x, data_we)).collect();

    b.output_word("instr_addr_o", &pc_f);
    b.output_word("data_addr_o", &word_addr);
    b.output_word("data_wdata_o", &store_data);
    b.output_bit("data_we_o", data_we);
    b.output_word("data_be_o", &be_gated);
    b.output_bit("retire_o", exec_v);
    b.output_bit("fault_o", fault);
    b.output_bit("flag_n_o", n_q);
    b.output_bit("flag_z_o", z_q);
    b.output_bit("flag_c_o", c_q);
    b.output_bit("flag_v_o", v_q);
    for (r, reg) in regs.iter().enumerate().take(15) {
        b.output_word(&format!("r{r}_o"), reg);
    }

    CortexM0Core {
        cut_fetch: fd_d.bits().to_vec(),
        ..rebind_cortexm0(b.finish())
    }
}

/// Re-derive a [`CortexM0Core`] handle from a transformed netlist via the
/// preserved port names, as [`crate::rebind_ibex`] does for the Ibex-class
/// core.
///
/// # Panics
///
/// Panics if the netlist does not expose the Cortex-M0-class port set.
pub fn rebind_cortexm0(netlist: Netlist) -> CortexM0Core {
    let names = PortNames::new(&netlist);
    let ports = names.ports((0..15).map(|r| format!("r{r}_o")));
    let fault_out = names.bit("fault_o");
    CortexM0Core {
        instr_in: ports.fetch.clone(),
        cut_fetch: Vec::new(),
        ports,
        fault_out,
        netlist,
    }
}
