//! An Ibex-class core generator: 2-stage, in-order, single-issue
//! RV32IMC + Zicsr/Zifencei, statically-not-taken branches, 32 registers.
//!
//! The microarchitecture deliberately mirrors the properties the paper
//! exploits:
//!
//! * compressed decode happens in the decode stage behind the fetch-decode
//!   pipeline register (the cutpoint location of the paper's Fig. 4);
//! * the M extension is an iterative 32-cycle multiply/divide unit whose
//!   stall control is woven through the pipeline (the "distributed stall
//!   controller" that defeats manual trimming);
//! * CSR logic (Zicsr) is tightly coupled to the trap path, so it cannot be
//!   removed by parameterization;
//! * byte/halfword load-store alignment logic is shared with the word path
//!   (removed only by the paper's "Aligned" variant).
//!
//! The generated netlist is a *functional* processor: the integration tests
//! run programs on it in lockstep with the instruction-set simulator.

use crate::expander::build_expander;
use crate::harness::{CorePorts, GateCore, PortNames};
use pdat_isa::rv32::RvInstr;
use pdat_netlist::{NetId, Netlist};
use pdat_rtl::{RtlBuilder, Word};

/// Handles to the generated core's ports and analysis points.
#[derive(Debug, Clone)]
pub struct IbexCore {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Instruction fetch word (primary inputs, LSB first); the same nets
    /// as `ports.fetch`.
    pub instr_in: Vec<NetId>,
    /// The fetch-decode pipeline register *input* nets — the paper's
    /// cutpoint location (Fig. 4).
    pub cut_fetch: Vec<NetId>,
    /// The memory, retire and register ports the harness drives. x0 has no
    /// port: its word is empty and reads 0.
    pub ports: CorePorts,
    /// Trap strobe.
    pub trap_out: NetId,
}

impl GateCore for IbexCore {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn ports(&self) -> &CorePorts {
        &self.ports
    }
}

/// Generate the core.
pub fn build_ibex() -> IbexCore {
    let mut b = RtlBuilder::new("ibex_like");

    // ---- ports ----
    let instr_i = b.input_word("instr_i", 32);
    let data_rdata = b.input_word("data_rdata_i", 32);

    let zero = b.zero();
    let one = b.one();

    // ---- fetch stage ----
    // Sequential fetch size from the raw fetch word (pre-pipeline).
    let f_b0 = instr_i.bit(0);
    let f_b1 = instr_i.bit(1);
    let fetch_is32 = b.and2(f_b0, f_b1);

    // Forward-reference nets for pipeline control, resolved at the end.
    let fwd = |b: &mut RtlBuilder, name: &str| -> NetId { b.raw_net(name) };
    let stall_w = fwd(&mut b, "stall_w");
    let redirect_w = fwd(&mut b, "redirect_w");
    let target_w: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("target_w{i}")))
        .collect();

    // pc_f register.
    // next_pc_f = redirect ? target : (stall ? pc_f : pc_f + step)
    let pc_f_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("pc_f_fb{i}")))
        .collect();
    let two = b.constant(2, 32);
    let four = b.constant(4, 32);
    let step = b.mux_word(fetch_is32, &four, &two);
    let pc_plus = b.add(&pc_f_fb, &step);
    let held = b.mux_word(stall_w, &pc_f_fb, &pc_plus);
    let next_pc_f = b.mux_word(redirect_w, &target_w, &held);
    let pc_f = b.reg(&next_pc_f, 0, "pc_f");
    b.bind(&pc_f_fb, &pc_f);

    // Fetch-decode pipeline registers. The D-side nets of the instruction
    // register are explicit named buffers: PDAT's cutpoint-based constraints
    // cut exactly these nets.
    let fd_d: Word = instr_i
        .bits()
        .iter()
        .enumerate()
        .map(|(i, &bit)| b.named_buf(bit, &format!("fd_instr_d[{i}]")))
        .collect();
    let not_stall = b.not(stall_w);
    let pipe_instr = b.reg_en(&fd_d, not_stall, 0, "pipe_instr");
    let pipe_pc = b.reg_en(&pc_f, not_stall, 0, "pipe_pc");
    let not_redirect = b.not(redirect_w);
    let pipe_valid_fb = fwd(&mut b, "pipe_valid_fb");
    let valid_d = b.mux(stall_w, pipe_valid_fb, not_redirect);
    let pipe_valid = b.dff(valid_d, false, "pipe_valid");
    b.bind_bit(pipe_valid_fb, pipe_valid);

    // ---- decode stage ----
    let (instr32, is_c, c_illegal) = build_expander(&mut b, &pipe_instr);

    // Form matchers for every 32-bit form.
    let mut sel = std::collections::HashMap::new();
    for f in RvInstr::ALL {
        if f.is_compressed() {
            continue;
        }
        let p = f.pattern();
        let hit = b.match_pattern(&instr32, p.mask as u64, p.value as u64);
        sel.insert(f, hit);
    }
    let m = |f: RvInstr| -> NetId { sel[&f] };
    use RvInstr::*;

    let group =
        |b: &mut RtlBuilder, fs: &[RvInstr], sel: &std::collections::HashMap<RvInstr, NetId>| {
            let bits: Vec<NetId> = fs.iter().map(|f| sel[f]).collect();
            b.or_many(&bits)
        };

    let is_branch = group(&mut b, &[Beq, Bne, Blt, Bge, Bltu, Bgeu], &sel);
    let is_load = group(&mut b, &[Lb, Lh, Lw, Lbu, Lhu], &sel);
    let is_store = group(&mut b, &[Sb, Sh, Sw], &sel);
    let is_opimm = group(
        &mut b,
        &[Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai],
        &sel,
    );
    let is_op = group(
        &mut b,
        &[Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And],
        &sel,
    );
    let is_mul = group(&mut b, &[Mul, Mulh, Mulhsu, Mulhu], &sel);
    let is_div = group(&mut b, &[Div, Divu, Rem, Remu], &sel);
    let is_muldiv = b.or2(is_mul, is_div);
    let is_csr = group(&mut b, &[Csrrw, Csrrs, Csrrc, Csrrwi, Csrrsi, Csrrci], &sel);
    let is_fence = group(&mut b, &[Fence, FenceI], &sel);
    let any_known = {
        let groups = [
            m(Lui),
            m(Auipc),
            m(Jal),
            m(Jalr),
            is_branch,
            is_load,
            is_store,
            is_opimm,
            is_op,
            is_muldiv,
            is_csr,
            is_fence,
            m(Ecall),
            m(Ebreak),
        ];
        b.or_many(&groups)
    };
    let not_known = b.not(any_known);
    let illegal = b.or2(not_known, c_illegal);

    // ---- register file ----
    let rs1_a = instr32.slice(15, 20);
    let rs2_a = instr32.slice(20, 25);
    let rd_a = instr32.slice(7, 12);
    // Write port wires (resolved at the end).
    let rf_wen = fwd(&mut b, "rf_wen_w");
    let rf_wdata: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("rf_wdata_w{i}")))
        .collect();
    let x0 = b.constant(0, 32);
    let mut regs: Vec<Word> = Vec::with_capacity(32);
    regs.push(x0.clone());
    for r in 1..32 {
        let hit = b.decode_index(&rd_a, r);
        let we = b.and2(hit, rf_wen);
        regs.push(b.reg_en(&rf_wdata, we, 0, &format!("x{r}")));
    }
    let rs1 = b.regfile_read(&regs, &rs1_a);
    let rs2 = b.regfile_read(&regs, &rs2_a);

    // ---- immediates ----
    let sign = instr32.bit(31);
    let imm_i = {
        let lo = instr32.slice(20, 32);
        b.extend(&lo, 32, true)
    };
    let imm_s = {
        let lo = instr32.slice(7, 12);
        let hi = instr32.slice(25, 32);
        let w = lo.concat(&hi);
        b.extend(&w, 32, true)
    };
    let imm_b = {
        let w: Word = [
            zero,
            instr32.bit(8),
            instr32.bit(9),
            instr32.bit(10),
            instr32.bit(11),
            instr32.bit(25),
            instr32.bit(26),
            instr32.bit(27),
            instr32.bit(28),
            instr32.bit(29),
            instr32.bit(30),
            instr32.bit(7),
            sign,
        ]
        .into_iter()
        .collect();
        b.extend(&w, 32, true)
    };
    let imm_u: Word = {
        let hi = instr32.slice(12, 32);
        let lo = b.constant(0, 12);
        lo.concat(&hi)
    };
    let imm_j = {
        let w: Word = [
            zero,
            instr32.bit(21),
            instr32.bit(22),
            instr32.bit(23),
            instr32.bit(24),
            instr32.bit(25),
            instr32.bit(26),
            instr32.bit(27),
            instr32.bit(28),
            instr32.bit(29),
            instr32.bit(30),
            instr32.bit(20),
            instr32.bit(12),
            instr32.bit(13),
            instr32.bit(14),
            instr32.bit(15),
            instr32.bit(16),
            instr32.bit(17),
            instr32.bit(18),
            instr32.bit(19),
            sign,
        ]
        .into_iter()
        .collect();
        b.extend(&w, 32, true)
    };

    // ---- ALU ----
    let use_imm = {
        let x = b.or2(is_opimm, is_load);
        let y = b.or2(x, is_store);
        b.or2(y, m(Jalr))
    };
    let op_b_imm = b.mux_word(is_store, &imm_s, &imm_i);
    let op_b = b.mux_word(use_imm, &op_b_imm, &rs2);
    let op_a = rs1.clone();

    // Adder / subtractor.
    let is_sub = {
        let slt = b.or2(m(Slt), m(Sltu));
        let slti = b.or2(m(Slti), m(Sltiu));
        let s = b.or2(slt, slti);
        let s = b.or2(s, m(Sub));
        b.or2(s, is_branch)
    };
    let sum = b.add(&op_a, &op_b);
    let (diff, no_borrow) = b.sub_with_borrow(&op_a, &op_b);
    let addsub = b.mux_word(is_sub, &diff, &sum);

    // Comparisons (shared by SLT and branches).
    let eq = b.eq(&op_a, &op_b);
    let ltu = b.not(no_borrow);
    let lt = b.lt_signed(&op_a, &op_b);

    // Logic ops.
    let xor_r = b.xor_word(&op_a, &op_b);
    let or_r = b.or_word(&op_a, &op_b);
    let and_r = b.and_word(&op_a, &op_b);

    // Shifter.
    let shamt = op_b.slice(0, 5);
    let shl_r = b.shl(&op_a, &shamt);
    let shr_r = b.shr(&op_a, &shamt);
    let sar_r = b.sar(&op_a, &shamt);

    // SLT results.
    let slt_bit = lt;
    let sltu_bit = ltu;
    let slt_w = {
        let mut bits = vec![slt_bit];
        bits.resize(32, zero);
        Word::from_bits(bits)
    };
    let sltu_w = {
        let mut bits = vec![sltu_bit];
        bits.resize(32, zero);
        Word::from_bits(bits)
    };

    // ALU result mux.
    let mut alu = addsub.clone();
    let sel_xor = b.or2(m(Xor), m(Xori));
    alu = b.mux_word(sel_xor, &xor_r, &alu);
    let sel_or = b.or2(m(Or), m(Ori));
    alu = b.mux_word(sel_or, &or_r, &alu);
    let sel_and = b.or2(m(And), m(Andi));
    alu = b.mux_word(sel_and, &and_r, &alu);
    let sel_sll = b.or2(m(Sll), m(Slli));
    alu = b.mux_word(sel_sll, &shl_r, &alu);
    let sel_srl = b.or2(m(Srl), m(Srli));
    alu = b.mux_word(sel_srl, &shr_r, &alu);
    let sel_sra = b.or2(m(Sra), m(Srai));
    alu = b.mux_word(sel_sra, &sar_r, &alu);
    let sel_slt = b.or2(m(Slt), m(Slti));
    alu = b.mux_word(sel_slt, &slt_w, &alu);
    let sel_sltu = b.or2(m(Sltu), m(Sltiu));
    alu = b.mux_word(sel_sltu, &sltu_w, &alu);
    // LUI: imm_u ; AUIPC: pc + imm_u.
    alu = b.mux_word(sel[&Lui], &imm_u, &alu);
    let auipc_r = b.add(&pipe_pc, &imm_u);
    alu = b.mux_word(sel[&Auipc], &auipc_r, &alu);

    // ---- branches / jumps ----
    let cond = {
        let neq = b.not(eq);
        let nlt = b.not(lt);
        let nltu = b.not(ltu);
        let mut c = zero;
        let t = b.and2(m(Beq), eq);
        c = b.or2(c, t);
        let t = b.and2(m(Bne), neq);
        c = b.or2(c, t);
        let t = b.and2(m(Blt), lt);
        c = b.or2(c, t);
        let t = b.and2(m(Bge), nlt);
        c = b.or2(c, t);
        let t = b.and2(m(Bltu), ltu);
        c = b.or2(c, t);
        let t = b.and2(m(Bgeu), nltu);
        c = b.or2(c, t);
        c
    };
    let branch_taken = b.and2(is_branch, cond);
    let branch_tgt = b.add(&pipe_pc, &imm_b);
    let jal_tgt = b.add(&pipe_pc, &imm_j);
    let jalr_sum = sum.clone(); // rs1 + imm_i (op_b = imm_i for jalr)
    let jalr_tgt = {
        let mut bits = jalr_sum.bits().to_vec();
        bits[0] = zero;
        Word::from_bits(bits)
    };

    // ---- load/store unit ----
    let mem_addr = sum.clone(); // rs1 + imm (I or S)
    let a0 = mem_addr.bit(0);
    let a1 = mem_addr.bit(1);
    let word_addr: Word = {
        let mut bits = mem_addr.bits().to_vec();
        bits[0] = zero;
        bits[1] = zero;
        Word::from_bits(bits)
    };
    // Load data alignment: shift right by 8*addr[1:0].
    let sh_amt: Word = [zero, zero, zero, a0, a1].into_iter().collect();
    let aligned_load = b.shr(&data_rdata, &sh_amt);
    let lb_w = {
        let byte = aligned_load.slice(0, 8);
        b.extend(&byte, 32, true)
    };
    let lbu_w = {
        let byte = aligned_load.slice(0, 8);
        b.extend(&byte, 32, false)
    };
    let lh_w = {
        let half = aligned_load.slice(0, 16);
        b.extend(&half, 32, true)
    };
    let lhu_w = {
        let half = aligned_load.slice(0, 16);
        b.extend(&half, 32, false)
    };
    let mut load_val = aligned_load.clone();
    load_val = b.mux_word(sel[&Lb], &lb_w, &load_val);
    load_val = b.mux_word(sel[&Lbu], &lbu_w, &load_val);
    load_val = b.mux_word(sel[&Lh], &lh_w, &load_val);
    load_val = b.mux_word(sel[&Lhu], &lhu_w, &load_val);
    // Store alignment: shift left by 8*addr[1:0].
    let store_data = b.shl(&rs2, &sh_amt);
    // Byte enables.
    let size_b = m(Sb);
    let size_h = m(Sh);
    let be = {
        // one-hot base mask: SB -> 0001, SH -> 0011, SW -> 1111, then shifted
        // left by addr[1:0].
        let base0 = one;
        let base1 = b.not(size_b); // SH or SW
        let base23 = {
            let nbh = b.or2(size_b, size_h);
            b.not(nbh) // SW only
        };
        let base: Word = [base0, base1, base23, base23].into_iter().collect();
        let sh2: Word = [a0, a1].into_iter().collect();
        b.shl(&base, &sh2)
    };

    // ---- iterative multiply/divide unit ----
    let busy_fb = fwd(&mut b, "md_busy_fb");
    let a31 = rs1.msb();
    let b31 = rs2.msb();
    let signed_div = b.or2(m(Div), m(Rem));
    let neg_a = b.and2(a31, signed_div);
    let neg_b = b.and2(b31, signed_div);
    let zero32 = b.constant(0, 32);
    let rs1_neg = b.sub(&zero32, &rs1);
    let rs2_neg = b.sub(&zero32, &rs2);
    let abs_a = b.mux_word(neg_a, &rs1_neg, &rs1);
    let abs_b = b.mux_word(neg_b, &rs2_neg, &rs2);

    let start = {
        let req = b.and2(is_muldiv, pipe_valid);
        let nb_ = b.not(busy_fb);
        b.and2(req, nb_)
    };
    let cnt_fb: Word = (0..6)
        .map(|i| fwd(&mut b, &format!("md_cnt_fb{i}")))
        .collect();
    let acc_lo_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("md_lo_fb{i}")))
        .collect();
    let acc_hi_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("md_hi_fb{i}")))
        .collect();

    // Multiply step: if lo[0], hi += rs1 (unsigned); shift {c,hi,lo} right.
    let addend = {
        let lo0 = acc_lo_fb.bit(0);
        let gated: Word = rs1.bits().iter().map(|&x| b.and2(x, lo0)).collect();
        gated
    };
    let (mul_sum, mul_c) = b.add_with_carry(&acc_hi_fb, &addend, None);
    let mul_next_hi: Word = {
        let mut bits: Vec<NetId> = mul_sum.bits()[1..].to_vec();
        bits.push(mul_c);
        Word::from_bits(bits)
    };
    let mul_next_lo: Word = {
        let mut bits: Vec<NetId> = acc_lo_fb.bits()[1..].to_vec();
        bits.push(mul_sum.bit(0));
        Word::from_bits(bits)
    };

    // Divide step: rem' = (hi << 1) | lo[31]; diff = rem' - |b|;
    // if no_borrow: hi = diff, lo = (lo << 1)|1 else hi = rem', lo = lo<<1.
    let remp: Word = {
        let mut bits = vec![acc_lo_fb.bit(31)];
        bits.extend_from_slice(&acc_hi_fb.bits()[..31]);
        Word::from_bits(bits)
    };
    let (ddiff, dnb) = b.sub_with_borrow(&remp, &abs_b);
    let div_next_hi = b.mux_word(dnb, &ddiff, &remp);
    let div_next_lo: Word = {
        let mut bits = vec![dnb];
        bits.extend_from_slice(&acc_lo_fb.bits()[..31]);
        Word::from_bits(bits)
    };

    let step_hi = b.mux_word(is_div, &div_next_hi, &mul_next_hi);
    let step_lo = b.mux_word(is_div, &div_next_lo, &mul_next_lo);

    // Init values at start.
    let init_lo = b.mux_word(is_div, &abs_a, &rs2); // mul multiplies rs1 * rs2 with rs2 in lo
    let init_hi = zero32.clone();

    let cnt_is_31 = b.match_pattern(&cnt_fb, 0x3F, 31);
    let done = b.and2(busy_fb, cnt_is_31);
    let busy_next = {
        // busy' = start | (busy & !done)
        let nd = b.not(done);
        let keep = b.and2(busy_fb, nd);
        b.or2(start, keep)
    };
    let busy = b.dff(busy_next, false, "md_busy");
    b.bind_bit(busy_fb, busy);

    let cnt_plus = {
        let one6 = b.constant(1, 6);
        b.add(&cnt_fb, &one6)
    };
    let zero6 = b.constant(0, 6);
    let cnt_next = {
        let stepped = b.mux_word(busy_fb, &cnt_plus, &cnt_fb);
        b.mux_word(start, &zero6, &stepped)
    };
    let cnt = b.reg(&cnt_next, 0, "md_cnt");
    b.bind(&cnt_fb, &cnt);

    let lo_next = {
        let stepped = b.mux_word(busy_fb, &step_lo, &acc_lo_fb);
        b.mux_word(start, &init_lo, &stepped)
    };
    let hi_next = {
        let stepped = b.mux_word(busy_fb, &step_hi, &acc_hi_fb);
        b.mux_word(start, &init_hi, &stepped)
    };
    let acc_lo = b.reg(&lo_next, 0, "md_lo");
    let acc_hi = b.reg(&hi_next, 0, "md_hi");
    b.bind(&acc_lo_fb, &acc_lo);
    b.bind(&acc_hi_fb, &acc_hi);

    // Result fixups (combinational, from the final step values).
    let prod_lo = &step_lo;
    let prod_hi = &step_hi;
    // mulh corrections: subtract (a31? rs2 : 0) and (b31? rs1 : 0) for the
    // signed variants.
    let corr_a: Word = {
        let want = b.or2(m(Mulh), m(Mulhsu));
        let en = b.and2(want, a31);
        rs2.bits().iter().map(|&x| b.and2(x, en)).collect()
    };
    let corr_b: Word = {
        let en = b.and2(m(Mulh), b31);
        rs1.bits().iter().map(|&x| b.and2(x, en)).collect()
    };
    let hi_c1 = b.sub(prod_hi, &corr_a);
    let hi_c2 = b.sub(&hi_c1, &corr_b);
    // div/rem sign fixups.
    let b_nz = {
        let z = b.is_zero(&rs2);
        b.not(z)
    };
    let q_u = prod_lo.clone();
    let r_u = prod_hi.clone();
    let q_neg_w = b.sub(&zero32, &q_u);
    let r_neg_w = b.sub(&zero32, &r_u);
    let signs_differ = b.xor2(a31, b31);
    let negq = {
        let x = b.and2(signed_div, signs_differ);
        b.and2(x, b_nz)
    };
    let negr = {
        let x = b.and2(signed_div, a31);
        b.and2(x, b_nz)
    };
    let q_signed = b.mux_word(negq, &q_neg_w, &q_u);
    let r_signed = b.mux_word(negr, &r_neg_w, &r_u);
    let ones32 = b.constant(0xFFFF_FFFF, 32);
    let q_final = b.mux_word(b_nz, &q_signed, &ones32);
    let r_final = b.mux_word(b_nz, &r_signed, &rs1);

    let mut md_result = prod_lo.clone(); // MUL
    let want_hi = {
        let x = b.or2(m(Mulh), m(Mulhsu));
        b.or2(x, m(Mulhu))
    };
    md_result = b.mux_word(want_hi, &hi_c2, &md_result);
    // mulhu has no corrections: corr words are zero for it by construction.
    let want_q = b.or2(m(Div), m(Divu));
    md_result = b.mux_word(want_q, &q_final, &md_result);
    let want_r = b.or2(m(Rem), m(Remu));
    md_result = b.mux_word(want_r, &r_final, &md_result);

    // ---- CSRs ----
    let csr_a = instr32.slice(20, 32);
    let c_mstatus = b.match_pattern(&csr_a, 0xFFF, 0x300);
    let c_mtvec = b.match_pattern(&csr_a, 0xFFF, 0x305);
    let c_mscratch = b.match_pattern(&csr_a, 0xFFF, 0x340);
    let c_mepc = b.match_pattern(&csr_a, 0xFFF, 0x341);
    let c_mcause = b.match_pattern(&csr_a, 0xFFF, 0x342);
    let c_mcycle = b.match_pattern(&csr_a, 0xFFF, 0xB00);

    let mstatus_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mstatus_fb{i}")))
        .collect();
    let mtvec_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mtvec_fb{i}")))
        .collect();
    let mscratch_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mscratch_fb{i}")))
        .collect();
    let mepc_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mepc_fb{i}")))
        .collect();
    let mcause_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mcause_fb{i}")))
        .collect();
    let mcycle_fb: Word = (0..32)
        .map(|i| fwd(&mut b, &format!("mcycle_fb{i}")))
        .collect();

    let mut csr_rdata = b.constant(0, 32);
    csr_rdata = b.mux_word(c_mstatus, &mstatus_fb, &csr_rdata);
    csr_rdata = b.mux_word(c_mtvec, &mtvec_fb, &csr_rdata);
    csr_rdata = b.mux_word(c_mscratch, &mscratch_fb, &csr_rdata);
    csr_rdata = b.mux_word(c_mepc, &mepc_fb, &csr_rdata);
    csr_rdata = b.mux_word(c_mcause, &mcause_fb, &csr_rdata);
    csr_rdata = b.mux_word(c_mcycle, &mcycle_fb, &csr_rdata);

    let csr_imm_op = {
        let x = b.or2(m(Csrrwi), m(Csrrsi));
        b.or2(x, m(Csrrci))
    };
    let zimm = b.extend(&rs1_a, 32, false);
    let csr_src = b.mux_word(csr_imm_op, &zimm, &rs1);
    let csr_set = b.or_word(&csr_rdata, &csr_src);
    let csr_clr = {
        let n = b.not_word(&csr_src);
        b.and_word(&csr_rdata, &n)
    };
    let is_w = b.or2(m(Csrrw), m(Csrrwi));
    let is_s = b.or2(m(Csrrs), m(Csrrsi));
    let mut csr_wdata = csr_src.clone();
    csr_wdata = b.mux_word(is_s, &csr_set, &csr_wdata);
    let is_cl = b.or2(m(Csrrc), m(Csrrci));
    csr_wdata = b.mux_word(is_cl, &csr_clr, &csr_wdata);
    let _ = is_w;

    // ---- traps & control resolution ----
    let exec = fwd(&mut b, "exec_w"); // pipe_valid && !stall (bound below)
    let trap = {
        let ee = b.or2(m(Ecall), m(Ebreak));
        let t = b.or2(ee, illegal);
        b.and2(t, exec)
    };
    let csr_we = {
        let x = b.and2(is_csr, exec);
        let nt = b.not(trap);
        b.and2(x, nt)
    };

    let wr = |b: &mut RtlBuilder,
              fbw: &Word,
              sel_csr: NetId,
              csr_we: NetId,
              wdata: &Word,
              extra_we: Option<(NetId, &Word)>,
              init: u64,
              name: &str|
     -> Word {
        let we = b.and2(sel_csr, csr_we);
        let mut next = b.mux_word(we, wdata, fbw);
        if let Some((ew, ev)) = extra_we {
            next = b.mux_word(ew, ev, &next);
        }
        let q = b.reg(&next, init, name);
        b.bind(fbw, &q);
        q
    };

    let _mstatus = wr(
        &mut b,
        &mstatus_fb,
        c_mstatus,
        csr_we,
        &csr_wdata,
        None,
        0,
        "mstatus",
    );
    let mtvec = wr(
        &mut b, &mtvec_fb, c_mtvec, csr_we, &csr_wdata, None, 0, "mtvec",
    );
    let _mscratch = wr(
        &mut b,
        &mscratch_fb,
        c_mscratch,
        csr_we,
        &csr_wdata,
        None,
        0,
        "mscratch",
    );
    let _mepc = wr(
        &mut b,
        &mepc_fb,
        c_mepc,
        csr_we,
        &csr_wdata,
        Some((trap, &pipe_pc)),
        0,
        "mepc",
    );
    // mcause value on trap: 2 (illegal), 3 (ebreak), 11 (ecall).
    let cause = {
        let c2 = b.constant(2, 32);
        let c3 = b.constant(3, 32);
        let c11 = b.constant(11, 32);
        let x = b.mux_word(m(Ebreak), &c3, &c2);
        b.mux_word(m(Ecall), &c11, &x)
    };
    let _mcause = wr(
        &mut b,
        &mcause_fb,
        c_mcause,
        csr_we,
        &csr_wdata,
        Some((trap, &cause)),
        0,
        "mcause",
    );
    // mcycle free-runs (write overrides increment).
    let mcycle_plus = {
        let one32 = b.constant(1, 32);
        b.add(&mcycle_fb, &one32)
    };
    let mcycle_next = {
        let we = b.and2(c_mcycle, csr_we);
        b.mux_word(we, &csr_wdata, &mcycle_plus)
    };
    let mcycle = b.reg(&mcycle_next, 0, "mcycle");
    b.bind(&mcycle_fb, &mcycle);
    let _ = mcycle;

    // ---- writeback ----
    let seq_sz = b.mux_word(is_c, &two, &four);
    let seq_pc = b.add(&pipe_pc, &seq_sz);
    let is_jump = b.or2(m(Jal), m(Jalr));
    let mut wb = alu.clone();
    wb = b.mux_word(is_load, &load_val, &wb);
    wb = b.mux_word(is_csr, &csr_rdata, &wb);
    wb = b.mux_word(is_jump, &seq_pc, &wb);
    wb = b.mux_word(is_muldiv, &md_result, &wb);
    b.bind(&rf_wdata, &wb);

    let writes_rd = {
        let x = b.or2(is_opimm, is_op);
        let x = b.or2(x, is_load);
        let x = b.or2(x, is_csr);
        let x = b.or2(x, is_jump);
        let x = b.or2(x, m(Lui));
        let x = b.or2(x, m(Auipc));
        b.or2(x, is_muldiv)
    };
    let rd_nz = {
        let z = b.is_zero(&rd_a);
        b.not(z)
    };
    let wen = {
        let x = b.and2(writes_rd, exec);
        let x = b.and2(x, rd_nz);
        let nt = b.not(trap);
        b.and2(x, nt)
    };
    b.bind_bit(rf_wen, wen);

    // ---- pipeline control ----
    // stall while a multi-cycle op is in flight and not finishing.
    // Note: mul/div forms are always legal and never trap, so the stall
    // term needs no trap qualifier (and must not have one — trap depends on
    // `exec`, which depends on stall).
    let stall_v = {
        let req = b.and2(is_muldiv, pipe_valid);
        let nd = b.not(done);
        b.and2(req, nd)
    };
    b.bind_bit(stall_w, stall_v);
    let exec_v = {
        let ns = b.not(stall_v);
        b.and2(pipe_valid, ns)
    };
    b.bind_bit(exec, exec_v);

    let taken = {
        let t = b.or2(is_jump, branch_taken);
        b.and2(t, exec_v)
    };
    let redirect_v = b.or2(taken, trap);
    b.bind_bit(redirect_w, redirect_v);
    let mut tgt = branch_tgt.clone();
    tgt = b.mux_word(m(Jal), &jal_tgt, &tgt);
    tgt = b.mux_word(m(Jalr), &jalr_tgt, &tgt);
    tgt = b.mux_word(trap, &mtvec, &tgt);
    b.bind(&target_w, &tgt);

    // ---- outputs ----
    b.output_word("instr_addr_o", &pc_f);
    b.output_word("data_addr_o", &word_addr);
    b.output_word("data_wdata_o", &store_data);
    let data_we = b.and2(is_store, exec_v);
    let data_we = {
        let nt = b.not(trap);
        b.and2(data_we, nt)
    };
    b.output_bit("data_we_o", data_we);
    let be_gated: Word = be.bits().iter().map(|&x| b.and2(x, data_we)).collect();
    b.output_word("data_be_o", &be_gated);
    let data_req = {
        let l = b.and2(is_load, exec_v);
        b.or2(l, data_we)
    };
    b.output_bit("data_req_o", data_req);
    b.output_bit("retire_o", exec_v);
    b.output_word("retire_pc_o", &pipe_pc);
    b.output_bit("trap_o", trap);
    let ill_out = b.and2(illegal, pipe_valid);
    b.output_bit("illegal_o", ill_out);
    for (r, reg) in regs.iter().enumerate().skip(1) {
        b.output_word(&format!("x{r}_o"), reg);
    }

    IbexCore {
        cut_fetch: fd_d.bits().to_vec(),
        ..rebind_ibex(b.finish())
    }
}

/// Re-derive an [`IbexCore`] handle from a *transformed* netlist (e.g. the
/// output of a PDAT run) by looking up the preserved port names. The
/// cutpoint handles are gone (they were internal nets); everything the
/// execution harness needs survives.
///
/// # Panics
///
/// Panics if the netlist does not expose the Ibex-class port set.
pub fn rebind_ibex(netlist: Netlist) -> IbexCore {
    let names = PortNames::new(&netlist);
    let ports = names.ports((0..32).map(|r| format!("x{r}_o")));
    let trap_out = names.bit("trap_o");
    IbexCore {
        instr_in: ports.fetch.clone(),
        cut_fetch: Vec::new(),
        ports,
        trap_out,
        netlist,
    }
}
