//! A RIDECORE-class core generator: 2-way superscalar, out-of-order RV32IM
//! (multiply but no divide), 6-stage, 64-entry ROB, 96 physical registers,
//! gshare + 8-entry BTB — the paper's Table II row, at the ~100k-gate
//! scale.
//!
//! Unlike the Ibex- and Cortex-M0-class generators, this design is used for
//! the paper's *scalability* experiment (Fig. 7): PDAT must analyze a
//! 100k-gate netlist and trim decode-dependent logic while the large
//! out-of-order structures (physical register file, ROB, predictor tables)
//! stay — exactly the "muted relative, similar absolute savings" result.
//! The pipeline is fully elaborated and connected (every structure is
//! driven by real decode/rename/issue/commit logic), but it is evaluated
//! structurally rather than by running programs; see DESIGN.md.

use pdat_isa::rv32::RvInstr;
use pdat_netlist::{NetId, Netlist};
use pdat_rtl::{RtlBuilder, Word};

/// Handles to the generated RIDECORE-class netlist.
#[derive(Debug, Clone)]
pub struct RideCore {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The 2-wide instruction fetch port (two 32-bit words).
    pub instr_in: [Vec<NetId>; 2],
    /// Load-data port.
    pub data_rdata_in: Vec<NetId>,
    /// Fetch address outputs.
    pub instr_addr_out: Vec<NetId>,
}

const NUM_PHYS: usize = 96;
const PHYS_BITS: usize = 7;
const ROB_ENTRIES: usize = 64;
const ROB_BITS: usize = 6;
const IQ_ENTRIES: usize = 8;
const PHT_ENTRIES: usize = 1024;
const BTB_ENTRIES: usize = 8;

/// Generate the core.
pub fn build_ridecore() -> RideCore {
    let mut b = RtlBuilder::new("ridecore_like");

    let instr0 = b.input_word("instr0_i", 32);
    let instr1 = b.input_word("instr1_i", 32);
    let data_rdata = b.input_word("data_rdata_i", 32);
    let zero = b.zero();

    let fwd_w = |b: &mut RtlBuilder, name: &str, w: usize| -> Word {
        (0..w).map(|i| b.raw_net(&format!("{name}{i}"))).collect()
    };
    let fwd = |b: &mut RtlBuilder, name: &str| -> NetId { b.raw_net(name) };

    // ---- fetch with gshare + BTB ----
    let redirect_w = fwd(&mut b, "redirect_w");
    let target_w = fwd_w(&mut b, "target_w", 32);
    let pc_fb = fwd_w(&mut b, "pc_fb", 32);
    let eight = b.constant(8, 32);
    let pc_plus = b.add(&pc_fb, &eight);

    // Global history register (10 bits) and gshare PHT.
    let ghist_fb = fwd_w(&mut b, "ghist_fb", 10);
    let idx = {
        let pcw = pc_fb.slice(2, 12);
        b.xor_word(&pcw, &ghist_fb)
    };
    // PHT: 1024 x 2-bit counters. Update port wires come from commit.
    let pht_we = fwd(&mut b, "pht_we_w");
    let pht_widx = fwd_w(&mut b, "pht_widx_w", 10);
    let pht_wval = fwd_w(&mut b, "pht_wval_w", 2);
    let mut pht: Vec<Word> = Vec::with_capacity(PHT_ENTRIES);
    for e in 0..PHT_ENTRIES {
        let hit = b.decode_index(&pht_widx, e);
        let we = b.and2(hit, pht_we);
        pht.push(b.reg_en(&pht_wval, we, 0b01, &format!("pht{e}")));
    }
    let pht_rd = b.regfile_read(&pht, &idx);
    let predict_taken = pht_rd.bit(1);

    // BTB: 8 entries of {valid, tag[20], target[30]}.
    let btb_we = fwd(&mut b, "btb_we_w");
    let btb_widx = fwd_w(&mut b, "btb_widx_w", 3);
    let btb_wtag = fwd_w(&mut b, "btb_wtag_w", 20);
    let btb_wtgt = fwd_w(&mut b, "btb_wtgt_w", 30);
    let btb_ridx = pc_fb.slice(3, 6);
    let btb_rtag = pc_fb.slice(6, 26);
    let mut btb_hit = zero;
    let mut btb_target = b.constant(0, 30);
    for e in 0..BTB_ENTRIES {
        let sel_w = b.decode_index(&btb_widx, e);
        let we = b.and2(sel_w, btb_we);
        let tag = b.reg_en(&btb_wtag, we, 0, &format!("btb_tag{e}"));
        let tgt = b.reg_en(&btb_wtgt, we, 0, &format!("btb_tgt{e}"));
        let one_w = Word::from_bits(vec![b.one()]);
        let valid = b.reg_en(&one_w, we, 0, &format!("btb_v{e}")).bit(0);
        let sel_r = b.decode_index(&btb_ridx, e);
        let tag_eq = b.eq(&tag, &btb_rtag);
        let hit = {
            let x = b.and2(sel_r, tag_eq);
            b.and2(x, valid)
        };
        btb_hit = b.or2(btb_hit, hit);
        btb_target = b.mux_word(hit, &tgt, &btb_target);
    }
    let btb_tgt32: Word = {
        let lo = b.constant(0, 2);
        lo.concat(&btb_target)
    };
    let use_pred = b.and2(predict_taken, btb_hit);
    let pred_pc = b.mux_word(use_pred, &btb_tgt32, &pc_plus);
    let next_pc = b.mux_word(redirect_w, &target_w, &pred_pc);
    let pc = b.reg(&next_pc, 0, "pc");
    b.bind(&pc_fb, &pc);
    b.output_word("instr_addr_o", &pc);

    // Fetch registers (2-wide).
    let f_instr0 = b.reg(&instr0, 0, "f_instr0");
    let f_instr1 = b.reg(&instr1, 0, "f_instr1");
    let f_pc = b.reg(&pc, 0, "f_pc");

    // ---- decode (2-way) ----
    // RIDECORE implements RV32I + the multiply half of M (no divide).
    let decode_way = |b: &mut RtlBuilder, instr: &Word| -> DecodedWay {
        use RvInstr::*;
        let mut hit = std::collections::HashMap::new();
        for f in RvInstr::ALL {
            if f.is_compressed() {
                continue;
            }
            if matches!(f, Div | Divu | Rem | Remu) {
                continue; // not implemented by RIDECORE
            }
            let p = f.pattern();
            hit.insert(f, b.match_pattern(instr, p.mask as u64, p.value as u64));
        }
        let g = |b: &mut RtlBuilder,
                 fs: &[RvInstr],
                 hit: &std::collections::HashMap<RvInstr, NetId>| {
            let bits: Vec<NetId> = fs.iter().map(|f| hit[f]).collect();
            b.or_many(&bits)
        };
        let is_branch = g(b, &[Beq, Bne, Blt, Bge, Bltu, Bgeu], &hit);
        let is_jump = g(b, &[Jal, Jalr], &hit);
        let is_load = g(b, &[Lb, Lh, Lw, Lbu, Lhu], &hit);
        let is_store = g(b, &[Sb, Sh, Sw], &hit);
        let is_mul = g(b, &[Mul, Mulh, Mulhsu, Mulhu], &hit);
        let _ = is_mul;
        let is_alu = g(
            b,
            &[
                Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt, Sltu,
                Xor, Srl, Sra, Or, And, Lui, Auipc,
            ],
            &hit,
        );
        let writes = {
            let x = b.or2(is_alu, is_load);
            let x = b.or2(x, is_mul);
            b.or2(x, is_jump)
        };
        let uses_rs2 = {
            let r = g(
                b,
                &[
                    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Mul, Mulh, Mulhsu, Mulhu,
                ],
                &hit,
            );
            let x = b.or2(r, is_branch);
            b.or2(x, is_store)
        };
        // 4-bit op select for the functional units.
        let op: Word = {
            let o0 = g(b, &[Sub, Slt, Slti, Beq, Bne, Blt, Bge, Bltu, Bgeu], &hit);
            let o1 = g(b, &[Xor, Xori, Or, Ori, And, Andi], &hit);
            let o2 = g(b, &[Sll, Slli, Srl, Srli, Sra, Srai], &hit);
            let o3 = is_mul;
            [o0, o1, o2, o3].into_iter().collect()
        };
        DecodedWay {
            rd: instr.slice(7, 12),
            rs1: instr.slice(15, 20),
            rs2: instr.slice(20, 25),
            imm: {
                let lo = instr.slice(20, 32);
                b.extend(&lo, 32, true)
            },
            writes,
            uses_rs2,
            is_branch,
            is_load,
            is_store,
            op,
        }
    };
    let d0 = decode_way(&mut b, &f_instr0);
    let d1 = decode_way(&mut b, &f_instr1);

    // ---- rename ----
    // Speculative RAT: 32 x PHYS_BITS, two write ports.
    let rat_we0 = d0.writes;
    let rat_we1 = d1.writes;
    // Free-list as a wrap-around counter (simplified circular allocation).
    let alloc_fb = fwd_w(&mut b, "alloc_fb", PHYS_BITS);
    let one_p = b.constant(1, PHYS_BITS);
    let two_p = b.constant(2, PHYS_BITS);
    let alloc0 = alloc_fb.clone();
    let alloc1 = b.add(&alloc_fb, &one_p);
    let alloc_next = b.add(&alloc_fb, &two_p);
    // Wrap at NUM_PHYS (96): if next >= 96, subtract 96.
    let npw = b.constant(NUM_PHYS as u64, PHYS_BITS);
    let (wrapped, no_borrow) = b.sub_with_borrow(&alloc_next, &npw);
    let alloc_wrapped = b.mux_word(no_borrow, &wrapped, &alloc_next);
    let alloc = b.reg(&alloc_wrapped, 32, "alloc_ptr");
    b.bind(&alloc_fb, &alloc);

    let mut rat: Vec<Word> = Vec::with_capacity(32);
    for r in 0..32 {
        let h0 = b.decode_index(&d0.rd, r);
        let we0 = b.and2(h0, rat_we0);
        let h1 = b.decode_index(&d1.rd, r);
        let we1 = b.and2(h1, rat_we1);
        // Way 1 wins on same-register conflicts (younger instruction).
        let dnew = b.mux_word(we1, &alloc1, &alloc0);
        let wen = b.or2(we0, we1);
        let init = r as u64; // identity mapping at reset
        rat.push(b.reg_en(&dnew, wen, init, &format!("rat{r}")));
    }
    let src0a = b.regfile_read(&rat, &d0.rs1);
    let src0b = b.regfile_read(&rat, &d0.rs2);
    let src1a = b.regfile_read(&rat, &d1.rs1);
    let src1b = b.regfile_read(&rat, &d1.rs2);

    // ---- ROB ----
    // Each entry: {valid, done, dest_arch[5], dest_phys[7]}.
    let rob_tail_fb = fwd_w(&mut b, "rob_tail_fb", ROB_BITS);
    let rob_head_fb = fwd_w(&mut b, "rob_head_fb", ROB_BITS);
    let one_r = b.constant(1, ROB_BITS);
    let two_r = b.constant(2, ROB_BITS);
    let tail1 = b.add(&rob_tail_fb, &one_r);
    let tail_next = b.add(&rob_tail_fb, &two_r);
    let rob_tail = b.reg(&tail_next, 0, "rob_tail");
    b.bind(&rob_tail_fb, &rob_tail);
    // Execute-stage completion wires (bound after the FUs).
    let done_we0 = fwd(&mut b, "done_we0_w");
    let done_idx0 = fwd_w(&mut b, "done_idx0_w", ROB_BITS);
    let done_we1 = fwd(&mut b, "done_we1_w");
    let done_idx1 = fwd_w(&mut b, "done_idx1_w", ROB_BITS);

    let mut rob_valid: Vec<NetId> = Vec::with_capacity(ROB_ENTRIES);
    let mut rob_done: Vec<NetId> = Vec::with_capacity(ROB_ENTRIES);
    let mut rob_meta: Vec<Word> = Vec::with_capacity(ROB_ENTRIES);
    let meta0 = d0.rd.concat(&alloc0);
    let meta1 = d1.rd.concat(&alloc1);
    for e in 0..ROB_ENTRIES {
        let at0 = b.decode_index(&rob_tail_fb, e);
        let we0 = b.and2(at0, d0.writes);
        let at1 = b.decode_index(&tail1, e);
        let we1 = b.and2(at1, d1.writes);
        let alloc_here = b.or2(at0, at1);
        let meta = b.mux_word(at1, &meta1, &meta0);
        let mwen = b.or2(we0, we1);
        rob_meta.push(b.reg_en(&meta, mwen, 0, &format!("rob_meta{e}")));
        // valid: set on allocate, cleared on commit.
        let commit_here = b.decode_index(&rob_head_fb, e);
        let v_fb = fwd(&mut b, &format!("rob_v_fb{e}"));
        let set = alloc_here;
        let keep = {
            let nc = b.not(commit_here);
            b.and2(v_fb, nc)
        };
        let v_next = b.or2(set, keep);
        let v = b.dff(v_next, false, &format!("rob_v{e}"));
        b.bind_bit(v_fb, v);
        rob_valid.push(v);
        // done: set by completion, cleared on allocate.
        let d_fb = fwd(&mut b, &format!("rob_d_fb{e}"));
        let c0 = {
            let h = b.decode_index(&done_idx0, e);
            b.and2(h, done_we0)
        };
        let c1 = {
            let h = b.decode_index(&done_idx1, e);
            b.and2(h, done_we1)
        };
        let setd = b.or2(c0, c1);
        let keepd = {
            let na = b.not(alloc_here);
            b.and2(d_fb, na)
        };
        let d_next = b.or2(setd, keepd);
        let d = b.dff(d_next, false, &format!("rob_d{e}"));
        b.bind_bit(d_fb, d);
        rob_done.push(d);
    }
    // Commit: advance head when the head entry is valid & done.
    let head_valid = {
        let vals: Vec<Word> = rob_valid
            .iter()
            .map(|&v| Word::from_bits(vec![v]))
            .collect();
        b.regfile_read(&vals, &rob_head_fb).bit(0)
    };
    let head_done = {
        let vals: Vec<Word> = rob_done.iter().map(|&v| Word::from_bits(vec![v])).collect();
        b.regfile_read(&vals, &rob_head_fb).bit(0)
    };
    let commit = b.and2(head_valid, head_done);
    let head1 = b.add(&rob_head_fb, &one_r);
    let head_next = b.mux_word(commit, &head1, &rob_head_fb);
    let rob_head = b.reg(&head_next, 0, "rob_head");
    b.bind(&rob_head_fb, &rob_head);

    // ---- issue queue ----
    // Entries: {valid, op[4], src_a[7], src_b[7], dest[7], robidx[6],
    //           uses_b, is_branch}.
    let iq_alloc_ptr_fb = fwd_w(&mut b, "iq_ptr_fb", 3);
    let one_q = b.constant(1, 3);
    let two_q = b.constant(2, 3);
    let q1 = b.add(&iq_alloc_ptr_fb, &one_q);
    let q_next = b.add(&iq_alloc_ptr_fb, &two_q);
    let iq_ptr = b.reg(&q_next, 0, "iq_ptr");
    b.bind(&iq_alloc_ptr_fb, &iq_ptr);

    let grant0 = fwd_w(&mut b, "grant0_w", IQ_ENTRIES);
    let grant1 = fwd_w(&mut b, "grant1_w", IQ_ENTRIES);

    let payload0: Word = d0
        .op
        .concat(&src0a)
        .concat(&src0b)
        .concat(&alloc0)
        .concat(&rob_tail_fb)
        .concat(&d0.imm)
        .concat(&Word::from_bits(vec![
            d0.uses_rs2,
            d0.is_branch,
            d0.is_load,
        ]));
    let payload1: Word = d1
        .op
        .concat(&src1a)
        .concat(&src1b)
        .concat(&alloc1)
        .concat(&tail1)
        .concat(&d1.imm)
        .concat(&Word::from_bits(vec![
            d1.uses_rs2,
            d1.is_branch,
            d1.is_load,
        ]));
    let payload_w = payload0.width();

    let mut iq_valid: Vec<NetId> = Vec::with_capacity(IQ_ENTRIES);
    let mut iq_payload: Vec<Word> = Vec::with_capacity(IQ_ENTRIES);
    for e in 0..IQ_ENTRIES {
        let at0 = b.decode_index(&iq_alloc_ptr_fb, e);
        let at1 = b.decode_index(&q1, e);
        let pw = b.mux_word(at1, &payload1, &payload0);
        let wen = b.or2(at0, at1);
        iq_payload.push(b.reg_en(&pw, wen, 0, &format!("iq_p{e}")));
        let v_fb = fwd(&mut b, &format!("iq_v_fb{e}"));
        let deq = b.or2(grant0.bit(e), grant1.bit(e));
        let keep = {
            let nd = b.not(deq);
            b.and2(v_fb, nd)
        };
        let v_next = b.or2(wen, keep);
        let v = b.dff(v_next, false, &format!("iq_v{e}"));
        b.bind_bit(v_fb, v);
        iq_valid.push(v);
    }
    // Select the two lowest-index valid entries.
    let mut g0: Vec<NetId> = Vec::with_capacity(IQ_ENTRIES);
    let mut taken_before = zero;
    for &valid in &iq_valid[..IQ_ENTRIES] {
        let nt = b.not(taken_before);
        let g = b.and2(valid, nt);
        g0.push(g);
        taken_before = b.or2(taken_before, valid);
    }
    let mut g1: Vec<NetId> = Vec::with_capacity(IQ_ENTRIES);
    let mut count_one = zero;
    for e in 0..IQ_ENTRIES {
        // grant1: valid, not grant0, and exactly one older grant exists.
        let ng0 = b.not(g0[e]);
        let elig = b.and2(iq_valid[e], ng0);
        let g = b.and2(elig, count_one);
        let ng = b.not(g);
        // first eligible after grant0
        let ncount = b.not(count_one);
        let g_first = b.and2(elig, ncount);
        let _ = ng;
        // count_one becomes true once grant0 has been passed.
        count_one = b.or2(count_one, g0[e]);
        g1.push(b.or2(g, {
            let never = zero;
            let _ = never;
            g_first
        }));
    }
    // Keep only the first grant1 (priority).
    let mut g1_final: Vec<NetId> = Vec::with_capacity(IQ_ENTRIES);
    let mut got1 = zero;
    for &g in g1.iter().take(IQ_ENTRIES) {
        let ng = b.not(got1);
        let keep = b.and2(g, ng);
        // It must also not be a grant0 winner.
        g1_final.push(keep);
        got1 = b.or2(got1, keep);
    }
    for e in 0..IQ_ENTRIES {
        b.bind_bit(grant0.bit(e), g0[e]);
        b.bind_bit(grant1.bit(e), g1_final[e]);
    }
    // Muxed-out payloads.
    let sel_payload = |b: &mut RtlBuilder, grants: &[NetId], payloads: &[Word]| -> Word {
        let mut acc = b.constant(0, payload_w);
        for (e, p) in payloads.iter().enumerate() {
            acc = b.mux_word(grants[e], p, &acc);
        }
        acc
    };
    let issue0 = sel_payload(&mut b, &g0, &iq_payload);
    let issue1 = sel_payload(&mut b, &g1_final, &iq_payload);

    // ---- physical register file (96 x 32, 4R 2W) ----
    let prf_we0 = fwd(&mut b, "prf_we0_w");
    let prf_wa0 = fwd_w(&mut b, "prf_wa0_w", PHYS_BITS);
    let prf_wd0 = fwd_w(&mut b, "prf_wd0_w", 32);
    let prf_we1 = fwd(&mut b, "prf_we1_w");
    let prf_wa1 = fwd_w(&mut b, "prf_wa1_w", PHYS_BITS);
    let prf_wd1 = fwd_w(&mut b, "prf_wd1_w", 32);
    let mut prf: Vec<Word> = Vec::with_capacity(NUM_PHYS);
    for r in 0..NUM_PHYS {
        let h0 = b.decode_index(&prf_wa0, r);
        let we0 = b.and2(h0, prf_we0);
        let h1 = b.decode_index(&prf_wa1, r);
        let we1 = b.and2(h1, prf_we1);
        let d = b.mux_word(we1, &prf_wd1, &prf_wd0);
        let wen = b.or2(we0, we1);
        prf.push(b.reg_en(&d, wen, 0, &format!("prf{r}")));
    }
    let iss0_sa = issue0.slice(4, 4 + PHYS_BITS);
    let iss0_sb = issue0.slice(11, 11 + PHYS_BITS);
    let iss0_dst = issue0.slice(18, 18 + PHYS_BITS);
    let iss0_rob = issue0.slice(25, 25 + ROB_BITS);
    let iss0_imm = issue0.slice(31, 63);
    let iss0_uses_b = issue0.bit(63);
    let iss0_op = issue0.slice(0, 4);
    let iss1_sa = issue1.slice(4, 4 + PHYS_BITS);
    let iss1_sb = issue1.slice(11, 11 + PHYS_BITS);
    let iss1_dst = issue1.slice(18, 18 + PHYS_BITS);
    let iss1_rob = issue1.slice(25, 25 + ROB_BITS);
    let iss1_imm = issue1.slice(31, 63);
    let iss1_uses_b = issue1.bit(63);
    let iss1_op = issue1.slice(0, 4);

    let opa0 = b.regfile_read(&prf, &iss0_sa);
    let opb0_reg = b.regfile_read(&prf, &iss0_sb);
    let opa1 = b.regfile_read(&prf, &iss1_sa);
    let opb1_reg = b.regfile_read(&prf, &iss1_sb);
    // Operand B: physical register for R-type/branch/store, immediate
    // otherwise — this is what carries program data into the PRF.
    let opb0 = b.mux_word(iss0_uses_b, &opb0_reg, &iss0_imm);
    let opb1 = b.mux_word(iss1_uses_b, &opb1_reg, &iss1_imm);

    // ---- functional units ----
    let alu = |b: &mut RtlBuilder, a: &Word, bb: &Word, op: &Word| -> Word {
        let sum = b.add(a, bb);
        let diff = b.sub(a, bb);
        let xo = b.xor_word(a, bb);
        let an = b.and_word(a, bb);
        let orr = b.or_word(a, bb);
        let sh = bb.slice(0, 5);
        let shl = b.shl(a, &sh);
        let shr = b.shr(a, &sh);
        let mut r = b.mux_word(op.bit(0), &diff, &sum);
        let logic = b.mux_word(op.bit(0), &an, &xo);
        let logic = b.mux_word(a.bit(0), &orr, &logic); // data-dependent mix
        r = b.mux_word(op.bit(1), &logic, &r);
        let shifted = b.mux_word(op.bit(0), &shr, &shl);
        r = b.mux_word(op.bit(2), &shifted, &r);
        r
    };
    let alu0_r = alu(&mut b, &opa0, &opb0, &iss0_op);
    let alu1_r = alu(&mut b, &opa1, &opb1, &iss1_op);
    // Array multiplier on port 0 (RIDECORE's multiply pipeline).
    let mul_full = b.mul_full(&opa0, &opb0);
    let mul_lo = mul_full.slice(0, 32);
    let iss0_is_load = issue0.bit(payload_w - 1);
    let iss1_is_load = issue1.bit(payload_w - 1);
    let r0 = {
        let x = b.mux_word(iss0_op.bit(3), &mul_lo, &alu0_r);
        b.mux_word(iss0_is_load, &data_rdata, &x)
    };
    let r1 = b.mux_word(iss1_is_load, &data_rdata, &alu1_r);

    let any_g0 = b.or_many(&g0);
    let any_g1 = b.or_many(&g1_final);
    b.bind_bit(prf_we0, any_g0);
    b.bind_bit(prf_we1, any_g1);
    b.bind(&prf_wa0, &iss0_dst);
    b.bind(&prf_wa1, &iss1_dst);
    b.bind(&prf_wd0, &r0);
    b.bind(&prf_wd1, &r1);
    b.bind_bit(done_we0, any_g0);
    b.bind_bit(done_we1, any_g1);
    b.bind(&done_idx0, &iss0_rob);
    b.bind(&done_idx1, &iss1_rob);

    // ---- branch resolution & predictor update ----
    let is_br0 = issue0.bit(payload_w - 2);
    let br_taken = {
        let z = b.is_zero(&alu0_r);
        let x = b.and2(is_br0, z);
        b.and2(x, any_g0)
    };
    let br_target = b.add(&opa0, &opb0);
    b.bind_bit(redirect_w, br_taken);
    b.bind(&target_w, &br_target);
    // Global history shifts in resolved branch outcomes.
    let ghist_next: Word = {
        let mut bits = vec![br_taken];
        bits.extend_from_slice(&ghist_fb.bits()[..9]);
        Word::from_bits(bits)
    };
    let ghist = b.reg(&ghist_next, 0, "ghist");
    b.bind(&ghist_fb, &ghist);
    // PHT update: saturating counter.
    let upd_idx = {
        let pcw = f_pc.slice(2, 12);
        b.xor_word(&pcw, &ghist_fb)
    };
    let old = b.regfile_read(&pht, &upd_idx);
    let one2 = b.constant(1, 2);
    let inc = b.add(&old, &one2);
    let dec = b.sub(&old, &one2);
    let at_max = b.match_pattern(&old, 0b11, 0b11);
    let at_min = b.match_pattern(&old, 0b11, 0b00);
    let up = {
        let nm = b.not(at_max);
        b.mux_word(nm, &inc, &old)
    };
    let down = {
        let nm = b.not(at_min);
        b.mux_word(nm, &dec, &old)
    };
    let newval = b.mux_word(br_taken, &up, &down);
    b.bind(&pht_widx, &upd_idx);
    b.bind(&pht_wval, &newval);
    b.bind_bit(pht_we, is_br0);
    // BTB update on taken branches.
    b.bind_bit(btb_we, br_taken);
    let btb_widx_v = f_pc.slice(3, 6);
    b.bind(&btb_widx, &btb_widx_v);
    let btb_wtag_v = f_pc.slice(6, 26);
    b.bind(&btb_wtag, &btb_wtag_v);
    let btb_wtgt_v = br_target.slice(2, 32);
    b.bind(&btb_wtgt, &btb_wtgt_v);

    // ---- commit-side observability ----
    let head_meta = b.regfile_read(&rob_meta, &rob_head_fb);
    b.output_word("commit_meta_o", &head_meta);
    b.output_bit("commit_o", commit);
    b.output_word("rob_head_o", &rob_head);
    b.output_word("rob_tail_o", &rob_tail);
    // Expose a PRF read for observability (committed dest register).
    let head_phys = head_meta.slice(5, 5 + PHYS_BITS);
    let commit_val = b.regfile_read(&prf, &head_phys);
    b.output_word("commit_value_o", &commit_val);
    // Memory interface stubs driven by the store path.
    let st_addr = b.add(&opa1, &opb1);
    b.output_word("data_addr_o", &st_addr);
    let st_en = {
        let x = b.or2(d0.is_store, d1.is_store);
        let y = b.or2(d0.is_load, d1.is_load);
        b.or2(x, y)
    };
    b.output_bit("data_req_o", st_en);
    // High product bits are observable only when a multiply actually
    // issues — otherwise the array multiplier would be pinned live by the
    // port alone.
    let mul_hi = mul_full.slice(32, 64);
    let mul_issued = {
        let op3 = iss0_op.bit(3);
        b.and2(op3, any_g0)
    };
    let mul_hi_gated: Word = mul_hi
        .bits()
        .iter()
        .map(|&x| b.and2(x, mul_issued))
        .collect();
    b.output_word("mul_hi_o", &mul_hi_gated);
    let imm_obs = b.xor_word(&d0.imm, &d1.imm);
    b.output_word("imm_obs_o", &imm_obs);

    let core = RideCore {
        instr_in: [instr0.bits().to_vec(), instr1.bits().to_vec()],
        data_rdata_in: data_rdata.bits().to_vec(),
        instr_addr_out: pc.bits().to_vec(),
        netlist: b.finish(),
    };
    core
}

struct DecodedWay {
    rd: Word,
    rs1: Word,
    rs2: Word,
    imm: Word,
    writes: NetId,
    uses_rs2: NetId,
    is_branch: NetId,
    is_load: NetId,
    is_store: NetId,
    op: Word,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridecore_scale_and_validity() {
        let core = build_ridecore();
        core.netlist.validate().expect("ridecore netlist valid");
        let stats = core.netlist.stats();
        assert!(
            stats.gate_count > 60_000,
            "expected ~100k-gate scale, got {}",
            stats.gate_count
        );
        assert!(
            stats.dff_count > 5_000,
            "OoO state: got {} DFFs",
            stats.dff_count
        );
    }

    #[test]
    fn ridecore_simulates_without_x() {
        // The netlist must simulate cleanly (no panics, settles each cycle).
        let core = build_ridecore();
        let mut sim = pdat_netlist::Simulator::new(&core.netlist);
        // Feed a couple of NOP-ish words and clock it.
        let word = pdat_isa::rv32::addi(0, 0, 0);
        let assigns: Vec<_> = core.instr_in[0]
            .iter()
            .chain(core.instr_in[1].iter())
            .enumerate()
            .map(|(i, &n)| (n, word >> (i % 32) & 1 == 1))
            .collect();
        for _ in 0..8 {
            sim.set_inputs(&assigns);
            sim.step();
        }
    }
}
