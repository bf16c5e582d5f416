//! Hardware RVC (compressed) instruction expander.
//!
//! This is the gate-level counterpart of
//! [`pdat_isa::rv32::expand_compressed`]: a combinational circuit that maps
//! a 16-bit compressed halfword to its 32-bit equivalent. It is exactly the
//! logic whose *low marginal cost* explains the paper's observation that
//! removing the c-extension saves little area.

use pdat_netlist::NetId;
use pdat_rtl::{RtlBuilder, Word};

/// Build the expander: given the raw 32-bit fetch word, produce
/// `(expanded_instr, is_compressed, illegal)`.
///
/// If the low two bits are `11` the word passes through unchanged;
/// otherwise the RVC expansion is selected by quadrant/funct3.
pub fn build_expander(b: &mut RtlBuilder, fetch: &Word) -> (Word, NetId, NetId) {
    assert_eq!(fetch.width(), 32);
    let half = fetch.slice(0, 16);
    let is32 = {
        let b0 = fetch.bit(0);
        let b1 = fetch.bit(1);
        b.and2(b0, b1)
    };
    let is_c = b.not(is32);

    let (expanded, illegal_c) = expand_circuit(b, &half);
    let out = b.mux_word(is_c, &expanded, fetch);
    let illegal = b.and2(is_c, illegal_c);
    (out, is_c, illegal)
}

/// The 16-bit → 32-bit expansion proper. Returns `(instr32, illegal)`.
fn expand_circuit(b: &mut RtlBuilder, h: &Word) -> (Word, NetId) {
    let zero = b.zero();
    let one = b.one();
    let bit = |i: usize| h.bit(i);

    // Register fields.
    let rdp: Word = [bit(2), bit(3), bit(4), one, zero].into_iter().collect(); // 8 + h[4:2]
    let rs1p: Word = [bit(7), bit(8), bit(9), one, zero].into_iter().collect();
    let rd_full = h.slice(7, 12);
    let rs2_full = h.slice(2, 7);
    let x0 = b.constant(0, 5);
    let x1 = b.constant(1, 5);
    let x2 = b.constant(2, 5);

    // Common immediates.
    // CI-type imm6: {h[12], h[6:2]} sign-extended to 12.
    let imm6: Word = [bit(2), bit(3), bit(4), bit(5), bit(6), bit(12)]
        .into_iter()
        .collect();
    let imm6_s12 = b.extend(&imm6, 12, true);

    // CL/CS word offset: {h[5], h[12:10], h[6], 2'b00} -> uimm7.
    let immw: Word = [zero, zero, bit(6), bit(10), bit(11), bit(12), bit(5)]
        .into_iter()
        .collect();
    let immw12 = b.extend(&immw, 12, false);

    // C.ADDI16SP imm: {h[12], h[4:3], h[5], h[2], h[6], 4'b0000} signed 10.
    let imm16sp: Word = [
        zero,
        zero,
        zero,
        zero,
        bit(6),
        bit(2),
        bit(5),
        bit(3),
        bit(4),
        bit(12),
    ]
    .into_iter()
    .collect();
    let imm16sp12 = b.extend(&imm16sp, 12, true);

    // C.ADDI4SPN imm: {h[10:7], h[12:11], h[5], h[6], 2'b00} unsigned 10.
    let imm4spn: Word = [
        zero,
        zero,
        bit(6),
        bit(5),
        bit(11),
        bit(12),
        bit(7),
        bit(8),
        bit(9),
        bit(10),
    ]
    .into_iter()
    .collect();
    let imm4spn12 = b.extend(&imm4spn, 12, false);

    // LWSP offset: {h[3:2], h[12], h[6:4], 2'b00} unsigned 8.
    let immlwsp: Word = [zero, zero, bit(4), bit(5), bit(6), bit(12), bit(2), bit(3)]
        .into_iter()
        .collect();
    let immlwsp12 = b.extend(&immlwsp, 12, false);

    // SWSP offset: {h[8:7], h[12:9], 2'b00} unsigned 8.
    let immswsp: Word = [
        zero,
        zero,
        bit(9),
        bit(10),
        bit(11),
        bit(12),
        bit(7),
        bit(8),
    ]
    .into_iter()
    .collect();
    let immswsp12 = b.extend(&immswsp, 12, false);

    // CJ offset (12-bit signed): {h[12], h[8], h[10:9], h[6], h[7], h[2],
    // h[11], h[5:3], 0}.
    let cj: Word = [
        zero,
        bit(3),
        bit(4),
        bit(5),
        bit(11),
        bit(2),
        bit(7),
        bit(6),
        bit(9),
        bit(10),
        bit(8),
        bit(12),
    ]
    .into_iter()
    .collect();

    // CB offset (9-bit signed): {h[12], h[6:5], h[2], h[11:10], h[4:3], 0}.
    let cb: Word = [
        zero,
        bit(3),
        bit(4),
        bit(10),
        bit(11),
        bit(2),
        bit(5),
        bit(6),
        bit(12),
    ]
    .into_iter()
    .collect();

    // Shift amount: {h[12], h[6:2]}.
    let shamt: Word = [bit(2), bit(3), bit(4), bit(5), bit(6)]
        .into_iter()
        .collect();

    // Builders for each 32-bit format.
    let opcode = |b: &mut RtlBuilder, v: u64| b.constant(v, 7);
    let f3 = |b: &mut RtlBuilder, v: u64| b.constant(v, 3);

    // Compose candidate expansions.
    let op_imm = opcode(b, 0x13);
    let op_load = opcode(b, 0x03);
    let op_store = opcode(b, 0x23);
    let op_lui = opcode(b, 0x37);
    let op_op = opcode(b, 0x33);
    let op_jal = opcode(b, 0x6F);
    let op_jalr = opcode(b, 0x67);
    let op_branch = opcode(b, 0x63);

    let f000 = f3(b, 0);
    let f001 = f3(b, 1);
    let f010 = f3(b, 2);
    let f100 = f3(b, 4);
    let f101 = f3(b, 5);
    let f110 = f3(b, 6);
    let f111 = f3(b, 7);

    let rd5 = &rd_full;
    let rs25 = &rs2_full;

    // addi rd, rd, imm6  (C.ADDI) — also C.NOP.
    let e_caddi = op_imm
        .concat(rd5)
        .concat(&f000)
        .concat(rd5)
        .concat(&imm6_s12);
    // addi rd, x0, imm6 (C.LI)
    let e_cli = op_imm
        .concat(rd5)
        .concat(&f000)
        .concat(&x0)
        .concat(&imm6_s12);
    // addi x2, x2, imm16sp (C.ADDI16SP)
    let e_c16sp = op_imm
        .concat(&x2)
        .concat(&f000)
        .concat(&x2)
        .concat(&imm16sp12);
    // lui rd, imm (C.LUI): imm6 sign-extended into the 20-bit U field.
    let u20 = b.extend(&imm6, 20, true);
    let e_clui = op_lui.concat(rd5).concat(&u20);
    // addi rd', x2, imm4spn (C.ADDI4SPN)
    let e_c4spn = op_imm
        .concat(&rdp)
        .concat(&f000)
        .concat(&x2)
        .concat(&imm4spn12);
    // lw rd', imm(rs1') (C.LW)
    let e_clw = op_load
        .concat(&rdp)
        .concat(&f010)
        .concat(&rs1p)
        .concat(&immw12);
    // sw rs2', imm(rs1') (C.SW): S-type split imm.
    let e_csw = {
        let lo5 = immw12.slice(0, 5);
        let hi7 = immw12.slice(5, 12);
        op_store
            .concat(&lo5)
            .concat(&f010)
            .concat(&rs1p)
            .concat(&rdp)
            .concat(&hi7)
    };
    // lw rd, imm(sp) (C.LWSP)
    let e_clwsp = op_load
        .concat(rd5)
        .concat(&f010)
        .concat(&x2)
        .concat(&immlwsp12);
    // sw rs2, imm(sp) (C.SWSP)
    let e_cswsp = {
        let lo5 = immswsp12.slice(0, 5);
        let hi7 = immswsp12.slice(5, 12);
        op_store
            .concat(&lo5)
            .concat(&f010)
            .concat(&x2)
            .concat(rs25)
            .concat(&hi7)
    };
    // jal x1/x0, cj (C.JAL / C.J): J-type bit scramble.
    let jfmt = |b: &mut RtlBuilder, link: &Word| -> Word {
        let cj20 = b.extend(&cj, 21, true);
        // imm[19:12] | imm[11] | imm[10:1] | imm[20] above rd+opcode.
        let bits_19_12 = cj20.slice(12, 20);
        let bit_11 = cj20.slice(11, 12);
        let bits_10_1 = cj20.slice(1, 11);
        let bit_20 = cj20.slice(20, 21);
        op_jal
            .concat(link)
            .concat(&bits_19_12)
            .concat(&bit_11)
            .concat(&bits_10_1)
            .concat(&bit_20)
    };
    let e_cjal = jfmt(b, &x1);
    let e_cj = jfmt(b, &x0);
    // beq/bne rs1', x0, cb (C.BEQZ / C.BNEZ): B-type scramble.
    let bfmt = |b: &mut RtlBuilder, funct3: &Word| -> Word {
        let cb13 = b.extend(&cb, 13, true);
        let bit_11 = cb13.slice(11, 12);
        let bits_4_1 = cb13.slice(1, 5);
        let bits_10_5 = cb13.slice(5, 11);
        let bit_12 = cb13.slice(12, 13);
        op_branch
            .concat(&bit_11)
            .concat(&bits_4_1)
            .concat(funct3)
            .concat(&rs1p)
            .concat(&x0)
            .concat(&bits_10_5)
            .concat(&bit_12)
    };
    let e_cbeqz = bfmt(b, &f000);
    let e_cbnez = bfmt(b, &f001);
    // slli rd, rd, shamt (C.SLLI)
    let sh12 = b.extend(&shamt, 12, false);
    let e_cslli = op_imm.concat(rd5).concat(&f001).concat(rd5).concat(&sh12);
    // srli/srai rd', rd', shamt — funct7 = 0000000 / 0100000.
    let sh_srl = b.extend(&shamt, 12, false);
    let e_csrli = op_imm
        .concat(&rs1p)
        .concat(&f101)
        .concat(&rs1p)
        .concat(&sh_srl);
    let sra_hi = b.constant(0x400, 12); // bit 10 of imm = funct7[5]
    let sh_sra = b.or_word(&sh_srl, &sra_hi);
    let e_csrai = op_imm
        .concat(&rs1p)
        .concat(&f101)
        .concat(&rs1p)
        .concat(&sh_sra);
    // andi rd', rd', imm6 (C.ANDI)
    let e_candi = op_imm
        .concat(&rs1p)
        .concat(&f111)
        .concat(&rs1p)
        .concat(&imm6_s12);
    // R-type ops: funct7 rs2 rs1 f3 rd opcode.
    let rtype = |b: &mut RtlBuilder,
                 f7: u64,
                 rs2w: &Word,
                 rs1w: &Word,
                 funct3: &Word,
                 rdw: &Word|
     -> Word {
        let f7w = b.constant(f7, 7);
        op_op
            .concat(rdw)
            .concat(funct3)
            .concat(rs1w)
            .concat(rs2w)
            .concat(&f7w)
    };
    let e_csub = rtype(b, 0x20, &rdp, &rs1p, &f000, &rs1p);
    let e_cxor = rtype(b, 0x00, &rdp, &rs1p, &f100, &rs1p);
    let e_cor = rtype(b, 0x00, &rdp, &rs1p, &f110, &rs1p);
    let e_cand = rtype(b, 0x00, &rdp, &rs1p, &f111, &rs1p);
    // C.MV: add rd, x0, rs2 ; C.JR: jalr x0, rs1, 0
    let e_cmv = rtype(b, 0x00, rs25, &x0, &f000, rd5);
    let zero12 = b.constant(0, 12);
    let e_cjr = op_jalr
        .concat(&x0)
        .concat(&f000)
        .concat(rd5)
        .concat(&zero12);
    // C.ADD: add rd, rd, rs2 ; C.JALR: jalr x1, rs1, 0 ; C.EBREAK.
    let e_cadd = rtype(b, 0x00, rs25, rd5, &f000, rd5);
    let e_cjalr = op_jalr
        .concat(&x1)
        .concat(&f000)
        .concat(rd5)
        .concat(&zero12);
    let e_ebreak = b.constant(0x0010_0073, 32);

    // --- selection logic ---
    let q = h.slice(0, 2);
    let funct3 = h.slice(13, 16);
    let q0 = b.match_pattern(&q, 0b11, 0b00);
    let q1 = b.match_pattern(&q, 0b11, 0b01);
    let q2 = b.match_pattern(&q, 0b11, 0b10);
    let f_is = |b: &mut RtlBuilder, v: u64| b.match_pattern(&funct3, 0b111, v);
    let f0 = f_is(b, 0);
    let f1 = f_is(b, 1);
    let f2 = f_is(b, 2);
    let f3s = f_is(b, 3);
    let f4 = f_is(b, 4);
    let f5 = f_is(b, 5);
    let f6 = f_is(b, 6);
    let f7 = f_is(b, 7);

    let rd_is_x2 = b.match_pattern(&rd_full, 0x1F, 2);
    let rs2_is_x0 = b.match_pattern(&rs2_full, 0x1F, 0);
    let rd_is_x0 = b.match_pattern(&rd_full, 0x1F, 0);
    let bit12 = bit(12);
    let nbit12 = b.not(bit12);

    // Quadrant 1, funct3=100 subdecode.
    let sub11_10 = h.slice(10, 12);
    let s00 = b.match_pattern(&sub11_10, 0b11, 0b00);
    let s01 = b.match_pattern(&sub11_10, 0b11, 0b01);
    let s10 = b.match_pattern(&sub11_10, 0b11, 0b10);
    let s11 = b.match_pattern(&sub11_10, 0b11, 0b11);
    let sub6_5 = h.slice(5, 7);
    let t00 = b.match_pattern(&sub6_5, 0b11, 0b00);
    let t01 = b.match_pattern(&sub6_5, 0b11, 0b01);
    let t10 = b.match_pattern(&sub6_5, 0b11, 0b10);

    // Priority mux chain: start from an illegal default (all zeros) and
    // overlay each case.
    let mut out = b.constant(0, 32);
    let mut any = b.zero();
    let overlay = |b: &mut RtlBuilder, sel: NetId, val: &Word, out: &mut Word, any: &mut NetId| {
        *out = b.mux_word(sel, val, out);
        *any = b.or2(*any, sel);
    };

    // Quadrant 0. C.ADDI4SPN with zero immediate is reserved (covers the
    // all-zero illegal halfword).
    let imm4spn_bits: Vec<_> = (5..13).map(|i| h.bit(i)).collect();
    let imm4spn_nz = b.or_many(&imm4spn_bits);
    let c4spn = {
        let x = b.and2(q0, f0);
        b.and2(x, imm4spn_nz)
    };
    overlay(b, c4spn, &e_c4spn, &mut out, &mut any);
    let clw = b.and2(q0, f2);
    overlay(b, clw, &e_clw, &mut out, &mut any);
    let csw = b.and2(q0, f6);
    overlay(b, csw, &e_csw, &mut out, &mut any);

    // Quadrant 1.
    let caddi = b.and2(q1, f0);
    overlay(b, caddi, &e_caddi, &mut out, &mut any);
    let cjal = b.and2(q1, f1);
    overlay(b, cjal, &e_cjal, &mut out, &mut any);
    let cli = b.and2(q1, f2);
    overlay(b, cli, &e_cli, &mut out, &mut any);
    let q1f3 = b.and2(q1, f3s);
    let c16sp = b.and2(q1f3, rd_is_x2);
    overlay(b, c16sp, &e_c16sp, &mut out, &mut any);
    let nrd2 = b.not(rd_is_x2);
    let clui = b.and2(q1f3, nrd2);
    overlay(b, clui, &e_clui, &mut out, &mut any);
    let q1f4 = b.and2(q1, f4);
    let csrli = b.and2(q1f4, s00);
    overlay(b, csrli, &e_csrli, &mut out, &mut any);
    let csrai = b.and2(q1f4, s01);
    overlay(b, csrai, &e_csrai, &mut out, &mut any);
    let candi = b.and2(q1f4, s10);
    overlay(b, candi, &e_candi, &mut out, &mut any);
    let q1f4s11 = {
        let x = b.and2(q1f4, s11);
        b.and2(x, nbit12)
    };
    let csub = b.and2(q1f4s11, t00);
    overlay(b, csub, &e_csub, &mut out, &mut any);
    let cxor = b.and2(q1f4s11, t01);
    overlay(b, cxor, &e_cxor, &mut out, &mut any);
    let cor = b.and2(q1f4s11, t10);
    overlay(b, cor, &e_cor, &mut out, &mut any);
    let t11 = {
        let a = b.or2(t00, t01);
        let c = b.or2(a, t10);
        b.not(c)
    };
    let cand = b.and2(q1f4s11, t11);
    overlay(b, cand, &e_cand, &mut out, &mut any);
    let cj = b.and2(q1, f5);
    overlay(b, cj, &e_cj, &mut out, &mut any);
    let cbeqz = b.and2(q1, f6);
    overlay(b, cbeqz, &e_cbeqz, &mut out, &mut any);
    let cbnez = b.and2(q1, f7);
    overlay(b, cbnez, &e_cbnez, &mut out, &mut any);

    // Quadrant 2.
    let cslli = b.and2(q2, f0);
    overlay(b, cslli, &e_cslli, &mut out, &mut any);
    let clwsp = {
        let x = b.and2(q2, f2);
        let nrd0 = b.not(rd_is_x0);
        b.and2(x, nrd0)
    };
    overlay(b, clwsp, &e_clwsp, &mut out, &mut any);
    let cswsp = b.and2(q2, f6);
    overlay(b, cswsp, &e_cswsp, &mut out, &mut any);
    let q2f4 = b.and2(q2, f4);
    let nrd0 = b.not(rd_is_x0);
    let nrs20 = b.not(rs2_is_x0);
    // bit12=0: MV / JR.
    let g0 = b.and2(q2f4, nbit12);
    let cjr = {
        let x = b.and2(g0, nrd0);
        b.and2(x, rs2_is_x0)
    };
    overlay(b, cjr, &e_cjr, &mut out, &mut any);
    let cmv = {
        let x = b.and2(g0, nrd0);
        b.and2(x, nrs20)
    };
    overlay(b, cmv, &e_cmv, &mut out, &mut any);
    // bit12=1: EBREAK / JALR / ADD.
    let g1 = b.and2(q2f4, bit12);
    let cebreak = {
        let x = b.and2(g1, rd_is_x0);
        b.and2(x, rs2_is_x0)
    };
    overlay(b, cebreak, &e_ebreak, &mut out, &mut any);
    let cjalr = {
        let x = b.and2(g1, nrd0);
        b.and2(x, rs2_is_x0)
    };
    overlay(b, cjalr, &e_cjalr, &mut out, &mut any);
    let caddh = {
        let x = b.and2(g1, nrd0);
        b.and2(x, nrs20)
    };
    overlay(b, caddh, &e_cadd, &mut out, &mut any);

    let illegal = b.not(any);
    (out, illegal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_isa::rv32::{encode as e, expand_compressed};
    use pdat_netlist::Simulator;

    fn run_expander(half: u16) -> (u32, bool, bool) {
        let mut b = RtlBuilder::new("exp");
        let fetch = b.input_word("fetch", 32);
        let (out, is_c, illegal) = build_expander(&mut b, &fetch);
        b.output_word("out", &out);
        b.output_bit("is_c", is_c);
        b.output_bit("illegal", illegal);
        let nl = b.finish();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl);
        let assigns: Vec<_> = fetch
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &bt)| (bt, (half as u32) >> i & 1 == 1))
            .collect();
        sim.set_inputs(&assigns);
        let mut v = 0u32;
        for (i, &bt) in out.bits().iter().enumerate() {
            if sim.value(bt) {
                v |= 1 << i;
            }
        }
        (v, sim.value(is_c), sim.value(illegal))
    }

    #[test]
    fn matches_software_expander_on_catalog() {
        let halves: Vec<u16> = vec![
            e::c_addi(5, -3),
            e::c_addi(1, 31),
            e::c_li(10, 7),
            e::c_li(3, -32),
            e::c_mv(3, 4),
            e::c_add(3, 4),
            e::c_slli(3, 4),
            e::c_srli(9, 2),
            e::c_srai(9, 31),
            e::c_andi(9, -1),
            e::c_sub(8, 9),
            e::c_xor(8, 9),
            e::c_or(8, 9),
            e::c_and(8, 9),
            e::c_lw(8, 9, 4),
            e::c_lw(15, 10, 124),
            e::c_sw(8, 9, 64),
            e::c_lwsp(1, 8),
            e::c_lwsp(31, 252),
            e::c_swsp(1, 12),
            e::c_swsp(15, 248),
            e::c_lui(3, 1),
            e::c_lui(4, -1),
            e::c_addi16sp(-16),
            e::c_addi16sp(496),
            e::c_addi4spn(8, 4),
            e::c_addi4spn(15, 1020),
            e::c_j(-4),
            e::c_j(2046),
            e::c_jal(100),
            e::c_jal(-2048),
            e::c_beqz(8, 6),
            e::c_beqz(14, -256),
            e::c_bnez(8, -6),
        ];
        for h in halves {
            let sw = expand_compressed(h);
            let (hw, is_c, illegal) = run_expander(h);
            assert!(is_c, "{h:#06x} should be compressed");
            match sw {
                Some(expect) => {
                    assert!(!illegal, "{h:#06x} flagged illegal");
                    assert_eq!(hw, expect, "{h:#06x}: hw {hw:#010x} != sw {expect:#010x}");
                }
                None => assert!(illegal, "{h:#06x} should be illegal"),
            }
        }
    }

    #[test]
    fn passthrough_for_32bit_words() {
        let mut b = RtlBuilder::new("exp");
        let fetch = b.input_word("fetch", 32);
        let (out, is_c, _il) = build_expander(&mut b, &fetch);
        b.output_word("out", &out);
        b.output_bit("is_c", is_c);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl);
        let word = e::add(1, 2, 3);
        let assigns: Vec<_> = fetch
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &bt)| (bt, word >> i & 1 == 1))
            .collect();
        sim.set_inputs(&assigns);
        assert!(!sim.value(is_c));
        let mut v = 0u32;
        for (i, &bt) in out.bits().iter().enumerate() {
            if sim.value(bt) {
                v |= 1 << i;
            }
        }
        assert_eq!(v, word);
    }

    #[test]
    fn jr_and_ebreak_subencodings() {
        // c.jr x5 = 0x8282 ; c.jalr x5 = 0x9282 ; c.ebreak = 0x9002.
        let (w, _, il) = run_expander(0x8282);
        assert!(!il);
        assert_eq!(w, e::jalr(0, 5, 0));
        let (w, _, il) = run_expander(0x9282);
        assert!(!il);
        assert_eq!(w, e::jalr(1, 5, 0));
        let (w, _, il) = run_expander(0x9002);
        assert!(!il);
        assert_eq!(w, e::ebreak());
    }

    #[test]
    fn illegal_zero_halfword() {
        let (_, is_c, illegal) = run_expander(0x0000);
        assert!(is_c);
        assert!(illegal);
    }
}
