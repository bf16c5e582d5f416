//! Operand-level encoders for RV32IMC instructions.
//!
//! Register arguments are architectural register numbers 0..=31 (0..=7 map
//! to x8..x15 for the compressed prime-register forms, passed as the full
//! number). All encoders debug-assert operand ranges.

/// R-type encoder.
fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    debug_assert!(rd < 32 && rs1 < 32 && rs2 < 32);
    funct7 << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | opcode
}

/// I-type encoder (12-bit signed immediate).
fn i_type(imm: i32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-imm out of range: {imm}");
    debug_assert!(rd < 32 && rs1 < 32);
    ((imm as u32) & 0xFFF) << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | opcode
}

/// S-type encoder.
fn s_type(imm: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-imm out of range: {imm}");
    let u = imm as u32 & 0xFFF;
    (u >> 5) << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | (u & 0x1F) << 7 | opcode
}

/// B-type encoder (byte offset, must be even, ±4 KiB).
fn b_type(off: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    debug_assert!(off % 2 == 0 && (-4096..=4094).contains(&off), "B-off {off}");
    let u = off as u32;
    (u >> 12 & 1) << 31
        | (u >> 5 & 0x3F) << 25
        | rs2 << 20
        | rs1 << 15
        | funct3 << 12
        | (u >> 1 & 0xF) << 8
        | (u >> 11 & 1) << 7
        | opcode
}

/// U-type encoder; `imm` is the value for bits 31:12.
fn u_type(imm20: u32, rd: u32, opcode: u32) -> u32 {
    debug_assert!(imm20 < (1 << 20));
    imm20 << 12 | rd << 7 | opcode
}

/// J-type encoder (byte offset, must be even, ±1 MiB).
fn j_type(off: i32, rd: u32, opcode: u32) -> u32 {
    debug_assert!(
        off % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&off),
        "J-off {off}"
    );
    let u = off as u32;
    (u >> 20 & 1) << 31
        | (u >> 1 & 0x3FF) << 21
        | (u >> 11 & 1) << 20
        | (u >> 12 & 0xFF) << 12
        | rd << 7
        | opcode
}

macro_rules! doc_enc {
    ($(#[$m:meta])* $name:ident, $($arg:ident : $t:ty),* => $body:expr) => {
        $(#[$m])*
        pub fn $name($($arg: $t),*) -> u32 { $body }
    };
}

doc_enc!(/// `lui rd, imm20` (imm20 goes to bits 31:12).
    lui, rd: u32, imm20: u32 => u_type(imm20, rd, 0x37));
doc_enc!(/// `auipc rd, imm20`.
    auipc, rd: u32, imm20: u32 => u_type(imm20, rd, 0x17));
doc_enc!(/// `jal rd, byte_offset`.
    jal, rd: u32, off: i32 => j_type(off, rd, 0x6F));
doc_enc!(/// `jalr rd, rs1, imm`.
    jalr, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 0, rd, 0x67));
doc_enc!(/// `beq rs1, rs2, byte_offset`.
    beq, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 0, 0x63));
doc_enc!(/// `bne rs1, rs2, byte_offset`.
    bne, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 1, 0x63));
doc_enc!(/// `blt rs1, rs2, byte_offset`.
    blt, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 4, 0x63));
doc_enc!(/// `bge rs1, rs2, byte_offset`.
    bge, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 5, 0x63));
doc_enc!(/// `bltu rs1, rs2, byte_offset`.
    bltu, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 6, 0x63));
doc_enc!(/// `bgeu rs1, rs2, byte_offset`.
    bgeu, rs1: u32, rs2: u32, off: i32 => b_type(off, rs2, rs1, 7, 0x63));
doc_enc!(/// `lb rd, imm(rs1)`.
    lb, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 0, rd, 0x03));
doc_enc!(/// `lh rd, imm(rs1)`.
    lh, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 1, rd, 0x03));
doc_enc!(/// `lw rd, imm(rs1)`.
    lw, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 2, rd, 0x03));
doc_enc!(/// `lbu rd, imm(rs1)`.
    lbu, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 4, rd, 0x03));
doc_enc!(/// `lhu rd, imm(rs1)`.
    lhu, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 5, rd, 0x03));
doc_enc!(/// `sb rs2, imm(rs1)`.
    sb, rs2: u32, rs1: u32, imm: i32 => s_type(imm, rs2, rs1, 0, 0x23));
doc_enc!(/// `sh rs2, imm(rs1)`.
    sh, rs2: u32, rs1: u32, imm: i32 => s_type(imm, rs2, rs1, 1, 0x23));
doc_enc!(/// `sw rs2, imm(rs1)`.
    sw, rs2: u32, rs1: u32, imm: i32 => s_type(imm, rs2, rs1, 2, 0x23));
doc_enc!(/// `addi rd, rs1, imm`.
    addi, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 0, rd, 0x13));
doc_enc!(/// `slti rd, rs1, imm`.
    slti, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 2, rd, 0x13));
doc_enc!(/// `sltiu rd, rs1, imm`.
    sltiu, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 3, rd, 0x13));
doc_enc!(/// `xori rd, rs1, imm`.
    xori, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 4, rd, 0x13));
doc_enc!(/// `ori rd, rs1, imm`.
    ori, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 6, rd, 0x13));
doc_enc!(/// `andi rd, rs1, imm`.
    andi, rd: u32, rs1: u32, imm: i32 => i_type(imm, rs1, 7, rd, 0x13));
doc_enc!(/// `slli rd, rs1, shamt`.
slli, rd: u32, rs1: u32, shamt: u32 => {
    debug_assert!(shamt < 32);
    r_type(0, shamt, rs1, 1, rd, 0x13)
});
doc_enc!(/// `srli rd, rs1, shamt`.
srli, rd: u32, rs1: u32, shamt: u32 => {
    debug_assert!(shamt < 32);
    r_type(0, shamt, rs1, 5, rd, 0x13)
});
doc_enc!(/// `srai rd, rs1, shamt`.
srai, rd: u32, rs1: u32, shamt: u32 => {
    debug_assert!(shamt < 32);
    r_type(0x20, shamt, rs1, 5, rd, 0x13)
});
doc_enc!(/// `add rd, rs1, rs2`.
    add, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 0, rd, 0x33));
doc_enc!(/// `sub rd, rs1, rs2`.
    sub, rd: u32, rs1: u32, rs2: u32 => r_type(0x20, rs2, rs1, 0, rd, 0x33));
doc_enc!(/// `sll rd, rs1, rs2`.
    sll, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 1, rd, 0x33));
doc_enc!(/// `slt rd, rs1, rs2`.
    slt, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 2, rd, 0x33));
doc_enc!(/// `sltu rd, rs1, rs2`.
    sltu, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 3, rd, 0x33));
doc_enc!(/// `xor rd, rs1, rs2`.
    xor, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 4, rd, 0x33));
doc_enc!(/// `srl rd, rs1, rs2`.
    srl, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 5, rd, 0x33));
doc_enc!(/// `sra rd, rs1, rs2`.
    sra, rd: u32, rs1: u32, rs2: u32 => r_type(0x20, rs2, rs1, 5, rd, 0x33));
doc_enc!(/// `or rd, rs1, rs2`.
    or, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 6, rd, 0x33));
doc_enc!(/// `and rd, rs1, rs2`.
    and, rd: u32, rs1: u32, rs2: u32 => r_type(0, rs2, rs1, 7, rd, 0x33));
doc_enc!(/// `mul rd, rs1, rs2`.
    mul, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 0, rd, 0x33));
doc_enc!(/// `mulh rd, rs1, rs2`.
    mulh, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 1, rd, 0x33));
doc_enc!(/// `mulhsu rd, rs1, rs2`.
    mulhsu, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 2, rd, 0x33));
doc_enc!(/// `mulhu rd, rs1, rs2`.
    mulhu, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 3, rd, 0x33));
doc_enc!(/// `div rd, rs1, rs2`.
    div, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 4, rd, 0x33));
doc_enc!(/// `divu rd, rs1, rs2`.
    divu, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 5, rd, 0x33));
doc_enc!(/// `rem rd, rs1, rs2`.
    rem, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 6, rd, 0x33));
doc_enc!(/// `remu rd, rs1, rs2`.
    remu, rd: u32, rs1: u32, rs2: u32 => r_type(1, rs2, rs1, 7, rd, 0x33));
doc_enc!(/// `fence` (iorw, iorw).
    fence, => 0x0FF0_000F);
doc_enc!(/// `fence.i`.
    fence_i, => 0x0000_100F);
doc_enc!(/// `ecall`.
    ecall, => 0x0000_0073);
doc_enc!(/// `ebreak`.
    ebreak, => 0x0010_0073);
doc_enc!(/// `csrrw rd, csr, rs1`.
csrrw, rd: u32, csr: u32, rs1: u32 => {
    debug_assert!(csr < 4096);
    csr << 20 | rs1 << 15 | 1 << 12 | rd << 7 | 0x73
});
doc_enc!(/// `csrrs rd, csr, rs1`.
csrrs, rd: u32, csr: u32, rs1: u32 => {
    debug_assert!(csr < 4096);
    csr << 20 | rs1 << 15 | 2 << 12 | rd << 7 | 0x73
});
doc_enc!(/// `csrrc rd, csr, rs1`.
csrrc, rd: u32, csr: u32, rs1: u32 => {
    debug_assert!(csr < 4096);
    csr << 20 | rs1 << 15 | 3 << 12 | rd << 7 | 0x73
});
doc_enc!(/// `csrrwi rd, csr, uimm5`.
csrrwi, rd: u32, csr: u32, uimm: u32 => {
    debug_assert!(csr < 4096 && uimm < 32);
    csr << 20 | uimm << 15 | 5 << 12 | rd << 7 | 0x73
});

// --- Compressed encoders (return the 16-bit halfword) ---

fn creg(r: u32) -> u16 {
    debug_assert!(
        (8..16).contains(&r),
        "compressed reg must be x8..x15, got x{r}"
    );
    (r - 8) as u16
}

/// `c.addi rd, imm6` (rd unchanged, imm sign-extended 6-bit, nonzero).
pub fn c_addi(rd: u32, imm: i32) -> u16 {
    debug_assert!((-32..=31).contains(&imm) && rd < 32);
    let u = imm as u16;
    0x0001 | (u >> 5 & 1) << 12 | (rd as u16) << 7 | (u & 0x1F) << 2
}

/// `c.li rd, imm6`.
pub fn c_li(rd: u32, imm: i32) -> u16 {
    debug_assert!((-32..=31).contains(&imm) && rd < 32);
    let u = imm as u16;
    0x4001 | (u >> 5 & 1) << 12 | (rd as u16) << 7 | (u & 0x1F) << 2
}

/// `c.mv rd, rs2` (rs2 != 0).
pub fn c_mv(rd: u32, rs2: u32) -> u16 {
    debug_assert!(rd < 32 && rs2 != 0 && rs2 < 32);
    0x8002 | (rd as u16) << 7 | (rs2 as u16) << 2
}

/// `c.add rd, rs2` (rd = rd + rs2, rs2 != 0).
pub fn c_add(rd: u32, rs2: u32) -> u16 {
    debug_assert!(rd != 0 && rd < 32 && rs2 != 0 && rs2 < 32);
    0x9002 | (rd as u16) << 7 | (rs2 as u16) << 2
}

/// `c.slli rd, shamt` (shamt 1..=31).
pub fn c_slli(rd: u32, shamt: u32) -> u16 {
    debug_assert!(rd != 0 && rd < 32 && shamt > 0 && shamt < 32);
    0x0002 | (rd as u16) << 7 | (shamt as u16 & 0x1F) << 2
}

/// `c.srli rd', shamt`.
pub fn c_srli(rd: u32, shamt: u32) -> u16 {
    debug_assert!(shamt > 0 && shamt < 32);
    0x8001 | creg(rd) << 7 | (shamt as u16 & 0x1F) << 2
}

/// `c.srai rd', shamt`.
pub fn c_srai(rd: u32, shamt: u32) -> u16 {
    debug_assert!(shamt > 0 && shamt < 32);
    0x8401 | creg(rd) << 7 | (shamt as u16 & 0x1F) << 2
}

/// `c.andi rd', imm6`.
pub fn c_andi(rd: u32, imm: i32) -> u16 {
    debug_assert!((-32..=31).contains(&imm));
    let u = imm as u16;
    0x8801 | (u >> 5 & 1) << 12 | creg(rd) << 7 | (u & 0x1F) << 2
}

/// `c.sub rd', rs2'`.
pub fn c_sub(rd: u32, rs2: u32) -> u16 {
    0x8C01 | creg(rd) << 7 | creg(rs2) << 2
}

/// `c.xor rd', rs2'`.
pub fn c_xor(rd: u32, rs2: u32) -> u16 {
    0x8C21 | creg(rd) << 7 | creg(rs2) << 2
}

/// `c.or rd', rs2'`.
pub fn c_or(rd: u32, rs2: u32) -> u16 {
    0x8C41 | creg(rd) << 7 | creg(rs2) << 2
}

/// `c.and rd', rs2'`.
pub fn c_and(rd: u32, rs2: u32) -> u16 {
    0x8C61 | creg(rd) << 7 | creg(rs2) << 2
}

/// `c.lw rd', uimm(rs1')` (uimm word-aligned, 0..=124).
pub fn c_lw(rd: u32, rs1: u32, uimm: u32) -> u16 {
    debug_assert!(uimm.is_multiple_of(4) && uimm < 128);
    let u = uimm as u16;
    0x4000
        | (u >> 3 & 0x7) << 10
        | creg(rs1) << 7
        | (u >> 2 & 1) << 6
        | (u >> 6 & 1) << 5
        | creg(rd) << 2
}

/// `c.sw rs2', uimm(rs1')`.
pub fn c_sw(rs2: u32, rs1: u32, uimm: u32) -> u16 {
    debug_assert!(uimm.is_multiple_of(4) && uimm < 128);
    let u = uimm as u16;
    0xC000
        | (u >> 3 & 0x7) << 10
        | creg(rs1) << 7
        | (u >> 2 & 1) << 6
        | (u >> 6 & 1) << 5
        | creg(rs2) << 2
}

/// `c.lwsp rd, uimm(sp)` (rd != 0, uimm word-aligned < 256).
pub fn c_lwsp(rd: u32, uimm: u32) -> u16 {
    debug_assert!(rd != 0 && rd < 32 && uimm.is_multiple_of(4) && uimm < 256);
    let u = uimm as u16;
    0x4002 | (u >> 5 & 1) << 12 | (rd as u16) << 7 | (u >> 2 & 0x7) << 4 | (u >> 6 & 0x3) << 2
}

/// `c.swsp rs2, uimm(sp)`.
pub fn c_swsp(rs2: u32, uimm: u32) -> u16 {
    debug_assert!(rs2 < 32 && uimm.is_multiple_of(4) && uimm < 256);
    let u = uimm as u16;
    0xC002 | (u >> 2 & 0xF) << 9 | (u >> 6 & 0x3) << 7 | (rs2 as u16) << 2
}

/// `c.lui rd, imm6` (rd != 0,2; imm6 != 0 — value for bits 17:12).
pub fn c_lui(rd: u32, imm6: i32) -> u16 {
    debug_assert!(rd != 0 && rd != 2 && rd < 32 && imm6 != 0 && (-32..=31).contains(&imm6));
    let u = imm6 as u16;
    0x6001 | (u >> 5 & 1) << 12 | (rd as u16) << 7 | (u & 0x1F) << 2
}

/// `c.addi16sp imm` (imm multiple of 16, nonzero, ±512).
pub fn c_addi16sp(imm: i32) -> u16 {
    debug_assert!(imm != 0 && imm % 16 == 0 && (-512..=496).contains(&imm));
    let u = imm as u16;
    0x6101
        | (u >> 9 & 1) << 12
        | (u >> 4 & 1) << 6
        | (u >> 6 & 1) << 5
        | (u >> 7 & 0x3) << 3
        | (u >> 5 & 1) << 2
}

/// `c.addi4spn rd', nzuimm` (nzuimm multiple of 4, 4..=1020).
pub fn c_addi4spn(rd: u32, uimm: u32) -> u16 {
    debug_assert!(uimm != 0 && uimm.is_multiple_of(4) && uimm < 1024);
    let u = uimm as u16;
    (u >> 4 & 0x3) << 11
        | (u >> 6 & 0xF) << 7
        | (u >> 2 & 1) << 6
        | (u >> 3 & 1) << 5
        | creg(rd) << 2
}

/// `c.j byte_offset` (±2 KiB, even).
pub fn c_j(off: i32) -> u16 {
    0xA001 | cj_imm(off)
}

/// `c.jal byte_offset` (±2 KiB, even) — links to x1.
pub fn c_jal(off: i32) -> u16 {
    0x2001 | cj_imm(off)
}

fn cj_imm(off: i32) -> u16 {
    debug_assert!(
        off % 2 == 0 && (-2048..=2046).contains(&off),
        "CJ-off {off}"
    );
    let u = off as u16;
    (u >> 11 & 1) << 12
        | (u >> 4 & 1) << 11
        | (u >> 8 & 0x3) << 9
        | (u >> 10 & 1) << 8
        | (u >> 6 & 1) << 7
        | (u >> 7 & 1) << 6
        | (u >> 1 & 0x7) << 3
        | (u >> 5 & 1) << 2
}

/// `c.beqz rs1', byte_offset` (±256 B, even).
pub fn c_beqz(rs1: u32, off: i32) -> u16 {
    0xC001 | creg(rs1) << 7 | cb_imm(off)
}

/// `c.bnez rs1', byte_offset`.
pub fn c_bnez(rs1: u32, off: i32) -> u16 {
    0xE001 | creg(rs1) << 7 | cb_imm(off)
}

fn cb_imm(off: i32) -> u16 {
    debug_assert!(off % 2 == 0 && (-256..=254).contains(&off), "CB-off {off}");
    let u = off as u16;
    (u >> 8 & 1) << 12
        | (u >> 3 & 0x3) << 10
        | (u >> 6 & 0x3) << 5
        | (u >> 1 & 0x3) << 3
        | (u >> 5 & 1) << 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv32::RvInstr;

    #[test]
    fn encodings_match_their_patterns() {
        let cases: Vec<(RvInstr, u32)> = vec![
            (RvInstr::Lui, lui(5, 0x12345)),
            (RvInstr::Auipc, auipc(1, 1)),
            (RvInstr::Jal, jal(1, 2048)),
            (RvInstr::Jalr, jalr(0, 1, 0)),
            (RvInstr::Beq, beq(1, 2, -8)),
            (RvInstr::Bgeu, bgeu(3, 4, 16)),
            (RvInstr::Lw, lw(5, 2, 16)),
            (RvInstr::Sb, sb(5, 2, -1)),
            (RvInstr::Addi, addi(1, 1, -5)),
            (RvInstr::Slli, slli(1, 1, 31)),
            (RvInstr::Srai, srai(1, 1, 4)),
            (RvInstr::Add, add(1, 2, 3)),
            (RvInstr::Sub, sub(1, 2, 3)),
            (RvInstr::Mul, mul(1, 2, 3)),
            (RvInstr::Remu, remu(1, 2, 3)),
            (RvInstr::Fence, fence()),
            (RvInstr::FenceI, fence_i()),
            (RvInstr::Ecall, ecall()),
            (RvInstr::Ebreak, ebreak()),
            (RvInstr::Csrrw, csrrw(1, 0x300, 2)),
            (RvInstr::Csrrwi, csrrwi(1, 0x300, 5)),
        ];
        for (instr, word) in cases {
            assert!(
                instr.pattern().matches(word),
                "{instr} encoding {word:#010x} must match its own pattern"
            );
            // And no *earlier-priority* form may steal it.
            for other in RvInstr::ALL {
                if other == instr {
                    break;
                }
                assert!(
                    !other.pattern().matches(word) || other.is_compressed(),
                    "{other} pattern steals {instr} encoding {word:#010x}"
                );
            }
        }
    }

    #[test]
    fn compressed_encodings_match_their_patterns() {
        let cases: Vec<(RvInstr, u16)> = vec![
            (RvInstr::CAddi, c_addi(5, -3)),
            (RvInstr::CLi, c_li(10, 7)),
            (RvInstr::CMv, c_mv(3, 4)),
            (RvInstr::CAdd, c_add(3, 4)),
            (RvInstr::CSlli, c_slli(3, 4)),
            (RvInstr::CSrli, c_srli(9, 2)),
            (RvInstr::CSrai, c_srai(9, 2)),
            (RvInstr::CAndi, c_andi(9, -1)),
            (RvInstr::CSub, c_sub(8, 9)),
            (RvInstr::CXor, c_xor(8, 9)),
            (RvInstr::COr, c_or(8, 9)),
            (RvInstr::CAnd, c_and(8, 9)),
            (RvInstr::CLw, c_lw(8, 9, 4)),
            (RvInstr::CSw, c_sw(8, 9, 64)),
            (RvInstr::CLwsp, c_lwsp(1, 8)),
            (RvInstr::CSwsp, c_swsp(1, 12)),
            (RvInstr::CLui, c_lui(3, 1)),
            (RvInstr::CAddi16sp, c_addi16sp(-16)),
            (RvInstr::CAddi4spn, c_addi4spn(8, 4)),
            (RvInstr::CJ, c_j(-4)),
            (RvInstr::CJal, c_jal(100)),
            (RvInstr::CBeqz, c_beqz(8, 6)),
            (RvInstr::CBnez, c_bnez(8, -6)),
        ];
        for (instr, half) in cases {
            assert!(
                instr.pattern().matches(half as u32),
                "{instr} encoding {half:#06x} must match its own pattern"
            );
        }
    }
}
