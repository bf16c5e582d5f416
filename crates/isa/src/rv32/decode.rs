//! RV32IMC decoding: form identification, field extraction, and compressed
//! expansion.

use crate::rv32::RvInstr;

/// A decoded 32-bit instruction ready for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedRv {
    /// The identified form (always a 32-bit form here; compressed
    /// instructions are expanded first).
    pub instr: RvInstr,
    /// Destination register.
    pub rd: u32,
    /// First source register.
    pub rs1: u32,
    /// Second source register.
    pub rs2: u32,
    /// Sign-extended immediate (meaning depends on the format).
    pub imm: i32,
    /// CSR address for Zicsr forms.
    pub csr: u32,
}

fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// Identify the instruction *form* of a raw fetch word. For halfwords
/// (compressed; low bits != `11`) only bits 15:0 participate.
///
/// Returns `None` for encodings outside the implemented set.
pub fn decode_form(word: u32) -> Option<RvInstr> {
    let compressed = word & 0b11 != 0b11;
    RvInstr::ALL
        .into_iter()
        .find(|&i| i.is_compressed() == compressed && i.pattern().matches(word))
}

/// Fully decode a 32-bit (non-compressed) instruction word.
///
/// Returns `None` if the word does not match any implemented 32-bit form.
pub fn decode(word: u32) -> Option<DecodedRv> {
    let instr = decode_form(word)?;
    if instr.is_compressed() {
        return None;
    }
    let rd = word >> 7 & 0x1F;
    let rs1 = word >> 15 & 0x1F;
    let rs2 = word >> 20 & 0x1F;
    use RvInstr::*;
    let imm = match instr {
        Lui | Auipc => (word & 0xFFFF_F000) as i32,
        Jal => sext(
            (word >> 31 & 1) << 20
                | (word >> 21 & 0x3FF) << 1
                | (word >> 20 & 1) << 11
                | (word >> 12 & 0xFF) << 12,
            21,
        ),
        Beq | Bne | Blt | Bge | Bltu | Bgeu => sext(
            (word >> 31 & 1) << 12
                | (word >> 25 & 0x3F) << 5
                | (word >> 8 & 0xF) << 1
                | (word >> 7 & 1) << 11,
            13,
        ),
        Sb | Sh | Sw => sext((word >> 25 & 0x7F) << 5 | (word >> 7 & 0x1F), 12),
        Slli | Srli | Srai => (word >> 20 & 0x1F) as i32,
        Jalr | Lb | Lh | Lw | Lbu | Lhu | Addi | Slti | Sltiu | Xori | Ori | Andi => {
            sext(word >> 20, 12)
        }
        _ => 0,
    };
    let csr = match instr {
        Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => word >> 20,
        _ => 0,
    };
    Some(DecodedRv {
        instr,
        rd,
        rs1,
        rs2,
        imm,
        csr,
    })
}

/// Expand a compressed halfword into its 32-bit equivalent.
///
/// Implements the full RVC semantics including the `C.JR` / `C.JALR` /
/// `C.EBREAK` sub-encodings that the form inventory folds into `C.MV` /
/// `C.ADD`. Returns `None` for reserved/illegal encodings (e.g. the
/// all-zero halfword).
pub fn expand_compressed(half: u16) -> Option<u32> {
    use crate::rv32::encode as e;
    let h = half as u32;
    if h == 0 {
        return None; // defined illegal instruction
    }
    let op = h & 0b11;
    let funct3 = h >> 13 & 0b111;
    let rdp = 8 + (h >> 2 & 0x7); // rd'/rs2' in bits 4:2
    let rs1p = 8 + (h >> 7 & 0x7); // rs1'/rd' in bits 9:7
    let rd = h >> 7 & 0x1F;
    let rs2 = h >> 2 & 0x1F;
    match (op, funct3) {
        (0b00, 0b000) => {
            // C.ADDI4SPN
            let imm =
                (h >> 7 & 0xF) << 6 | (h >> 11 & 0x3) << 4 | (h >> 5 & 1) << 3 | (h >> 6 & 1) << 2;
            if imm == 0 {
                return None;
            }
            Some(e::addi(rdp, 2, imm as i32))
        }
        (0b00, 0b010) => {
            // C.LW
            let imm = (h >> 10 & 0x7) << 3 | (h >> 6 & 1) << 2 | (h >> 5 & 1) << 6;
            Some(e::lw(rdp, rs1p, imm as i32))
        }
        (0b00, 0b110) => {
            // C.SW
            let imm = (h >> 10 & 0x7) << 3 | (h >> 6 & 1) << 2 | (h >> 5 & 1) << 6;
            Some(e::sw(rdp, rs1p, imm as i32))
        }
        (0b01, 0b000) => {
            // C.ADDI (imm may be 0: C.NOP / hint)
            let imm = sext((h >> 12 & 1) << 5 | (h >> 2 & 0x1F), 6);
            Some(e::addi(rd, rd, imm))
        }
        (0b01, 0b001) => Some(e::jal(1, cj_offset(h))),
        (0b01, 0b010) => {
            let imm = sext((h >> 12 & 1) << 5 | (h >> 2 & 0x1F), 6);
            Some(e::addi(rd, 0, imm))
        }
        (0b01, 0b011) => {
            if rd == 2 {
                // C.ADDI16SP
                let imm = sext(
                    (h >> 12 & 1) << 9
                        | (h >> 3 & 0x3) << 7
                        | (h >> 5 & 1) << 6
                        | (h >> 2 & 1) << 5
                        | (h >> 6 & 1) << 4,
                    10,
                );
                if imm == 0 {
                    return None;
                }
                Some(e::addi(2, 2, imm))
            } else {
                // C.LUI
                let imm6 = sext((h >> 12 & 1) << 5 | (h >> 2 & 0x1F), 6);
                if imm6 == 0 {
                    return None;
                }
                Some(e::lui(rd, (imm6 as u32) & 0xF_FFFF))
            }
        }
        (0b01, 0b100) => {
            let sub = h >> 10 & 0b11;
            match sub {
                0b00 | 0b01 => {
                    let shamt = (h >> 12 & 1) << 5 | (h >> 2 & 0x1F);
                    if shamt >= 32 {
                        return None; // RV64-only
                    }
                    if sub == 0 {
                        Some(e::srli(rs1p, rs1p, shamt))
                    } else {
                        Some(e::srai(rs1p, rs1p, shamt))
                    }
                }
                0b10 => {
                    let imm = sext((h >> 12 & 1) << 5 | (h >> 2 & 0x1F), 6);
                    Some(e::andi(rs1p, rs1p, imm))
                }
                _ => {
                    if h >> 12 & 1 != 0 {
                        return None; // RV64 C.SUBW/C.ADDW
                    }
                    match h >> 5 & 0b11 {
                        0b00 => Some(e::sub(rs1p, rs1p, rdp)),
                        0b01 => Some(e::xor(rs1p, rs1p, rdp)),
                        0b10 => Some(e::or(rs1p, rs1p, rdp)),
                        _ => Some(e::and(rs1p, rs1p, rdp)),
                    }
                }
            }
        }
        (0b01, 0b101) => Some(e::jal(0, cj_offset(h))),
        (0b01, 0b110) => Some(e::beq(rs1p, 0, cb_offset(h))),
        (0b01, 0b111) => Some(e::bne(rs1p, 0, cb_offset(h))),
        (0b10, 0b000) => {
            let shamt = (h >> 12 & 1) << 5 | (h >> 2 & 0x1F);
            if shamt >= 32 {
                return None;
            }
            Some(e::slli(rd, rd, shamt))
        }
        (0b10, 0b010) => {
            // C.LWSP
            if rd == 0 {
                return None;
            }
            let imm = (h >> 12 & 1) << 5 | (h >> 4 & 0x7) << 2 | (h >> 2 & 0x3) << 6;
            Some(e::lw(rd, 2, imm as i32))
        }
        (0b10, 0b110) => {
            // C.SWSP
            let imm = (h >> 9 & 0xF) << 2 | (h >> 7 & 0x3) << 6;
            Some(e::sw(rs2, 2, imm as i32))
        }
        (0b10, 0b100) => {
            let bit12 = h >> 12 & 1;
            match (bit12, rd, rs2) {
                (0, 0, _) => None,                      // C.MV with rd=0 is a hint: unsupported
                (0, _, 0) => Some(e::jalr(0, rd, 0)),   // C.JR
                (0, _, _) => Some(e::add(rd, 0, rs2)),  // C.MV
                (1, 0, 0) => Some(e::ebreak()),         // C.EBREAK
                (1, 0, _) => None,                      // C.ADD with rd=0 is a hint: unsupported
                (1, _, 0) => Some(e::jalr(1, rd, 0)),   // C.JALR
                (1, _, _) => Some(e::add(rd, rd, rs2)), // C.ADD
                _ => unreachable!(),
            }
        }
        _ => None,
    }
}

fn cj_offset(h: u32) -> i32 {
    sext(
        (h >> 12 & 1) << 11
            | (h >> 11 & 1) << 4
            | (h >> 9 & 0x3) << 8
            | (h >> 8 & 1) << 10
            | (h >> 7 & 1) << 6
            | (h >> 6 & 1) << 7
            | (h >> 3 & 0x7) << 1
            | (h >> 2 & 1) << 5,
        12,
    )
}

fn cb_offset(h: u32) -> i32 {
    sext(
        (h >> 12 & 1) << 8
            | (h >> 10 & 0x3) << 3
            | (h >> 5 & 0x3) << 6
            | (h >> 3 & 0x3) << 1
            | (h >> 2 & 1) << 5,
        9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv32::encode as e;

    #[test]
    fn decode_identifies_every_base_form() {
        use RvInstr::*;
        let cases = [
            (Lui, e::lui(1, 5)),
            (Auipc, e::auipc(1, 5)),
            (Jal, e::jal(1, 4)),
            (Jalr, e::jalr(1, 2, 4)),
            (Beq, e::beq(1, 2, 4)),
            (Bne, e::bne(1, 2, 4)),
            (Blt, e::blt(1, 2, 4)),
            (Bge, e::bge(1, 2, 4)),
            (Bltu, e::bltu(1, 2, 4)),
            (Bgeu, e::bgeu(1, 2, 4)),
            (Lb, e::lb(1, 2, 4)),
            (Lh, e::lh(1, 2, 4)),
            (Lw, e::lw(1, 2, 4)),
            (Lbu, e::lbu(1, 2, 4)),
            (Lhu, e::lhu(1, 2, 4)),
            (Sb, e::sb(1, 2, 4)),
            (Sh, e::sh(1, 2, 4)),
            (Sw, e::sw(1, 2, 4)),
            (Addi, e::addi(1, 2, 4)),
            (Slti, e::slti(1, 2, 4)),
            (Sltiu, e::sltiu(1, 2, 4)),
            (Xori, e::xori(1, 2, 4)),
            (Ori, e::ori(1, 2, 4)),
            (Andi, e::andi(1, 2, 4)),
            (Slli, e::slli(1, 2, 4)),
            (Srli, e::srli(1, 2, 4)),
            (Srai, e::srai(1, 2, 4)),
            (Add, e::add(1, 2, 3)),
            (Sub, e::sub(1, 2, 3)),
            (Sll, e::sll(1, 2, 3)),
            (Slt, e::slt(1, 2, 3)),
            (Sltu, e::sltu(1, 2, 3)),
            (Xor, e::xor(1, 2, 3)),
            (Srl, e::srl(1, 2, 3)),
            (Sra, e::sra(1, 2, 3)),
            (Or, e::or(1, 2, 3)),
            (And, e::and(1, 2, 3)),
            (Fence, e::fence()),
            (Ecall, e::ecall()),
            (Ebreak, e::ebreak()),
            (Mul, e::mul(1, 2, 3)),
            (Mulh, e::mulh(1, 2, 3)),
            (Mulhsu, e::mulhsu(1, 2, 3)),
            (Mulhu, e::mulhu(1, 2, 3)),
            (Div, e::div(1, 2, 3)),
            (Divu, e::divu(1, 2, 3)),
            (Rem, e::rem(1, 2, 3)),
            (Remu, e::remu(1, 2, 3)),
            (Csrrw, e::csrrw(1, 0x300, 2)),
            (Csrrs, e::csrrs(1, 0x300, 2)),
            (Csrrc, e::csrrc(1, 0x300, 2)),
            (Csrrwi, e::csrrwi(1, 0x300, 5)),
            (FenceI, e::fence_i()),
        ];
        for (want, word) in cases {
            assert_eq!(decode_form(word), Some(want), "word {word:#010x}");
        }
    }

    #[test]
    fn immediate_round_trips() {
        for imm in [-2048, -1, 0, 1, 7, 2047] {
            let d = decode(e::addi(3, 4, imm)).unwrap();
            assert_eq!(d.imm, imm);
            assert_eq!((d.rd, d.rs1), (3, 4));
        }
        for off in [-4096, -2, 0, 2, 4094] {
            let d = decode(e::beq(1, 2, off)).unwrap();
            assert_eq!(d.imm, off, "branch offset");
        }
        for off in [-(1 << 20), -2, 0, 2, (1 << 20) - 2] {
            let d = decode(e::jal(1, off)).unwrap();
            assert_eq!(d.imm, off, "jal offset");
        }
        for imm in [-2048, -4, 0, 4, 2047] {
            let d = decode(e::sw(5, 6, imm)).unwrap();
            assert_eq!(d.imm, imm, "store offset");
            assert_eq!((d.rs1, d.rs2), (6, 5));
        }
    }

    #[test]
    fn compressed_expansion_semantics() {
        // c.addi x5, -3  ==  addi x5, x5, -3
        assert_eq!(expand_compressed(e::c_addi(5, -3)), Some(e::addi(5, 5, -3)));
        // c.li x10, 7  ==  addi x10, x0, 7
        assert_eq!(expand_compressed(e::c_li(10, 7)), Some(e::addi(10, 0, 7)));
        // c.mv x3, x4  ==  add x3, x0, x4
        assert_eq!(expand_compressed(e::c_mv(3, 4)), Some(e::add(3, 0, 4)));
        // c.add x3, x4  ==  add x3, x3, x4
        assert_eq!(expand_compressed(e::c_add(3, 4)), Some(e::add(3, 3, 4)));
        // c.lw x8, 4(x9)
        assert_eq!(expand_compressed(e::c_lw(8, 9, 4)), Some(e::lw(8, 9, 4)));
        // c.sw x8, 64(x9)
        assert_eq!(expand_compressed(e::c_sw(8, 9, 64)), Some(e::sw(8, 9, 64)));
        // c.lwsp x1, 8(sp)
        assert_eq!(expand_compressed(e::c_lwsp(1, 8)), Some(e::lw(1, 2, 8)));
        // c.swsp x1, 12(sp)
        assert_eq!(expand_compressed(e::c_swsp(1, 12)), Some(e::sw(1, 2, 12)));
        // c.sub x8, x9
        assert_eq!(expand_compressed(e::c_sub(8, 9)), Some(e::sub(8, 8, 9)));
        // c.andi x9, -1
        assert_eq!(expand_compressed(e::c_andi(9, -1)), Some(e::andi(9, 9, -1)));
        // c.slli x3, 4
        assert_eq!(expand_compressed(e::c_slli(3, 4)), Some(e::slli(3, 3, 4)));
        // c.srli x9, 2 / c.srai
        assert_eq!(expand_compressed(e::c_srli(9, 2)), Some(e::srli(9, 9, 2)));
        assert_eq!(expand_compressed(e::c_srai(9, 2)), Some(e::srai(9, 9, 2)));
        // c.addi16sp -16 == addi sp, sp, -16
        assert_eq!(
            expand_compressed(e::c_addi16sp(-16)),
            Some(e::addi(2, 2, -16))
        );
        // c.addi4spn x8, 4 == addi x8, sp, 4
        assert_eq!(
            expand_compressed(e::c_addi4spn(8, 4)),
            Some(e::addi(8, 2, 4))
        );
        // c.lui x3, 1 == lui x3, 1
        assert_eq!(expand_compressed(e::c_lui(3, 1)), Some(e::lui(3, 1)));
        // all-zero halfword is illegal
        assert_eq!(expand_compressed(0), None);
    }

    #[test]
    fn compressed_jump_offsets_round_trip() {
        for off in [-2048, -100, -4, 2, 64, 2046] {
            let h = e::c_j(off);
            let d = decode(expand_compressed(h).unwrap()).unwrap();
            assert_eq!(d.instr, RvInstr::Jal);
            assert_eq!(d.imm, off, "c.j offset {off}");
            assert_eq!(d.rd, 0);
        }
        for off in [-256, -6, 6, 254] {
            let h = e::c_beqz(8, off);
            let d = decode(expand_compressed(h).unwrap()).unwrap();
            assert_eq!(d.instr, RvInstr::Beq);
            assert_eq!(d.imm, off, "c.beqz offset {off}");
        }
    }

    #[test]
    fn compressed_forms_identified_for_profiling() {
        use RvInstr::*;
        assert_eq!(decode_form(e::c_addi(5, 1) as u32), Some(CAddi));
        assert_eq!(decode_form(e::c_lw(8, 9, 4) as u32), Some(CLw));
        assert_eq!(decode_form(e::c_addi16sp(16) as u32), Some(CAddi16sp));
        assert_eq!(decode_form(e::c_lui(3, 1) as u32), Some(CLui));
        assert_eq!(decode_form(e::c_sub(8, 9) as u32), Some(CSub));
        assert_eq!(decode_form(e::c_mv(3, 4) as u32), Some(CMv));
        assert_eq!(decode_form(e::c_add(3, 4) as u32), Some(CAdd));
    }

    #[test]
    fn unknown_words_decode_to_none() {
        assert_eq!(decode_form(0xFFFF_FFFF), None);
        assert_eq!(decode(0x0000_0000), None);
    }
}
