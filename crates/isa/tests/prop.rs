//! Property-based tests: encoder/decoder round trips over random operands,
//! pattern disjointness within priority classes, and compressed-expansion
//! consistency.

use pdat_isa::armv6m::{thumb_decode_form, ThumbInstr};
use pdat_isa::rv32::{self, decode, decode_form, expand_compressed, RvInstr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rtype_round_trip(rd in 0u32..32, rs1 in 0u32..32, rs2 in 0u32..32) {
        for (enc, form) in [
            (rv32::add as fn(u32, u32, u32) -> u32, RvInstr::Add),
            (rv32::sub, RvInstr::Sub),
            (rv32::xor, RvInstr::Xor),
            (rv32::sltu, RvInstr::Sltu),
            (rv32::mul, RvInstr::Mul),
            (rv32::divu, RvInstr::Divu),
        ] {
            let w = enc(rd, rs1, rs2);
            let d = decode(w).expect("decodes");
            prop_assert_eq!(d.instr, form);
            prop_assert_eq!((d.rd, d.rs1, d.rs2), (rd, rs1, rs2));
        }
    }

    #[test]
    fn itype_imm_round_trip(rd in 0u32..32, rs1 in 0u32..32, imm in -2048i32..=2047) {
        for (enc, form) in [
            (rv32::addi as fn(u32, u32, i32) -> u32, RvInstr::Addi),
            (rv32::andi, RvInstr::Andi),
            (rv32::ori, RvInstr::Ori),
            (rv32::xori, RvInstr::Xori),
            (rv32::slti, RvInstr::Slti),
            (rv32::jalr, RvInstr::Jalr),
            (rv32::lw, RvInstr::Lw),
            (rv32::lb, RvInstr::Lb),
        ] {
            let w = enc(rd, rs1, imm);
            let d = decode(w).expect("decodes");
            prop_assert_eq!(d.instr, form);
            prop_assert_eq!((d.rd, d.rs1, d.imm), (rd, rs1, imm));
        }
    }

    #[test]
    fn branch_offset_round_trip(rs1 in 0u32..32, rs2 in 0u32..32, off in -2048i32..=2047) {
        let off = off * 2; // even, ±4 KiB
        let w = rv32::beq(rs1, rs2, off);
        let d = decode(w).expect("decodes");
        prop_assert_eq!(d.instr, RvInstr::Beq);
        prop_assert_eq!(d.imm, off);
    }

    #[test]
    fn jal_offset_round_trip(rd in 0u32..32, off in -(1i32 << 19)..(1 << 19)) {
        let off = off * 2;
        let w = rv32::jal(rd, off);
        let d = decode(w).expect("decodes");
        prop_assert_eq!(d.instr, RvInstr::Jal);
        prop_assert_eq!((d.rd, d.imm), (rd, off));
    }

    #[test]
    fn store_offset_round_trip(rs1 in 0u32..32, rs2 in 0u32..32, imm in -2048i32..=2047) {
        let w = rv32::sw(rs2, rs1, imm);
        let d = decode(w).expect("decodes");
        prop_assert_eq!(d.instr, RvInstr::Sw);
        prop_assert_eq!((d.rs1, d.rs2, d.imm), (rs1, rs2, imm));
    }

    #[test]
    fn compressed_expansion_decodes_to_32bit_form(hw in any::<u16>()) {
        // Every halfword the form-decoder accepts must expand to a valid
        // 32-bit instruction (or be a legitimately reserved encoding).
        prop_assume!(hw & 0b11 != 0b11);
        if let Some(form) = decode_form(hw as u32) {
            prop_assert!(form.is_compressed());
            if let Some(word) = expand_compressed(hw) {
                let d = decode(word);
                prop_assert!(d.is_some(), "{form}: expansion {word:#010x} undecodable");
            }
        }
    }

    #[test]
    fn decode_form_is_total_on_32bit_encodings_or_rejects(word in any::<u32>()) {
        // decode_form never panics, and when it identifies a form the
        // pattern indeed matches.
        if let Some(f) = decode_form(word) {
            prop_assert!(f.pattern().matches(word));
            let compressed = word & 0b11 != 0b11;
            prop_assert_eq!(f.is_compressed(), compressed);
        }
    }

    #[test]
    fn exactly_one_32bit_form_matches(word in any::<u32>()) {
        // Non-compressed patterns are mutually disjoint: at most one can
        // match any word.
        prop_assume!(word & 0b11 == 0b11);
        let matches: Vec<_> = RvInstr::ALL
            .iter()
            .filter(|f| !f.is_compressed() && f.pattern().matches(word))
            .collect();
        prop_assert!(matches.len() <= 1, "ambiguous: {matches:?}");
    }

    #[test]
    fn thumb_decode_agrees_with_pattern(hw in any::<u16>()) {
        if let Some(f) = thumb_decode_form(hw as u32) {
            prop_assert!(!f.is_32bit());
            prop_assert!(f.pattern().matches(hw as u32));
        }
    }

    #[test]
    fn thumb_priority_is_deterministic(hw in any::<u16>()) {
        // The first matching form in priority order is what decode returns.
        let expected = ThumbInstr::ALL
            .iter()
            .find(|f| {
                !f.is_32bit()
                    && f.pattern().matches(hw as u32)
                    && !(matches!(f, ThumbInstr::BCond) && (hw >> 8 & 0xF) >= 14)
            })
            .copied();
        prop_assert_eq!(thumb_decode_form(hw as u32), expected);
    }
}
