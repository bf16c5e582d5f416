//! Operand-level encoders for the ARMv6-M (Thumb) forms used by the
//! MiBench-like kernels and the Cortex-M0-class core tests.

fn r3(r: u32) -> u16 {
    debug_assert!(r < 8, "low register required, got r{r}");
    r as u16
}

/// `movs rd, #imm8`.
pub fn t_mov_imm(rd: u32, imm8: u32) -> u16 {
    debug_assert!(imm8 < 256);
    0x2000 | r3(rd) << 8 | imm8 as u16
}

/// `cmp rn, #imm8`.
pub fn t_cmp_imm(rn: u32, imm8: u32) -> u16 {
    debug_assert!(imm8 < 256);
    0x2800 | r3(rn) << 8 | imm8 as u16
}

/// `adds rd, #imm8`.
pub fn t_add_imm8(rd: u32, imm8: u32) -> u16 {
    debug_assert!(imm8 < 256);
    0x3000 | r3(rd) << 8 | imm8 as u16
}

/// `subs rd, #imm8`.
pub fn t_sub_imm8(rd: u32, imm8: u32) -> u16 {
    debug_assert!(imm8 < 256);
    0x3800 | r3(rd) << 8 | imm8 as u16
}

/// `adds rd, rn, #imm3`.
pub fn t_add_imm3(rd: u32, rn: u32, imm3: u32) -> u16 {
    debug_assert!(imm3 < 8);
    0x1C00 | (imm3 as u16) << 6 | r3(rn) << 3 | r3(rd)
}

/// `subs rd, rn, #imm3`.
pub fn t_sub_imm3(rd: u32, rn: u32, imm3: u32) -> u16 {
    debug_assert!(imm3 < 8);
    0x1E00 | (imm3 as u16) << 6 | r3(rn) << 3 | r3(rd)
}

/// `adds rd, rn, rm`.
pub fn t_add_reg(rd: u32, rn: u32, rm: u32) -> u16 {
    0x1800 | r3(rm) << 6 | r3(rn) << 3 | r3(rd)
}

/// `subs rd, rn, rm`.
pub fn t_sub_reg(rd: u32, rn: u32, rm: u32) -> u16 {
    0x1A00 | r3(rm) << 6 | r3(rn) << 3 | r3(rd)
}

/// `lsls rd, rm, #imm5` (imm5 != 0; 0 encodes `movs rd, rm`).
pub fn t_lsl_imm(rd: u32, rm: u32, imm5: u32) -> u16 {
    debug_assert!(imm5 > 0 && imm5 < 32);
    (imm5 as u16) << 6 | r3(rm) << 3 | r3(rd)
}

/// `movs rd, rm` (LSLS #0 encoding).
pub fn t_mov_reg(rd: u32, rm: u32) -> u16 {
    r3(rm) << 3 | r3(rd)
}

/// `lsrs rd, rm, #imm5` (imm5 = 1..=32; 32 encoded as 0).
pub fn t_lsr_imm(rd: u32, rm: u32, imm5: u32) -> u16 {
    debug_assert!((1..=32).contains(&imm5));
    0x0800 | ((imm5 % 32) as u16) << 6 | r3(rm) << 3 | r3(rd)
}

/// `asrs rd, rm, #imm5`.
pub fn t_asr_imm(rd: u32, rm: u32, imm5: u32) -> u16 {
    debug_assert!((1..=32).contains(&imm5));
    0x1000 | ((imm5 % 32) as u16) << 6 | r3(rm) << 3 | r3(rd)
}

macro_rules! dp {
    ($(#[$m:meta])* $name:ident, $bits:expr) => {
        $(#[$m])*
        pub fn $name(rdn: u32, rm: u32) -> u16 {
            $bits | r3(rm) << 3 | r3(rdn)
        }
    };
}

dp!(/// `ands rdn, rm`.
    t_and, 0x4000);
dp!(/// `eors rdn, rm`.
    t_eor, 0x4040);
dp!(/// `lsls rdn, rm` (register shift).
    t_lsl_reg, 0x4080);
dp!(/// `lsrs rdn, rm` (register shift).
    t_lsr_reg, 0x40C0);
dp!(/// `asrs rdn, rm` (register shift).
    t_asr_reg, 0x4100);
dp!(/// `adcs rdn, rm`.
    t_adc, 0x4140);
dp!(/// `sbcs rdn, rm`.
    t_sbc, 0x4180);
dp!(/// `rors rdn, rm`.
    t_ror, 0x41C0);
dp!(/// `tst rn, rm`.
    t_tst, 0x4200);
dp!(/// `rsbs rd, rn, #0`.
    t_rsb, 0x4240);
dp!(/// `cmp rn, rm` (low registers).
    t_cmp_reg, 0x4280);
dp!(/// `cmn rn, rm`.
    t_cmn, 0x42C0);
dp!(/// `orrs rdn, rm`.
    t_orr, 0x4300);
dp!(/// `muls rdm, rn`.
    t_mul, 0x4340);
dp!(/// `bics rdn, rm`.
    t_bic, 0x4380);
dp!(/// `mvns rd, rm`.
    t_mvn, 0x43C0);
dp!(/// `sxth rd, rm`.
    t_sxth, 0xB200);
dp!(/// `sxtb rd, rm`.
    t_sxtb, 0xB240);
dp!(/// `uxth rd, rm`.
    t_uxth, 0xB280);
dp!(/// `uxtb rd, rm`.
    t_uxtb, 0xB2C0);
dp!(/// `rev rd, rm`.
    t_rev, 0xBA00);
dp!(/// `rev16 rd, rm`.
    t_rev16, 0xBA40);
dp!(/// `revsh rd, rm`.
    t_revsh, 0xBAC0);

/// `ldr rt, [rn, #imm]` (imm word-aligned, 0..=124).
pub fn t_ldr_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm.is_multiple_of(4) && imm < 128);
    0x6800 | ((imm / 4) as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `str rt, [rn, #imm]`.
pub fn t_str_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm.is_multiple_of(4) && imm < 128);
    0x6000 | ((imm / 4) as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrb rt, [rn, #imm]` (imm 0..=31).
pub fn t_ldrb_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm < 32);
    0x7800 | (imm as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `strb rt, [rn, #imm]`.
pub fn t_strb_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm < 32);
    0x7000 | (imm as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrh rt, [rn, #imm]` (imm halfword-aligned, 0..=62).
pub fn t_ldrh_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm.is_multiple_of(2) && imm < 64);
    0x8800 | ((imm / 2) as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `strh rt, [rn, #imm]`.
pub fn t_strh_imm(rt: u32, rn: u32, imm: u32) -> u16 {
    debug_assert!(imm.is_multiple_of(2) && imm < 64);
    0x8000 | ((imm / 2) as u16) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldr rt, [rn, rm]`.
pub fn t_ldr_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5800 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `str rt, [rn, rm]`.
pub fn t_str_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5000 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrb rt, [rn, rm]`.
pub fn t_ldrb_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5C00 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `strb rt, [rn, rm]`.
pub fn t_strb_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5400 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrh rt, [rn, rm]`.
pub fn t_ldrh_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5A00 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrsb rt, [rn, rm]`.
pub fn t_ldrsb_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5600 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// `ldrsh rt, [rn, rm]`.
pub fn t_ldrsh_reg(rt: u32, rn: u32, rm: u32) -> u16 {
    0x5E00 | r3(rm) << 6 | r3(rn) << 3 | r3(rt)
}

/// Thumb condition codes for [`t_b_cond`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // standard ARM condition mnemonics
pub enum Cond {
    Eq = 0,
    Ne = 1,
    Cs = 2,
    Cc = 3,
    Mi = 4,
    Pl = 5,
    Vs = 6,
    Vc = 7,
    Hi = 8,
    Ls = 9,
    Ge = 10,
    Lt = 11,
    Gt = 12,
    Le = 13,
}

/// `b<cond> byte_offset` (offset relative to PC+4, even, ±256).
pub fn t_b_cond(cond: Cond, off: i32) -> u16 {
    debug_assert!(
        off % 2 == 0 && (-256..=254).contains(&off),
        "Bcond off {off}"
    );
    0xD000 | (cond as u16) << 8 | ((off >> 1) as u16 & 0xFF)
}

/// `b byte_offset` (unconditional, relative to PC+4, even, ±2 KiB).
pub fn t_b(off: i32) -> u16 {
    debug_assert!(off % 2 == 0 && (-2048..=2046).contains(&off), "B off {off}");
    0xE000 | ((off >> 1) as u16 & 0x7FF)
}

/// `bx rm` (rm may be any register 0..=14).
pub fn t_bx(rm: u32) -> u16 {
    debug_assert!(rm < 15);
    0x4700 | (rm as u16) << 3
}

/// `blx rm`.
pub fn t_blx(rm: u32) -> u16 {
    debug_assert!(rm < 15);
    0x4780 | (rm as u16) << 3
}

/// `push {regs...}` — bit i = ri, bit 8 = LR.
pub fn t_push(reglist: u16) -> u16 {
    debug_assert!(reglist & !0x1FF == 0);
    0xB400 | reglist
}

/// `pop {regs...}` — bit i = ri, bit 8 = PC.
pub fn t_pop(reglist: u16) -> u16 {
    debug_assert!(reglist & !0x1FF == 0);
    0xBC00 | reglist
}

/// `nop`.
pub fn t_nop() -> u16 {
    0xBF00
}

/// `bl byte_offset` as the two halfwords `(hw1, hw2)` (offset relative to
/// PC+4, even, ±16 MiB).
pub fn t_bl(off: i32) -> (u16, u16) {
    debug_assert!(off % 2 == 0 && (-(1 << 24)..(1 << 24)).contains(&off));
    let s = (off >> 24 & 1) as u16;
    let i1 = (off >> 23 & 1) as u16;
    let i2 = (off >> 22 & 1) as u16;
    let imm10 = (off >> 12 & 0x3FF) as u16;
    let imm11 = (off >> 1 & 0x7FF) as u16;
    let j1 = !(i1 ^ s) & 1;
    let j2 = !(i2 ^ s) & 1;
    (
        0xF000 | s << 10 | imm10,
        0xD000 | j1 << 13 | j2 << 11 | imm11,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::armv6m::ThumbInstr;

    #[test]
    fn encodings_match_patterns() {
        use ThumbInstr::*;
        let cases: Vec<(ThumbInstr, u16)> = vec![
            (MovImm, t_mov_imm(3, 42)),
            (CmpImm, t_cmp_imm(3, 42)),
            (AddsImm8, t_add_imm8(3, 42)),
            (SubsImm8, t_sub_imm8(3, 42)),
            (AddsImm3, t_add_imm3(1, 2, 3)),
            (SubsImm3, t_sub_imm3(1, 2, 3)),
            (AddsReg, t_add_reg(1, 2, 3)),
            (SubsReg, t_sub_reg(1, 2, 3)),
            (LslsImm, t_lsl_imm(1, 2, 3)),
            (MovsReg, t_mov_reg(1, 2)),
            (LsrsImm, t_lsr_imm(1, 2, 3)),
            (AsrsImm, t_asr_imm(1, 2, 3)),
            (Ands, t_and(1, 2)),
            (Eors, t_eor(1, 2)),
            (LslsReg, t_lsl_reg(1, 2)),
            (Adcs, t_adc(1, 2)),
            (Rors, t_ror(1, 2)),
            (Tst, t_tst(1, 2)),
            (Rsbs, t_rsb(1, 2)),
            (CmpReg, t_cmp_reg(1, 2)),
            (Orrs, t_orr(1, 2)),
            (Muls, t_mul(1, 2)),
            (Bics, t_bic(1, 2)),
            (Mvns, t_mvn(1, 2)),
            (Sxtb, t_sxtb(1, 2)),
            (Uxth, t_uxth(1, 2)),
            (Rev, t_rev(1, 2)),
            (LdrImm, t_ldr_imm(1, 2, 8)),
            (StrImm, t_str_imm(1, 2, 8)),
            (LdrbImm, t_ldrb_imm(1, 2, 5)),
            (StrbImm, t_strb_imm(1, 2, 5)),
            (LdrhImm, t_ldrh_imm(1, 2, 6)),
            (StrhImm, t_strh_imm(1, 2, 6)),
            (LdrReg, t_ldr_reg(1, 2, 3)),
            (StrReg, t_str_reg(1, 2, 3)),
            (LdrbReg, t_ldrb_reg(1, 2, 3)),
            (LdrsbReg, t_ldrsb_reg(1, 2, 3)),
            (LdrshReg, t_ldrsh_reg(1, 2, 3)),
            (BCond, t_b_cond(Cond::Ne, -4)),
            (B, t_b(100)),
            (Bx, t_bx(14)),
            (BlxReg, t_blx(3)),
            (Push, t_push(0x10F)),
            (Pop, t_pop(0x10F)),
            (Nop, t_nop()),
        ];
        for (instr, hw) in cases {
            assert!(
                instr.pattern().matches(hw as u32),
                "{instr} encoding {hw:#06x} must match its pattern"
            );
            // No earlier-priority 16-bit form may claim it.
            for other in ThumbInstr::ALL {
                if other == instr {
                    break;
                }
                if other.is_32bit() {
                    continue;
                }
                assert!(
                    !other.pattern().matches(hw as u32),
                    "{other} steals {instr} encoding {hw:#06x}"
                );
            }
        }
    }

    #[test]
    fn bl_matches_32bit_pattern() {
        for off in [-16384, -2, 0, 2, 4096, (1 << 24) - 2] {
            let (hw1, hw2) = t_bl(off);
            let word = (hw1 as u32) << 16 | hw2 as u32;
            assert!(
                ThumbInstr::Bl.pattern().matches(word),
                "bl({off}) = {word:#010x}"
            );
        }
    }
}
