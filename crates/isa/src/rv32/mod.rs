//! The RV32IMC + Zicsr/Zifencei instruction set as implemented by the
//! Ibex-class cores in this reproduction.
//!
//! The instruction inventory matches the paper's Table I: 40 RV32I base
//! instructions, 8 M-extension, 23 C-extension forms, and 7 in the
//! "z-extension" (Zicsr's six CSR instructions plus Zifencei's `FENCE.I`) —
//! 78 total.
//!
//! C-extension counting note: we fold `C.NOP` into `C.ADDI`, and the
//! `C.JR`/`C.JALR`/`C.EBREAK` encodings into `C.MV`/`C.ADD` (they share the
//! same major encodings, distinguished only by zero register fields), which
//! yields the paper's 23 forms.

mod asm;
mod decode;
pub mod encode;

pub use asm::Assembler;
pub use decode::{decode, decode_form, expand_compressed, DecodedRv};
pub use encode::*;

use crate::pattern::Pattern;
use std::fmt;

/// One RV32IMC+Zicsr instruction form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants are the ISA's own mnemonics
pub enum RvInstr {
    // --- RV32I base (40) ---
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Fence,
    Ecall,
    Ebreak,
    // --- M extension (8) ---
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    // --- C extension (23 forms) ---
    CAddi4spn,
    CLw,
    CSw,
    CAddi,
    CJal,
    CLi,
    CAddi16sp,
    CLui,
    CSrli,
    CSrai,
    CAndi,
    CSub,
    CXor,
    COr,
    CAnd,
    CJ,
    CBeqz,
    CBnez,
    CSlli,
    CLwsp,
    CSwsp,
    CMv,
    CAdd,
    // --- Zicsr + Zifencei ("z-extension", 7) ---
    Csrrw,
    Csrrs,
    Csrrc,
    Csrrwi,
    Csrrsi,
    Csrrci,
    FenceI,
}

/// RISC-V extension grouping used throughout the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RvExtension {
    /// RV32I base integer ISA.
    I,
    /// Multiply/divide extension.
    M,
    /// Compressed 16-bit encodings.
    C,
    /// Zicsr + Zifencei, the paper's "z-extension".
    Zicsr,
}

impl RvInstr {
    /// All 78 forms, in decoder priority order (more specific patterns
    /// before overlapping generic ones).
    pub const ALL: [RvInstr; 78] = [
        // Specific full-word matches first.
        RvInstr::Ecall,
        RvInstr::Ebreak,
        // Fences (distinguished by funct3).
        RvInstr::Fence,
        RvInstr::FenceI,
        // CSR.
        RvInstr::Csrrw,
        RvInstr::Csrrs,
        RvInstr::Csrrc,
        RvInstr::Csrrwi,
        RvInstr::Csrrsi,
        RvInstr::Csrrci,
        // Upper-immediate / jumps.
        RvInstr::Lui,
        RvInstr::Auipc,
        RvInstr::Jal,
        RvInstr::Jalr,
        // Branches.
        RvInstr::Beq,
        RvInstr::Bne,
        RvInstr::Blt,
        RvInstr::Bge,
        RvInstr::Bltu,
        RvInstr::Bgeu,
        // Loads/stores.
        RvInstr::Lb,
        RvInstr::Lh,
        RvInstr::Lw,
        RvInstr::Lbu,
        RvInstr::Lhu,
        RvInstr::Sb,
        RvInstr::Sh,
        RvInstr::Sw,
        // OP-IMM (shifts carry funct7, so they precede nothing here, but
        // keep them before the plain immediates for clarity).
        RvInstr::Slli,
        RvInstr::Srli,
        RvInstr::Srai,
        RvInstr::Addi,
        RvInstr::Slti,
        RvInstr::Sltiu,
        RvInstr::Xori,
        RvInstr::Ori,
        RvInstr::Andi,
        // OP (R-type): M first (funct7 = 1), then base.
        RvInstr::Mul,
        RvInstr::Mulh,
        RvInstr::Mulhsu,
        RvInstr::Mulhu,
        RvInstr::Div,
        RvInstr::Divu,
        RvInstr::Rem,
        RvInstr::Remu,
        RvInstr::Add,
        RvInstr::Sub,
        RvInstr::Sll,
        RvInstr::Slt,
        RvInstr::Sltu,
        RvInstr::Xor,
        RvInstr::Srl,
        RvInstr::Sra,
        RvInstr::Or,
        RvInstr::And,
        // Compressed: specific before generic.
        RvInstr::CAddi16sp,
        RvInstr::CLui,
        RvInstr::CSub,
        RvInstr::CXor,
        RvInstr::COr,
        RvInstr::CAnd,
        RvInstr::CSrli,
        RvInstr::CSrai,
        RvInstr::CAndi,
        RvInstr::CAddi4spn,
        RvInstr::CLw,
        RvInstr::CSw,
        RvInstr::CAddi,
        RvInstr::CJal,
        RvInstr::CLi,
        RvInstr::CJ,
        RvInstr::CBeqz,
        RvInstr::CBnez,
        RvInstr::CSlli,
        RvInstr::CLwsp,
        RvInstr::CSwsp,
        RvInstr::CMv,
        RvInstr::CAdd,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use RvInstr::*;
        match self {
            Lui => "lui",
            Auipc => "auipc",
            Jal => "jal",
            Jalr => "jalr",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Lb => "lb",
            Lh => "lh",
            Lw => "lw",
            Lbu => "lbu",
            Lhu => "lhu",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Addi => "addi",
            Slti => "slti",
            Sltiu => "sltiu",
            Xori => "xori",
            Ori => "ori",
            Andi => "andi",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Add => "add",
            Sub => "sub",
            Sll => "sll",
            Slt => "slt",
            Sltu => "sltu",
            Xor => "xor",
            Srl => "srl",
            Sra => "sra",
            Or => "or",
            And => "and",
            Fence => "fence",
            Ecall => "ecall",
            Ebreak => "ebreak",
            Mul => "mul",
            Mulh => "mulh",
            Mulhsu => "mulhsu",
            Mulhu => "mulhu",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
            CAddi4spn => "c.addi4spn",
            CLw => "c.lw",
            CSw => "c.sw",
            CAddi => "c.addi",
            CJal => "c.jal",
            CLi => "c.li",
            CAddi16sp => "c.addi16sp",
            CLui => "c.lui",
            CSrli => "c.srli",
            CSrai => "c.srai",
            CAndi => "c.andi",
            CSub => "c.sub",
            CXor => "c.xor",
            COr => "c.or",
            CAnd => "c.and",
            CJ => "c.j",
            CBeqz => "c.beqz",
            CBnez => "c.bnez",
            CSlli => "c.slli",
            CLwsp => "c.lwsp",
            CSwsp => "c.swsp",
            CMv => "c.mv",
            CAdd => "c.add",
            Csrrw => "csrrw",
            Csrrs => "csrrs",
            Csrrc => "csrrc",
            Csrrwi => "csrrwi",
            Csrrsi => "csrrsi",
            Csrrci => "csrrci",
            FenceI => "fence.i",
        }
    }

    /// Which extension the form belongs to (paper Table I grouping).
    pub fn extension(self) -> RvExtension {
        use RvInstr::*;
        match self {
            Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu => RvExtension::M,
            CAddi4spn | CLw | CSw | CAddi | CJal | CLi | CAddi16sp | CLui | CSrli | CSrai
            | CAndi | CSub | CXor | COr | CAnd | CJ | CBeqz | CBnez | CSlli | CLwsp | CSwsp
            | CMv | CAdd => RvExtension::C,
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci | FenceI => RvExtension::Zicsr,
            _ => RvExtension::I,
        }
    }

    /// True for 16-bit compressed forms.
    pub fn is_compressed(self) -> bool {
        self.extension() == RvExtension::C
    }

    /// The `(mask, value)` recognizer for this form.
    pub fn pattern(self) -> Pattern {
        use RvInstr::*;
        match self {
            Lui => Pattern::word(0x0000_007F, 0x0000_0037),
            Auipc => Pattern::word(0x0000_007F, 0x0000_0017),
            Jal => Pattern::word(0x0000_007F, 0x0000_006F),
            Jalr => Pattern::word(0x0000_707F, 0x0000_0067),
            Beq => Pattern::word(0x0000_707F, 0x0000_0063),
            Bne => Pattern::word(0x0000_707F, 0x0000_1063),
            Blt => Pattern::word(0x0000_707F, 0x0000_4063),
            Bge => Pattern::word(0x0000_707F, 0x0000_5063),
            Bltu => Pattern::word(0x0000_707F, 0x0000_6063),
            Bgeu => Pattern::word(0x0000_707F, 0x0000_7063),
            Lb => Pattern::word(0x0000_707F, 0x0000_0003),
            Lh => Pattern::word(0x0000_707F, 0x0000_1003),
            Lw => Pattern::word(0x0000_707F, 0x0000_2003),
            Lbu => Pattern::word(0x0000_707F, 0x0000_4003),
            Lhu => Pattern::word(0x0000_707F, 0x0000_5003),
            Sb => Pattern::word(0x0000_707F, 0x0000_0023),
            Sh => Pattern::word(0x0000_707F, 0x0000_1023),
            Sw => Pattern::word(0x0000_707F, 0x0000_2023),
            Addi => Pattern::word(0x0000_707F, 0x0000_0013),
            Slti => Pattern::word(0x0000_707F, 0x0000_2013),
            Sltiu => Pattern::word(0x0000_707F, 0x0000_3013),
            Xori => Pattern::word(0x0000_707F, 0x0000_4013),
            Ori => Pattern::word(0x0000_707F, 0x0000_6013),
            Andi => Pattern::word(0x0000_707F, 0x0000_7013),
            Slli => Pattern::word(0xFE00_707F, 0x0000_1013),
            Srli => Pattern::word(0xFE00_707F, 0x0000_5013),
            Srai => Pattern::word(0xFE00_707F, 0x4000_5013),
            Add => Pattern::word(0xFE00_707F, 0x0000_0033),
            Sub => Pattern::word(0xFE00_707F, 0x4000_0033),
            Sll => Pattern::word(0xFE00_707F, 0x0000_1033),
            Slt => Pattern::word(0xFE00_707F, 0x0000_2033),
            Sltu => Pattern::word(0xFE00_707F, 0x0000_3033),
            Xor => Pattern::word(0xFE00_707F, 0x0000_4033),
            Srl => Pattern::word(0xFE00_707F, 0x0000_5033),
            Sra => Pattern::word(0xFE00_707F, 0x4000_5033),
            Or => Pattern::word(0xFE00_707F, 0x0000_6033),
            And => Pattern::word(0xFE00_707F, 0x0000_7033),
            Fence => Pattern::word(0x0000_707F, 0x0000_000F),
            Ecall => Pattern::word(0xFFFF_FFFF, 0x0000_0073),
            Ebreak => Pattern::word(0xFFFF_FFFF, 0x0010_0073),
            Mul => Pattern::word(0xFE00_707F, 0x0200_0033),
            Mulh => Pattern::word(0xFE00_707F, 0x0200_1033),
            Mulhsu => Pattern::word(0xFE00_707F, 0x0200_2033),
            Mulhu => Pattern::word(0xFE00_707F, 0x0200_3033),
            Div => Pattern::word(0xFE00_707F, 0x0200_4033),
            Divu => Pattern::word(0xFE00_707F, 0x0200_5033),
            Rem => Pattern::word(0xFE00_707F, 0x0200_6033),
            Remu => Pattern::word(0xFE00_707F, 0x0200_7033),
            Csrrw => Pattern::word(0x0000_707F, 0x0000_1073),
            Csrrs => Pattern::word(0x0000_707F, 0x0000_2073),
            Csrrc => Pattern::word(0x0000_707F, 0x0000_3073),
            Csrrwi => Pattern::word(0x0000_707F, 0x0000_5073),
            Csrrsi => Pattern::word(0x0000_707F, 0x0000_6073),
            Csrrci => Pattern::word(0x0000_707F, 0x0000_7073),
            FenceI => Pattern::word(0x0000_707F, 0x0000_100F),
            // Compressed quadrant 0.
            CAddi4spn => Pattern::half(0xE003, 0x0000),
            CLw => Pattern::half(0xE003, 0x4000),
            CSw => Pattern::half(0xE003, 0xC000),
            // Quadrant 1.
            CAddi => Pattern::half(0xE003, 0x0001), // includes C.NOP
            CJal => Pattern::half(0xE003, 0x2001),
            CLi => Pattern::half(0xE003, 0x4001),
            CAddi16sp => Pattern::half(0xEF83, 0x6101),
            CLui => Pattern::half(0xE003, 0x6001),
            CSrli => Pattern::half(0xEC03, 0x8001),
            CSrai => Pattern::half(0xEC03, 0x8401),
            CAndi => Pattern::half(0xEC03, 0x8801),
            CSub => Pattern::half(0xFC63, 0x8C01),
            CXor => Pattern::half(0xFC63, 0x8C21),
            COr => Pattern::half(0xFC63, 0x8C41),
            CAnd => Pattern::half(0xFC63, 0x8C61),
            CJ => Pattern::half(0xE003, 0xA001),
            CBeqz => Pattern::half(0xE003, 0xC001),
            CBnez => Pattern::half(0xE003, 0xE001),
            // Quadrant 2.
            CSlli => Pattern::half(0xE003, 0x0002),
            CLwsp => Pattern::half(0xE003, 0x4002),
            CSwsp => Pattern::half(0xE003, 0xC002),
            CMv => Pattern::half(0xF003, 0x8002), // includes C.JR encodings
            CAdd => Pattern::half(0xF003, 0x9002), // includes C.JALR/C.EBREAK
        }
    }
}

impl fmt::Display for RvInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// All forms in a given extension.
pub fn extension_instrs(ext: RvExtension) -> Vec<RvInstr> {
    RvInstr::ALL
        .iter()
        .copied()
        .filter(|i| i.extension() == ext)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn inventory_matches_table1() {
        assert_eq!(RvInstr::ALL.len(), 78, "paper: 78 total");
        assert_eq!(extension_instrs(RvExtension::I).len(), 40, "paper: 40 base");
        assert_eq!(extension_instrs(RvExtension::M).len(), 8, "paper: 8 M");
        assert_eq!(extension_instrs(RvExtension::C).len(), 23, "paper: 23 C");
        assert_eq!(
            extension_instrs(RvExtension::Zicsr).len(),
            7,
            "paper: 7 z-extension"
        );
    }

    #[test]
    fn all_forms_unique() {
        let set: BTreeSet<_> = RvInstr::ALL.iter().collect();
        assert_eq!(set.len(), RvInstr::ALL.len());
    }

    #[test]
    fn patterns_self_match() {
        for i in RvInstr::ALL {
            let p = i.pattern();
            assert!(p.matches(p.value), "{i} pattern should match its value");
        }
    }

    #[test]
    fn word_patterns_have_uncompressed_low_bits() {
        for i in RvInstr::ALL {
            if !i.is_compressed() {
                let p = i.pattern();
                assert_eq!(p.value & 0b11, 0b11, "{i}: 32-bit encodings end in 11");
            } else {
                let p = i.pattern();
                assert_ne!(p.value & 0b11, 0b11, "{i}: compressed low bits != 11");
            }
        }
    }

    #[test]
    fn mnemonics_unique() {
        let set: BTreeSet<_> = RvInstr::ALL.iter().map(|i| i.mnemonic()).collect();
        assert_eq!(set.len(), RvInstr::ALL.len());
    }
}
