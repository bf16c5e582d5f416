//! The ARMv6-M (Thumb) instruction set as implemented by the Cortex-M0-class
//! core in this reproduction.
//!
//! The inventory enumerates 83 instruction *forms*, matching the paper's
//! Table I count for ARMv6-M. As in the ARM architecture manual, forms are
//! distinct encodings: e.g. `ADD (register, T1)` and `ADD (register, T2 —
//! high registers)` count separately, as do the SP-relative load/store
//! encodings.

mod asm;
mod decode;
pub mod encode;

pub use asm::ThumbAssembler;
pub use decode::{decode_form as thumb_decode_form, is_32bit_prefix};
pub use encode::*;

use crate::pattern::Pattern;
use std::fmt;

/// One ARMv6-M instruction form (83 total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants are the ISA's own mnemonics
pub enum ThumbInstr {
    Adcs,
    AddsReg,
    AddsImm3,
    AddsImm8,
    AddRegHigh,
    AddSpImmT1,
    AddSpImmT2,
    AddSpReg,
    Adr,
    Ands,
    AsrsImm,
    AsrsReg,
    BCond,
    B,
    Bics,
    Bkpt,
    Bl,
    BlxReg,
    Bx,
    Cmn,
    CmpImm,
    CmpReg,
    CmpRegHigh,
    Cps,
    Dmb,
    Dsb,
    Eors,
    Isb,
    Ldm,
    LdrImm,
    LdrSp,
    LdrLit,
    LdrReg,
    LdrbImm,
    LdrbReg,
    LdrhImm,
    LdrhReg,
    LdrsbReg,
    LdrshReg,
    LslsImm,
    LslsReg,
    LsrsImm,
    LsrsReg,
    MovImm,
    MovRegHigh,
    MovsReg,
    Mrs,
    Msr,
    Muls,
    Mvns,
    Nop,
    Orrs,
    Pop,
    Push,
    Rev,
    Rev16,
    Revsh,
    Rors,
    Rsbs,
    Sbcs,
    Sev,
    Stm,
    StrImm,
    StrSp,
    StrReg,
    StrbImm,
    StrbReg,
    StrhImm,
    StrhReg,
    SubsReg,
    SubsImm3,
    SubsImm8,
    SubSpImm,
    Svc,
    Sxtb,
    Sxth,
    Tst,
    Udf,
    Uxtb,
    Uxth,
    Wfe,
    Wfi,
    Yield,
}

/// Coarse functional class (drives the paper's "interesting subset"
/// construction: drop memory-ordering, inter-core signaling, multiply, and
/// all 32-bit forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThumbClass {
    /// Data-processing and moves.
    Alu,
    /// Loads and stores (incl. LDM/STM/PUSH/POP).
    Memory,
    /// Branches and calls.
    Branch,
    /// Memory-ordering barriers (DMB/DSB/ISB).
    Ordering,
    /// Inter-core / event signaling and sleep hints (SEV/WFE/WFI/YIELD).
    Signaling,
    /// Multiply.
    Multiply,
    /// System (CPS/MRS/MSR/SVC/BKPT/UDF/NOP).
    System,
}

impl ThumbInstr {
    /// All 83 forms in decoder priority order (specific before generic).
    pub const ALL: [ThumbInstr; 83] = [
        // 32-bit forms first: they are identified by the hw1 prefix.
        ThumbInstr::Bl,
        ThumbInstr::Mrs,
        ThumbInstr::Msr,
        ThumbInstr::Dmb,
        ThumbInstr::Dsb,
        ThumbInstr::Isb,
        // MOVS (reg) is LSLS #0 — must precede LslsImm.
        ThumbInstr::MovsReg,
        ThumbInstr::LslsImm,
        ThumbInstr::LsrsImm,
        ThumbInstr::AsrsImm,
        ThumbInstr::AddsReg,
        ThumbInstr::SubsReg,
        ThumbInstr::AddsImm3,
        ThumbInstr::SubsImm3,
        ThumbInstr::MovImm,
        ThumbInstr::CmpImm,
        ThumbInstr::AddsImm8,
        ThumbInstr::SubsImm8,
        ThumbInstr::Ands,
        ThumbInstr::Eors,
        ThumbInstr::LslsReg,
        ThumbInstr::LsrsReg,
        ThumbInstr::AsrsReg,
        ThumbInstr::Adcs,
        ThumbInstr::Sbcs,
        ThumbInstr::Rors,
        ThumbInstr::Tst,
        ThumbInstr::Rsbs,
        ThumbInstr::CmpReg,
        ThumbInstr::Cmn,
        ThumbInstr::Orrs,
        ThumbInstr::Muls,
        ThumbInstr::Bics,
        ThumbInstr::Mvns,
        // Hi-register group; ADD SP+reg is a special case of AddRegHigh.
        ThumbInstr::AddSpReg,
        ThumbInstr::AddRegHigh,
        ThumbInstr::CmpRegHigh,
        ThumbInstr::MovRegHigh,
        ThumbInstr::Bx,
        ThumbInstr::BlxReg,
        ThumbInstr::LdrLit,
        ThumbInstr::StrReg,
        ThumbInstr::StrhReg,
        ThumbInstr::StrbReg,
        ThumbInstr::LdrsbReg,
        ThumbInstr::LdrReg,
        ThumbInstr::LdrhReg,
        ThumbInstr::LdrbReg,
        ThumbInstr::LdrshReg,
        ThumbInstr::StrImm,
        ThumbInstr::LdrImm,
        ThumbInstr::StrbImm,
        ThumbInstr::LdrbImm,
        ThumbInstr::StrhImm,
        ThumbInstr::LdrhImm,
        ThumbInstr::StrSp,
        ThumbInstr::LdrSp,
        ThumbInstr::Adr,
        ThumbInstr::AddSpImmT1,
        ThumbInstr::AddSpImmT2,
        ThumbInstr::SubSpImm,
        ThumbInstr::Sxth,
        ThumbInstr::Sxtb,
        ThumbInstr::Uxth,
        ThumbInstr::Uxtb,
        ThumbInstr::Push,
        ThumbInstr::Cps,
        ThumbInstr::Rev,
        ThumbInstr::Rev16,
        ThumbInstr::Revsh,
        ThumbInstr::Pop,
        ThumbInstr::Bkpt,
        // Hints: exact matches before anything generic.
        ThumbInstr::Nop,
        ThumbInstr::Yield,
        ThumbInstr::Wfe,
        ThumbInstr::Wfi,
        ThumbInstr::Sev,
        ThumbInstr::Stm,
        ThumbInstr::Ldm,
        ThumbInstr::Udf,
        ThumbInstr::Svc,
        ThumbInstr::BCond,
        ThumbInstr::B,
    ];

    /// Assembly mnemonic (with form disambiguator where needed).
    pub fn mnemonic(self) -> &'static str {
        use ThumbInstr::*;
        match self {
            Adcs => "adcs",
            AddsReg => "adds(reg)",
            AddsImm3 => "adds(imm3)",
            AddsImm8 => "adds(imm8)",
            AddRegHigh => "add(reg,hi)",
            AddSpImmT1 => "add(rd,sp,imm)",
            AddSpImmT2 => "add(sp,imm)",
            AddSpReg => "add(sp,reg)",
            Adr => "adr",
            Ands => "ands",
            AsrsImm => "asrs(imm)",
            AsrsReg => "asrs(reg)",
            BCond => "b<c>",
            B => "b",
            Bics => "bics",
            Bkpt => "bkpt",
            Bl => "bl",
            BlxReg => "blx",
            Bx => "bx",
            Cmn => "cmn",
            CmpImm => "cmp(imm)",
            CmpReg => "cmp(reg)",
            CmpRegHigh => "cmp(reg,hi)",
            Cps => "cps",
            Dmb => "dmb",
            Dsb => "dsb",
            Eors => "eors",
            Isb => "isb",
            Ldm => "ldm",
            LdrImm => "ldr(imm)",
            LdrSp => "ldr(sp)",
            LdrLit => "ldr(lit)",
            LdrReg => "ldr(reg)",
            LdrbImm => "ldrb(imm)",
            LdrbReg => "ldrb(reg)",
            LdrhImm => "ldrh(imm)",
            LdrhReg => "ldrh(reg)",
            LdrsbReg => "ldrsb",
            LdrshReg => "ldrsh",
            LslsImm => "lsls(imm)",
            LslsReg => "lsls(reg)",
            LsrsImm => "lsrs(imm)",
            LsrsReg => "lsrs(reg)",
            MovImm => "movs(imm)",
            MovRegHigh => "mov(reg,hi)",
            MovsReg => "movs(reg)",
            Mrs => "mrs",
            Msr => "msr",
            Muls => "muls",
            Mvns => "mvns",
            Nop => "nop",
            Orrs => "orrs",
            Pop => "pop",
            Push => "push",
            Rev => "rev",
            Rev16 => "rev16",
            Revsh => "revsh",
            Rors => "rors",
            Rsbs => "rsbs",
            Sbcs => "sbcs",
            Sev => "sev",
            Stm => "stm",
            StrImm => "str(imm)",
            StrSp => "str(sp)",
            StrReg => "str(reg)",
            StrbImm => "strb(imm)",
            StrbReg => "strb(reg)",
            StrhImm => "strh(imm)",
            StrhReg => "strh(reg)",
            SubsReg => "subs(reg)",
            SubsImm3 => "subs(imm3)",
            SubsImm8 => "subs(imm8)",
            SubSpImm => "sub(sp,imm)",
            Svc => "svc",
            Sxtb => "sxtb",
            Sxth => "sxth",
            Tst => "tst",
            Udf => "udf",
            Uxtb => "uxtb",
            Uxth => "uxth",
            Wfe => "wfe",
            Wfi => "wfi",
            Yield => "yield",
        }
    }

    /// Functional class.
    pub fn class(self) -> ThumbClass {
        use ThumbInstr::*;
        match self {
            Dmb | Dsb | Isb => ThumbClass::Ordering,
            Sev | Wfe | Wfi | Yield => ThumbClass::Signaling,
            Muls => ThumbClass::Multiply,
            Cps | Mrs | Msr | Svc | Bkpt | Udf | Nop => ThumbClass::System,
            BCond | B | Bl | BlxReg | Bx => ThumbClass::Branch,
            Ldm | Stm | Push | Pop | LdrImm | LdrSp | LdrLit | LdrReg | LdrbImm | LdrbReg
            | LdrhImm | LdrhReg | LdrsbReg | LdrshReg | StrImm | StrSp | StrReg | StrbImm
            | StrbReg | StrhImm | StrhReg => ThumbClass::Memory,
            _ => ThumbClass::Alu,
        }
    }

    /// True for the seven 32-bit (two-halfword) forms.
    pub fn is_32bit(self) -> bool {
        use ThumbInstr::*;
        // Six of the paper's seven four-byte forms; the seventh (UDF.W) is
        // folded into the 16-bit UDF form in this inventory.
        matches!(self, Bl | Mrs | Msr | Dmb | Dsb | Isb)
    }

    /// The `(mask, value)` recognizer for this form. For 32-bit forms the
    /// pattern covers the full `hw1:hw2` word (hw1 in bits 31:16).
    pub fn pattern(self) -> Pattern {
        use ThumbInstr::*;
        match self {
            // 32-bit encodings (hw1 in the high halfword).
            Bl => Pattern::word(0xF800_D000, 0xF000_D000),
            Mrs => Pattern::word(0xFFFF_F000, 0xF3EF_8000),
            Msr => Pattern::word(0xFFE0_FF00, 0xF380_8800),
            Dmb => Pattern::word(0xFFF0_FFF0, 0xF3B0_8F50),
            Dsb => Pattern::word(0xFFF0_FFF0, 0xF3B0_8F40),
            Isb => Pattern::word(0xFFF0_FFF0, 0xF3B0_8F60),
            // 16-bit encodings.
            MovsReg => Pattern::half(0xFFC0, 0x0000),
            LslsImm => Pattern::half(0xF800, 0x0000),
            LsrsImm => Pattern::half(0xF800, 0x0800),
            AsrsImm => Pattern::half(0xF800, 0x1000),
            AddsReg => Pattern::half(0xFE00, 0x1800),
            SubsReg => Pattern::half(0xFE00, 0x1A00),
            AddsImm3 => Pattern::half(0xFE00, 0x1C00),
            SubsImm3 => Pattern::half(0xFE00, 0x1E00),
            MovImm => Pattern::half(0xF800, 0x2000),
            CmpImm => Pattern::half(0xF800, 0x2800),
            AddsImm8 => Pattern::half(0xF800, 0x3000),
            SubsImm8 => Pattern::half(0xF800, 0x3800),
            Ands => Pattern::half(0xFFC0, 0x4000),
            Eors => Pattern::half(0xFFC0, 0x4040),
            LslsReg => Pattern::half(0xFFC0, 0x4080),
            LsrsReg => Pattern::half(0xFFC0, 0x40C0),
            AsrsReg => Pattern::half(0xFFC0, 0x4100),
            Adcs => Pattern::half(0xFFC0, 0x4140),
            Sbcs => Pattern::half(0xFFC0, 0x4180),
            Rors => Pattern::half(0xFFC0, 0x41C0),
            Tst => Pattern::half(0xFFC0, 0x4200),
            Rsbs => Pattern::half(0xFFC0, 0x4240),
            CmpReg => Pattern::half(0xFFC0, 0x4280),
            Cmn => Pattern::half(0xFFC0, 0x42C0),
            Orrs => Pattern::half(0xFFC0, 0x4300),
            Muls => Pattern::half(0xFFC0, 0x4340),
            Bics => Pattern::half(0xFFC0, 0x4380),
            Mvns => Pattern::half(0xFFC0, 0x43C0),
            AddSpReg => Pattern::half(0xFF78, 0x4468),
            AddRegHigh => Pattern::half(0xFF00, 0x4400),
            CmpRegHigh => Pattern::half(0xFF00, 0x4500),
            MovRegHigh => Pattern::half(0xFF00, 0x4600),
            Bx => Pattern::half(0xFF87, 0x4700),
            BlxReg => Pattern::half(0xFF87, 0x4780),
            LdrLit => Pattern::half(0xF800, 0x4800),
            StrReg => Pattern::half(0xFE00, 0x5000),
            StrhReg => Pattern::half(0xFE00, 0x5200),
            StrbReg => Pattern::half(0xFE00, 0x5400),
            LdrsbReg => Pattern::half(0xFE00, 0x5600),
            LdrReg => Pattern::half(0xFE00, 0x5800),
            LdrhReg => Pattern::half(0xFE00, 0x5A00),
            LdrbReg => Pattern::half(0xFE00, 0x5C00),
            LdrshReg => Pattern::half(0xFE00, 0x5E00),
            StrImm => Pattern::half(0xF800, 0x6000),
            LdrImm => Pattern::half(0xF800, 0x6800),
            StrbImm => Pattern::half(0xF800, 0x7000),
            LdrbImm => Pattern::half(0xF800, 0x7800),
            StrhImm => Pattern::half(0xF800, 0x8000),
            LdrhImm => Pattern::half(0xF800, 0x8800),
            StrSp => Pattern::half(0xF800, 0x9000),
            LdrSp => Pattern::half(0xF800, 0x9800),
            Adr => Pattern::half(0xF800, 0xA000),
            AddSpImmT1 => Pattern::half(0xF800, 0xA800),
            AddSpImmT2 => Pattern::half(0xFF80, 0xB000),
            SubSpImm => Pattern::half(0xFF80, 0xB080),
            Sxth => Pattern::half(0xFFC0, 0xB200),
            Sxtb => Pattern::half(0xFFC0, 0xB240),
            Uxth => Pattern::half(0xFFC0, 0xB280),
            Uxtb => Pattern::half(0xFFC0, 0xB2C0),
            Push => Pattern::half(0xFE00, 0xB400),
            Cps => Pattern::half(0xFFE8, 0xB660),
            Rev => Pattern::half(0xFFC0, 0xBA00),
            Rev16 => Pattern::half(0xFFC0, 0xBA40),
            Revsh => Pattern::half(0xFFC0, 0xBAC0),
            Pop => Pattern::half(0xFE00, 0xBC00),
            Bkpt => Pattern::half(0xFF00, 0xBE00),
            Nop => Pattern::half(0xFFFF, 0xBF00),
            Yield => Pattern::half(0xFFFF, 0xBF10),
            Wfe => Pattern::half(0xFFFF, 0xBF20),
            Wfi => Pattern::half(0xFFFF, 0xBF30),
            Sev => Pattern::half(0xFFFF, 0xBF40),
            Stm => Pattern::half(0xF800, 0xC000),
            Ldm => Pattern::half(0xF800, 0xC800),
            Udf => Pattern::half(0xFF00, 0xDE00),
            Svc => Pattern::half(0xFF00, 0xDF00),
            BCond => Pattern::half(0xF000, 0xD000),
            B => Pattern::half(0xF800, 0xE000),
        }
    }
}

impl fmt::Display for ThumbInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}
