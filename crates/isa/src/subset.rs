//! ISA subsets: the objects PDAT's environment restrictions are built from.
//!
//! A subset names the instruction forms that remain supported. The named
//! constructors below correspond exactly to the core variants evaluated in
//! the paper's Figures 5–7.

use crate::armv6m::{ThumbClass, ThumbInstr};
use crate::rv32::{RvExtension, RvInstr};
use std::collections::BTreeSet;
use std::fmt;

/// A reduced RV32 ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvSubset {
    /// Variant name (used in reports and figures).
    pub name: String,
    /// Allowed instruction forms.
    pub instrs: BTreeSet<RvInstr>,
    /// If `Some(n)`, register fields are additionally constrained to
    /// `x0..x(n-1)` (RV32E uses `Some(16)`).
    pub reg_limit: Option<u32>,
}

impl RvSubset {
    /// Build a subset from any iterator of forms.
    pub fn new(name: impl Into<String>, instrs: impl IntoIterator<Item = RvInstr>) -> RvSubset {
        RvSubset {
            name: name.into(),
            instrs: instrs.into_iter().collect(),
            reg_limit: None,
        }
    }

    fn with_extensions(name: &str, exts: &[RvExtension]) -> RvSubset {
        RvSubset::new(
            name,
            RvInstr::ALL
                .iter()
                .copied()
                .filter(|i| exts.contains(&i.extension())),
        )
    }

    /// RV32IMC + Zicsr/Zifencei — everything the Ibex-class core supports
    /// (the paper's "Ibex ISA" PDAT baseline).
    pub fn rv32imcz() -> RvSubset {
        use RvExtension::*;
        RvSubset::with_extensions("RV32imcz", &[I, M, C, Zicsr])
    }

    /// RV32IMC (drops the z-extension).
    pub fn rv32imc() -> RvSubset {
        use RvExtension::*;
        RvSubset::with_extensions("RV32imc", &[I, M, C])
    }

    /// RV32IM.
    pub fn rv32im() -> RvSubset {
        use RvExtension::*;
        RvSubset::with_extensions("RV32im", &[I, M])
    }

    /// RV32IC.
    pub fn rv32ic() -> RvSubset {
        use RvExtension::*;
        RvSubset::with_extensions("RV32ic", &[I, C])
    }

    /// RV32I base only.
    pub fn rv32i() -> RvSubset {
        RvSubset::with_extensions("RV32i", &[RvExtension::I])
    }

    /// RV32E: the base ISA restricted to 16 architectural registers.
    pub fn rv32e() -> RvSubset {
        let mut s = RvSubset::with_extensions("RV32e", &[RvExtension::I]);
        s.name = "RV32e".to_string();
        s.reg_limit = Some(16);
        s
    }

    /// "Reduced Addressing" (paper Fig. 5): removes register-register
    /// (R-type format) instructions.
    pub fn reduced_addressing() -> RvSubset {
        use RvInstr::*;
        let r_type: BTreeSet<RvInstr> = [
            Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Mul, Mulh, Mulhsu, Mulhu, Div, Divu,
            Rem, Remu,
        ]
        .into_iter()
        .collect();
        let mut s = RvSubset::rv32i();
        s.instrs.retain(|i| !r_type.contains(i));
        s.name = "Reduced Addressing".to_string();
        s
    }

    /// "Safety Critical" (paper Fig. 5): removes JALR, AUIPC, FENCE, ECALL,
    /// and EBREAK.
    pub fn safety_critical() -> RvSubset {
        use RvInstr::*;
        let mut s = RvSubset::rv32i();
        for bad in [Jalr, Auipc, Fence, Ecall, Ebreak] {
            s.instrs.remove(&bad);
        }
        s.name = "Safety Critical".to_string();
        s
    }

    /// "No Parallelism" (paper Fig. 5): removes bit-parallel (logical and
    /// shift) instructions.
    pub fn no_parallelism() -> RvSubset {
        use RvInstr::*;
        let mut s = RvSubset::rv32i();
        for bad in [
            Sll, Srl, Sra, And, Or, Xor, Slli, Srli, Srai, Andi, Ori, Xori,
        ] {
            s.instrs.remove(&bad);
        }
        s.name = "No Parallelism".to_string();
        s
    }

    /// "Aligned" (paper Fig. 5): removes non-word-aligned memory accesses
    /// (all byte and halfword loads/stores).
    pub fn aligned() -> RvSubset {
        use RvInstr::*;
        let mut s = RvSubset::rv32i();
        for bad in [Lb, Lh, Lbu, Lhu, Sb, Sh] {
            s.instrs.remove(&bad);
        }
        s.name = "Aligned".to_string();
        s
    }

    /// "RiSC 16" (paper Fig. 5): the c-extension's ADD, ADDI, AND, XOR,
    /// LUI, LW, SW and BEQZ forms plus the base JALR — roughly the RiSC-16
    /// teaching ISA.
    pub fn risc16() -> RvSubset {
        use RvInstr::*;
        RvSubset::new(
            "RiSC 16",
            [CAdd, CAddi, CAnd, CXor, CLui, CLw, CSw, CBeqz, Jalr],
        )
    }

    /// Does the subset allow this form?
    pub fn contains(&self, i: RvInstr) -> bool {
        self.instrs.contains(&i)
    }

    /// Number of allowed forms, grouped by extension (Table I row shape).
    pub fn count_by_extension(&self) -> [(RvExtension, usize); 4] {
        use RvExtension::*;
        [I, M, C, Zicsr].map(|e| (e, self.instrs.iter().filter(|i| i.extension() == e).count()))
    }
}

impl fmt::Display for RvSubset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} forms)", self.name, self.instrs.len())
    }
}

/// A reduced ARMv6-M ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThumbSubset {
    /// Variant name.
    pub name: String,
    /// Allowed instruction forms.
    pub instrs: BTreeSet<ThumbInstr>,
}

impl ThumbSubset {
    /// Build a subset from any iterator of forms.
    pub fn new(
        name: impl Into<String>,
        instrs: impl IntoIterator<Item = ThumbInstr>,
    ) -> ThumbSubset {
        ThumbSubset {
            name: name.into(),
            instrs: instrs.into_iter().collect(),
        }
    }

    /// The full 83-form ARMv6-M ISA.
    pub fn armv6m() -> ThumbSubset {
        ThumbSubset::new("ARMv6-M", ThumbInstr::ALL)
    }

    /// The paper's "interesting subset": ARMv6-M minus memory-ordering
    /// instructions, inter-core signaling instructions, the multiply
    /// instruction, and all four-byte instructions. Every remaining form is
    /// two bytes, so all branch targets land on valid subset instructions.
    pub fn interesting_subset() -> ThumbSubset {
        ThumbSubset::new(
            "Interesting Subset",
            ThumbInstr::ALL.iter().copied().filter(|i| {
                !i.is_32bit()
                    && !matches!(
                        i.class(),
                        ThumbClass::Ordering | ThumbClass::Signaling | ThumbClass::Multiply
                    )
            }),
        )
    }

    /// Does the subset allow this form?
    pub fn contains(&self, i: ThumbInstr) -> bool {
        self.instrs.contains(&i)
    }
}

impl fmt::Display for ThumbSubset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} forms)", self.name, self.instrs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_subsets_have_expected_sizes() {
        assert_eq!(RvSubset::rv32imcz().instrs.len(), 78);
        assert_eq!(RvSubset::rv32imc().instrs.len(), 71);
        assert_eq!(RvSubset::rv32im().instrs.len(), 48);
        assert_eq!(RvSubset::rv32ic().instrs.len(), 63);
        assert_eq!(RvSubset::rv32i().instrs.len(), 40);
        assert_eq!(RvSubset::rv32e().instrs.len(), 40);
        assert_eq!(RvSubset::rv32e().reg_limit, Some(16));
    }

    #[test]
    fn special_variants_remove_what_they_claim() {
        let sc = RvSubset::safety_critical();
        assert!(!sc.contains(RvInstr::Jalr));
        assert!(!sc.contains(RvInstr::Ecall));
        assert!(sc.contains(RvInstr::Jal));

        let ra = RvSubset::reduced_addressing();
        assert!(!ra.contains(RvInstr::Add));
        assert!(ra.contains(RvInstr::Addi));

        let np = RvSubset::no_parallelism();
        assert!(!np.contains(RvInstr::And));
        assert!(!np.contains(RvInstr::Slli));
        assert!(np.contains(RvInstr::Add));

        let al = RvSubset::aligned();
        assert!(!al.contains(RvInstr::Lb));
        assert!(al.contains(RvInstr::Lw));

        let r16 = RvSubset::risc16();
        assert_eq!(r16.instrs.len(), 9);
        assert!(r16.contains(RvInstr::CBeqz));
    }

    #[test]
    fn table1_row_shape() {
        let counts = RvSubset::rv32imcz().count_by_extension();
        assert_eq!(counts[0].1, 40);
        assert_eq!(counts[1].1, 8);
        assert_eq!(counts[2].1, 23);
        assert_eq!(counts[3].1, 7);
    }

    #[test]
    fn interesting_subset_is_all_two_byte() {
        let s = ThumbSubset::interesting_subset();
        assert!(s.instrs.iter().all(|i| !i.is_32bit()));
        assert!(!s.contains(ThumbInstr::Muls));
        assert!(!s.contains(ThumbInstr::Dmb));
        assert!(!s.contains(ThumbInstr::Wfi));
        assert!(!s.contains(ThumbInstr::Bl));
        assert!(s.contains(ThumbInstr::AddsReg));
        assert!(s.instrs.len() < ThumbSubset::armv6m().instrs.len());
    }

    #[test]
    fn armv6m_has_83_forms() {
        assert_eq!(ThumbSubset::armv6m().instrs.len(), 83);
    }
}
