//! Environment restrictions: compiling ISA subsets into recognizer circuits
//! and constrained stimulus generators.
//!
//! This is the reproduction of the paper's Listings 2–3: the `rv32i_pkg`
//! properties become [`pdat_isa::Pattern`] recognizers; the
//! `assume property (rv32i_all(instr) and not unwanted(instr))` becomes an
//! AIG literal that must hold on every cycle; and the same pattern set
//! drives the constrained-random stimulus for the falsification stage.

use pdat_aig::{Aig, AigLit};
use pdat_cache::CanonicalForm;
use pdat_isa::armv6m::ThumbInstr;
use pdat_isa::rv32::RvInstr;
use pdat_isa::{Pattern, PatternWidth, RvSubset, ThumbSubset};
use rand::rngs::StdRng;
use rand::Rng;

/// Where the environment restriction attaches (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintMode {
    /// Constraints placed on the core's instruction-memory port.
    PortBased,
    /// Constraints placed on internal nets (the fetch-decode pipeline
    /// register inputs), with those nets cut from their drivers (Fig. 4).
    CutpointBased,
}

/// A compiled environment restriction over one instruction-word group of
/// AIG inputs: the recognizer literal plus a matching stimulus sampler.
pub struct InstrConstraint {
    /// Indices (into `aig.inputs()`) of the instruction word bits, LSB
    /// first.
    pub input_indices: Vec<usize>,
    /// Sampler: produces 64-lane words for the instruction bits.
    sampler: Sampler,
}

struct Sampler {
    /// `(mask, value, width_is_half, forbidden_bits)` per allowed form.
    forms: Vec<(u32, u32, bool, u32)>,
}

impl Sampler {
    /// One random allowed instruction word.
    fn sample(&self, rng: &mut StdRng) -> u32 {
        let (mask, value, half, forbidden) = self.forms[rng.gen_range(0..self.forms.len())];
        let free = !mask & !forbidden;
        let mut w = (rng.gen::<u32>() & free) | value;
        if half {
            w &= 0xFFFF;
            // Halfword low bits must not read as a 32-bit encoding; the
            // pattern guarantees it (compressed values have low2 != 11).
            // The upper 16 bits carry the *next* halfword in a real
            // fetch stream; leave them random but not a 32-bit prefix
            // problem — for analysis they are unconstrained.
            w |= rng.gen::<u32>() & 0xFFFF_0000;
        }
        w
    }
}

/// Exact-match recognizer for a form list: a word is allowed iff some
/// pattern matches it *and* no earlier-priority overlapping pattern from
/// the full inventory matches (mirroring a hardware priority decoder).
fn allowed_lit(
    aig: &mut Aig,
    bits: &[AigLit],
    allowed: &[(Pattern, u32)],
    all_priority: &[Pattern],
) -> AigLit {
    let mut terms = Vec::new();
    for (p, forbidden) in allowed {
        let mut m = match_lit(aig, bits, p);
        // Exclude earlier overlapping patterns (they'd decode differently).
        for q in all_priority {
            if q == p {
                break;
            }
            if q.overlaps(p) {
                let qm = match_lit(aig, bits, q);
                m = aig.and(m, !qm);
            }
        }
        // Field restrictions (e.g. RV32E register ceilings): the listed
        // bits must be 0.
        let mut f = *forbidden;
        while f != 0 {
            let bit = f.trailing_zeros() as usize;
            f &= f - 1;
            if bit < bits.len() {
                m = aig.and(m, !bits[bit]);
            }
        }
        terms.push(m);
    }
    aig.or_many(&terms)
}

fn match_lit(aig: &mut Aig, bits: &[AigLit], p: &Pattern) -> AigLit {
    let width = match p.width {
        PatternWidth::Half => 16,
        PatternWidth::Word => 32,
    };
    let mut terms = Vec::new();
    for (i, &bit) in bits.iter().enumerate().take(width) {
        if p.mask >> i & 1 == 1 {
            let want = p.value >> i & 1 == 1;
            terms.push(if want { bit } else { !bit });
        }
    }
    // 32-bit encodings additionally require low2 == 11; halfwords require
    // low2 != 11 — both already guaranteed by every pattern in the
    // inventories (checked by ISA-crate tests).
    aig.and_many(&terms)
}

/// Which instruction bits are register fields that RV32E must restrict
/// (bit 4 of rd/rs1/rs2 = instruction bits 11 / 19 / 24).
fn rv_reg_limit_bits(form: RvInstr) -> u32 {
    use RvInstr::*;
    let rd = 1 << 11;
    let rs1 = 1 << 19;
    let rs2 = 1 << 24;
    match form {
        Lui | Auipc | Jal => rd,
        Jalr | Lb | Lh | Lw | Lbu | Lhu | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli
        | Srai => rd | rs1,
        Beq | Bne | Blt | Bge | Bltu | Bgeu | Sb | Sh | Sw => rs1 | rs2,
        Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Mul | Mulh | Mulhsu | Mulhu
        | Div | Divu | Rem | Remu => rd | rs1 | rs2,
        Csrrw | Csrrs | Csrrc => rd | rs1,
        Csrrwi | Csrrsi | Csrrci => rd,
        Fence | FenceI | Ecall | Ebreak => 0,
        // Compressed forms with full 5-bit register fields: rd at 11:7,
        // rs2 at 6:2 → bit 4 of the fields are halfword bits 11 and 6.
        CSlli | CLwsp | CSwsp | CMv | CAdd | CAddi | CLi | CLui => (1 << 11) | (1 << 6),
        // Prime-register forms only address x8..x15: always within RV32E.
        _ => 0,
    }
}

/// The allowed `(pattern, forbidden-bits)` list an RV32 subset compiles
/// to — the single source of truth shared by the recognizer circuit, the
/// constrained-stimulus sampler, and the proof cache's canonical key.
fn rv_allowed_forms(subset: &RvSubset) -> Vec<(Pattern, u32)> {
    RvInstr::ALL
        .iter()
        .filter(|f| subset.contains(**f))
        .map(|f| {
            let forbidden = if subset.reg_limit == Some(16) {
                rv_reg_limit_bits(*f)
            } else {
                0
            };
            (f.pattern(), forbidden)
        })
        .collect()
}

/// The allowed halfword list a Thumb subset compiles to (see
/// [`thumb_constraint`] for the 32-bit-form imprecision).
fn thumb_allowed_forms(subset: &ThumbSubset) -> Vec<(Pattern, u32)> {
    let mut allowed: Vec<(Pattern, u32)> = ThumbInstr::ALL
        .iter()
        .filter(|f| !f.is_32bit() && subset.contains(**f))
        .map(|f| (f.pattern(), 0))
        .collect();
    // If any 32-bit form is allowed, permit its halfword encodings.
    if ThumbInstr::ALL
        .iter()
        .any(|f| f.is_32bit() && subset.contains(*f))
    {
        // hw1 prefixes and the (BL-style) second halfword.
        allowed.push((Pattern::half(0xF800, 0xF000), 0));
        allowed.push((Pattern::half(0xF800, 0xF800), 0));
        allowed.push((Pattern::half(0xD000, 0xD000), 0));
    }
    allowed
}

fn to_canonical(forms: &[(Pattern, u32)]) -> Vec<CanonicalForm> {
    forms
        .iter()
        .map(|(p, forbidden)| CanonicalForm {
            half: p.width == PatternWidth::Half,
            mask: p.mask,
            value: p.value,
            forbidden: *forbidden,
        })
        .collect()
}

/// Canonical cache forms for an RV32 subset: exactly the form set
/// [`rv_constraint`] compiles, so environments that build identical
/// recognizers canonicalize identically. (The recognizer's
/// priority-exclusion terms depend only on the full form inventory, not
/// on the subset, so per-form identity is the whole constraint
/// identity.)
pub fn rv_canonical_forms(subset: &RvSubset) -> Vec<CanonicalForm> {
    to_canonical(&rv_allowed_forms(subset))
}

/// Canonical cache forms for a Thumb subset (see
/// [`rv_canonical_forms`]).
pub fn thumb_canonical_forms(subset: &ThumbSubset) -> Vec<CanonicalForm> {
    to_canonical(&thumb_allowed_forms(subset))
}

/// Compile an RV32 subset into a constraint over a 32-bit instruction word
/// whose bits are the AIG inputs at `input_indices`.
pub fn rv_constraint(
    aig: &mut Aig,
    input_lits: &[AigLit],
    input_indices: Vec<usize>,
    subset: &RvSubset,
) -> (AigLit, InstrConstraint) {
    let all_priority: Vec<Pattern> = RvInstr::ALL.iter().map(|f| f.pattern()).collect();
    let allowed = rv_allowed_forms(subset);
    let lit = allowed_lit(aig, input_lits, &allowed, &all_priority);
    let sampler = Sampler {
        forms: allowed
            .iter()
            .map(|(p, forbidden)| (p.mask, p.value, p.width == PatternWidth::Half, *forbidden))
            .collect(),
    };
    (
        lit,
        InstrConstraint {
            input_indices,
            sampler,
        },
    )
}

/// Compile a Thumb subset into a constraint over a 16-bit fetch halfword.
///
/// 32-bit forms span two fetches; under port-based constraints (the only
/// option for the obfuscated core) their two halfwords are allowed
/// independently — exactly the imprecision the paper describes for the
/// Cortex-M0 (§VII-B).
pub fn thumb_constraint(
    aig: &mut Aig,
    input_lits: &[AigLit],
    input_indices: Vec<usize>,
    subset: &ThumbSubset,
) -> (AigLit, InstrConstraint) {
    let all_priority: Vec<Pattern> = ThumbInstr::ALL
        .iter()
        .filter(|f| !f.is_32bit())
        .map(|f| f.pattern())
        .collect();
    let allowed = thumb_allowed_forms(subset);
    let lit = allowed_lit(aig, input_lits, &allowed, &all_priority);
    let sampler = Sampler {
        forms: allowed
            .iter()
            .map(|(p, f)| (p.mask, p.value, true, *f))
            .collect(),
    };
    (
        lit,
        InstrConstraint {
            input_indices,
            sampler,
        },
    )
}

impl InstrConstraint {
    /// Fill `words` (one 64-lane word per AIG input) with constrained
    /// instruction bits for this group; other inputs are untouched.
    pub fn drive(&self, rng: &mut StdRng, words: &mut [u64]) {
        // Sample 64 lanes independently, then transpose into bit-words.
        let mut lanes = [0u32; 64];
        for lane in lanes.iter_mut() {
            *lane = self.sampler.sample(rng);
        }
        for (bit, &input_idx) in self.input_indices.iter().enumerate() {
            let mut w = 0u64;
            for (lane, &v) in lanes.iter().enumerate() {
                if v >> bit & 1 == 1 {
                    w |= 1 << lane;
                }
            }
            words[input_idx] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_aig::AigSimulator;
    use rand::SeedableRng;

    fn fresh_instr_aig() -> (Aig, Vec<AigLit>, Vec<usize>) {
        let mut aig = Aig::new();
        let lits: Vec<AigLit> = (0..32).map(|_| aig.add_input()).collect();
        let idx: Vec<usize> = (0..32).collect();
        (aig, lits, idx)
    }

    fn eval_constraint(aig: &Aig, lit: AigLit, word: u32) -> bool {
        let mut sim = AigSimulator::new(aig);
        let inputs: Vec<u64> = (0..aig.inputs().len())
            .map(|i| {
                if i < 32 && word >> i & 1 == 1 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        sim.eval(&inputs);
        sim.lit_word(lit) & 1 == 1
    }

    #[test]
    fn rv32i_constraint_accepts_base_rejects_m() {
        use pdat_isa::rv32::encode as e;
        let (mut aig, lits, idx) = fresh_instr_aig();
        let (lit, _c) = rv_constraint(&mut aig, &lits, idx, &RvSubset::rv32i());
        assert!(eval_constraint(&aig, lit, e::add(1, 2, 3)));
        assert!(eval_constraint(&aig, lit, e::beq(1, 2, 8)));
        assert!(eval_constraint(&aig, lit, e::ecall()));
        assert!(!eval_constraint(&aig, lit, e::mul(1, 2, 3)), "M excluded");
        assert!(
            !eval_constraint(&aig, lit, e::csrrw(1, 0x300, 2)),
            "Zicsr excluded"
        );
        assert!(
            !eval_constraint(&aig, lit, e::c_addi(5, 1) as u32),
            "compressed excluded"
        );
        assert!(!eval_constraint(&aig, lit, 0xFFFF_FFFF), "junk excluded");
    }

    #[test]
    fn rv32e_limits_register_fields() {
        use pdat_isa::rv32::encode as e;
        let (mut aig, lits, idx) = fresh_instr_aig();
        let (lit, _c) = rv_constraint(&mut aig, &lits, idx, &RvSubset::rv32e());
        assert!(eval_constraint(&aig, lit, e::add(1, 2, 3)));
        assert!(!eval_constraint(&aig, lit, e::add(16, 2, 3)), "rd >= x16");
        assert!(!eval_constraint(&aig, lit, e::add(1, 17, 3)), "rs1 >= x16");
        assert!(!eval_constraint(&aig, lit, e::add(1, 2, 31)), "rs2 >= x16");
        // Immediates must remain unconstrained: bit 24 is imm[4] in I-type.
        assert!(eval_constraint(&aig, lit, e::addi(1, 2, 0x7F0)));
    }

    #[test]
    fn safety_critical_rejects_jalr() {
        use pdat_isa::rv32::encode as e;
        let (mut aig, lits, idx) = fresh_instr_aig();
        let (lit, _c) = rv_constraint(&mut aig, &lits, idx, &RvSubset::safety_critical());
        assert!(!eval_constraint(&aig, lit, e::jalr(0, 1, 0)));
        assert!(!eval_constraint(&aig, lit, e::ecall()));
        assert!(eval_constraint(&aig, lit, e::jal(0, 8)));
    }

    #[test]
    fn sampler_only_produces_allowed_words() {
        let subset = RvSubset::rv32im();
        let (mut aig, lits, idx) = fresh_instr_aig();
        let (lit, c) = rv_constraint(&mut aig, &lits, idx, &subset);
        let mut rng = StdRng::seed_from_u64(42);
        let mut words = vec![0u64; aig.inputs().len()];
        for _ in 0..20 {
            c.drive(&mut rng, &mut words);
            // Check lane 0 and lane 17.
            for lane in [0usize, 17] {
                let mut w = 0u32;
                for (bit, word) in words.iter().enumerate().take(32) {
                    if word >> lane & 1 == 1 {
                        w |= 1 << bit;
                    }
                }
                assert!(
                    eval_constraint(&aig, lit, w),
                    "sampled word {w:#010x} rejected by its own recognizer"
                );
                let form = pdat_isa::rv32::decode_form(w).expect("decodable");
                assert!(subset.contains(form), "{form} outside subset");
            }
        }
    }

    #[test]
    fn canonical_forms_are_name_independent_and_content_sensitive() {
        use pdat_cache::{CanonicalEnv, EnvMode};
        let key = |s: &RvSubset| {
            CanonicalEnv::canonicalize(
                EnvMode::RvPort,
                vec![(0..32).collect()],
                rv_canonical_forms(s),
                vec![],
            )
            .fingerprint()
        };
        let mut renamed = RvSubset::rv32i();
        renamed.name = "renamed".to_string();
        assert_eq!(key(&RvSubset::rv32i()), key(&renamed));
        assert_ne!(key(&RvSubset::rv32i()), key(&RvSubset::rv32im()));
        assert_ne!(
            key(&RvSubset::rv32i()),
            key(&RvSubset::rv32e()),
            "register ceilings are part of the constraint identity"
        );
        let thumb_key = |s: &ThumbSubset| {
            CanonicalEnv::canonicalize(
                EnvMode::ThumbPort,
                vec![(0..16).collect()],
                thumb_canonical_forms(s),
                vec![],
            )
            .fingerprint()
        };
        assert_ne!(
            thumb_key(&ThumbSubset::armv6m()),
            thumb_key(&ThumbSubset::interesting_subset())
        );
    }

    #[test]
    fn canonical_envs_order_the_subset_lattice() {
        use pdat_cache::{CanonicalEnv, EnvMode};
        let rv = |s: &RvSubset| {
            CanonicalEnv::canonicalize(
                EnvMode::RvPort,
                vec![(0..32).collect()],
                rv_canonical_forms(s),
                vec![],
            )
        };
        let imcz = rv(&RvSubset::rv32imcz());
        let i = rv(&RvSubset::rv32i());
        let e = rv(&RvSubset::rv32e());
        let sc = rv(&RvSubset::safety_critical());
        assert!(imcz.is_superset_of(&i));
        assert!(i.is_superset_of(&sc));
        assert!(imcz.is_superset_of(&sc), "transitive");
        assert!(!sc.is_superset_of(&i));
        assert!(i.is_superset_of(&e), "ceiling only restricts");
        assert!(!e.is_superset_of(&i), "ceiling blocks the reverse");
        assert!(i.is_superset_of(&i), "reflexive");
        let thumb = |s: &ThumbSubset| {
            CanonicalEnv::canonicalize(
                EnvMode::ThumbPort,
                vec![(0..16).collect()],
                thumb_canonical_forms(s),
                vec![],
            )
        };
        let full = thumb(&ThumbSubset::armv6m());
        let interesting = thumb(&ThumbSubset::interesting_subset());
        assert!(full.is_superset_of(&interesting));
        assert!(!interesting.is_superset_of(&full));
    }

    #[test]
    fn golden_cache_keys_are_stable() {
        // Golden fingerprints: these must never change across releases —
        // a silent change invalidates (or worse, mis-hits) every
        // persisted proof cache. If an intentional format change breaks
        // them, bump the cache file version in `pdat-cache::io` and
        // re-pin.
        use pdat_cache::{CanonicalEnv, EnvMode};
        let rv = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![(0..32).collect()],
            rv_canonical_forms(&RvSubset::rv32i()),
            vec![],
        );
        assert_eq!(rv.fingerprint(), 0x37137c0d8b941845, "RV32I port-mode key");
        let thumb = CanonicalEnv::canonicalize(
            EnvMode::ThumbCut,
            vec![(0..16).collect()],
            thumb_canonical_forms(&ThumbSubset::interesting_subset()),
            vec![],
        );
        assert_eq!(
            thumb.fingerprint(),
            0x401cdf76d12dedd6,
            "Thumb cut-mode key"
        );
        assert_eq!(
            CanonicalEnv::unconstrained().fingerprint(),
            0xd4657f55662f817f,
            "unconstrained key"
        );
    }

    #[test]
    fn thumb_constraint_behaviour() {
        use pdat_isa::armv6m::encode::*;
        let mut aig = Aig::new();
        let lits: Vec<AigLit> = (0..16).map(|_| aig.add_input()).collect();
        let idx: Vec<usize> = (0..16).collect();
        let subset = ThumbSubset::interesting_subset();
        let (lit, _c) = thumb_constraint(&mut aig, &lits, idx, &subset);
        let eval = |aig: &Aig, word: u16| {
            let mut sim = AigSimulator::new(aig);
            let inputs: Vec<u64> = (0..16)
                .map(|i| if word >> i & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            sim.eval(&inputs);
            sim.lit_word(lit) & 1 == 1
        };
        assert!(eval(&aig, t_add_reg(1, 2, 3)));
        assert!(eval(&aig, t_mov_imm(0, 5)));
        assert!(!eval(&aig, t_mul(1, 2)), "multiply excluded");
        assert!(!eval(&aig, 0xBF20), "wfe excluded");
        // No 32-bit forms in the subset: BL prefix rejected.
        assert!(!eval(&aig, 0xF000), "BL hw1 rejected");
    }
}
