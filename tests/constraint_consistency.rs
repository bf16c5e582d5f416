//! Cross-checks the three views of an ISA subset against each other for
//! *every* named subset in the repository: the membership predicate
//! (`RvSubset::contains`), the software decoder (`decode_form`), and the
//! hardware recognizer circuit built by the constraint compiler. A mismatch
//! in any direction would make PDAT prove invariants under the wrong
//! environment.

use pdat_repro::aig::{Aig, AigLit, AigSimulator};
use pdat_repro::isa::rv32::decode_form;
use pdat_repro::isa::RvSubset;
use pdat_repro::rv_constraint;
use pdat_repro::workloads::{mibench_rv_all, mibench_rv_subset, BenchGroup};

fn recognizer(subset: &RvSubset) -> (Aig, AigLit) {
    let mut aig = Aig::new();
    let lits: Vec<AigLit> = (0..32).map(|_| aig.add_input()).collect();
    let idx: Vec<usize> = (0..32).collect();
    let (lit, _c) = rv_constraint(&mut aig, &lits, idx, subset);
    (aig, lit)
}

fn accepts(aig: &Aig, lit: AigLit, word: u32) -> bool {
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

fn all_named_subsets() -> Vec<RvSubset> {
    vec![
        RvSubset::rv32imcz(),
        RvSubset::rv32imc(),
        RvSubset::rv32im(),
        RvSubset::rv32ic(),
        RvSubset::rv32i(),
        RvSubset::reduced_addressing(),
        RvSubset::safety_critical(),
        RvSubset::no_parallelism(),
        RvSubset::aligned(),
        RvSubset::risc16(),
        mibench_rv_subset(BenchGroup::Networking),
        mibench_rv_subset(BenchGroup::Security),
        mibench_rv_subset(BenchGroup::Automotive),
        mibench_rv_all(),
    ]
}

/// Deterministic xorshift for word fuzzing without extra dependencies.
fn words(seed: u64, n: usize) -> Vec<u32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u32
        })
        .collect()
}

#[test]
fn recognizer_agrees_with_decoder_and_membership() {
    for subset in all_named_subsets() {
        let (aig, lit) = recognizer(&subset);
        // Canonical encodings of every form: accepted iff in the subset.
        for form in pdat_repro::isa::rv32::RvInstr::ALL {
            let p = form.pattern();
            let word = p.value;
            // The canonical value may be claimed by a higher-priority form;
            // use the decoder as the ground truth for identity.
            let decoded = decode_form(word);
            if decoded != Some(form) {
                continue;
            }
            let expect = subset.contains(form) && subset.reg_limit.is_none();
            // (reg-limited subsets are handled in the fuzz loop below)
            if subset.reg_limit.is_none() {
                assert_eq!(
                    accepts(&aig, lit, word),
                    expect,
                    "{}: canonical {form} word {word:#010x}",
                    subset.name
                );
            }
        }
        // Random words: recognizer acceptance must imply the decoded form
        // is in the subset, and rejection must imply either undecodable or
        // out-of-subset (modulo the RV32E register ceiling).
        for word in words(0xC0415EED ^ subset.instrs.len() as u64, 4000) {
            let hw_ok = accepts(&aig, lit, word);
            match decode_form(word) {
                Some(form) => {
                    if hw_ok {
                        assert!(
                            subset.contains(form),
                            "{}: accepted {word:#010x} decoding to out-of-subset {form}",
                            subset.name
                        );
                    } else if subset.contains(form) && subset.reg_limit.is_none() {
                        panic!(
                            "{}: rejected {word:#010x} decoding to in-subset {form}",
                            subset.name
                        );
                    }
                }
                None => {
                    assert!(
                        !hw_ok,
                        "{}: accepted undecodable word {word:#010x}",
                        subset.name
                    );
                }
            }
        }
    }
}

#[test]
fn rv32e_ceiling_is_exact() {
    let subset = RvSubset::rv32e();
    let (aig, lit) = recognizer(&subset);
    use pdat_repro::isa::rv32::encode as e;
    for r in 0..32 {
        assert_eq!(accepts(&aig, lit, e::add(r, 1, 2)), r < 16, "rd = x{r}");
        assert_eq!(accepts(&aig, lit, e::add(1, r, 2)), r < 16, "rs1 = x{r}");
        assert_eq!(accepts(&aig, lit, e::add(1, 2, r)), r < 16, "rs2 = x{r}");
    }
    // Immediate bits overlapping the rs2 field position must stay free.
    assert!(accepts(&aig, lit, e::addi(1, 2, 0x7FF)));
    assert!(accepts(&aig, lit, e::jal(1, (1 << 20) - 2)));
}
