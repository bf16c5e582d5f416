//! Soundness of the subset-lattice proof cache under random chains.
//!
//! For random chains `E0 ⊇ E1 ⊇ E2 ⊇ E3` of RV32I subsets the cache
//! must be a *pure accelerator*:
//!
//! - warm-started answers (lattice hits that inject an ancestor's proved
//!   set as pre-committed Houdini hypotheses) are bit-identical to cold
//!   runs of the same request — monotonicity along the lattice means a
//!   warm start can neither invent nor lose invariants;
//! - a budget-starved warm run proves a *subset* of the unbudgeted warm
//!   run (mirroring `tests/budget_soundness.rs` for the cached path),
//!   and, being degraded, is never inserted into the cache.
//!
//! The fixture is a small instruction-port design whose proved set
//! genuinely varies with the subset: one exact-pattern detector per
//! watched instruction feeds a sticky latch, so removing a watched
//! instruction from the environment makes its detector (and latch)
//! provably constant-false.

use pdat_repro::isa::rv32::RvInstr;
use pdat_repro::isa::RvSubset;
use pdat_repro::netlist::{CellKind, NetId, Netlist};
use pdat_repro::{
    run_pdat_batch, run_pdat_cached, BatchRequest, CacheEffect, ConstraintMode, Environment,
    Governor, PdatConfig, PreparedNetlist, ProofCache, SubsetReport,
};
use std::borrow::Cow;
use proptest::prelude::*;
use std::collections::HashSet;

/// Instructions the fixture watches for. Removing any of these from the
/// subset turns its detector into a provable constant.
const WATCHED: [RvInstr; 8] = [
    RvInstr::Add,
    RvInstr::Sub,
    RvInstr::Xor,
    RvInstr::Jalr,
    RvInstr::Lb,
    RvInstr::Sw,
    RvInstr::Andi,
    RvInstr::Beq,
];

/// A 32-bit instruction port driving one exact-pattern detector and one
/// sticky "ever seen" latch per watched instruction.
fn detector_core() -> (Netlist, Vec<NetId>) {
    let mut nl = Netlist::new("rvdet");
    let port: Vec<NetId> = (0..32).map(|b| nl.add_input(&format!("i{b}"))).collect();
    for instr in WATCHED {
        let p = instr.pattern();
        let tag = format!("{instr:?}").to_lowercase();
        let mut acc: Option<NetId> = None;
        for b in 0..32 {
            if p.mask >> b & 1 == 0 {
                continue;
            }
            let bit = if p.value >> b & 1 == 1 {
                port[b]
            } else {
                nl.add_cell(CellKind::Inv, &[port[b]], &format!("{tag}_n{b}"))
            };
            acc = Some(match acc {
                None => bit,
                Some(a) => nl.add_cell(CellKind::And2, &[a, bit], &format!("{tag}_a{b}")),
            });
        }
        let det = acc.expect("pattern has masked bits");
        let fb = nl.add_net(&format!("{tag}_fb"));
        let q = nl.add_dff(fb, false, &format!("{tag}_seen"));
        let sticky = nl.add_cell(CellKind::Or2, &[q, det], &format!("{tag}_sticky"));
        nl.assign_alias(fb, sticky);
        nl.add_output(&format!("saw_{tag}"), sticky);
    }
    nl.validate().expect("fixture netlist valid");
    (nl, port)
}

fn base_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xCAC4E,
        ..Default::default()
    }
}

/// Deterministic xorshift so the chain derivation needs no extra deps.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Remove `n` random forms (keeping at least 8) — a strict descendant.
fn shrink(rng: &mut XorShift, base: &RvSubset, n: usize, name: &str) -> RvSubset {
    let mut forms: Vec<RvInstr> = base.instrs.iter().copied().collect();
    let n = n.max(1).min(forms.len().saturating_sub(8));
    for _ in 0..n {
        let k = rng.below(forms.len());
        forms.swap_remove(k);
    }
    RvSubset::new(name, forms)
}

/// `E0 ⊇ E1 ⊇ E2 ⊇ E3`, all strict.
fn chain(seed: u64) -> Vec<RvSubset> {
    let mut rng = XorShift(seed | 1);
    let (n0, n1) = (1 + rng.below(2), 2 + rng.below(3));
    let (n2, n3) = (2 + rng.below(3), 2 + rng.below(2));
    let e0 = shrink(&mut rng, &RvSubset::rv32i(), n0, "e0");
    let e1 = shrink(&mut rng, &e0, n1, "e1");
    let e2 = shrink(&mut rng, &e1, n2, "e2");
    let e3 = shrink(&mut rng, &e2, n3, "e3");
    vec![e0, e1, e2, e3]
}

fn port_env<'a>(subset: &'a RvSubset, port: &[NetId]) -> Environment<'a> {
    Environment::Rv {
        subset,
        ports: vec![port.to_vec()],
        mode: ConstraintMode::PortBased,
    }
}

fn cold(nl: &Netlist, env: &Environment<'_>, config: &PdatConfig) -> SubsetReport {
    let fresh = ProofCache::new();
    let report = run_pdat_cached(nl, env, &[], config, &fresh).expect("cold run");
    assert!(matches!(report.cache, CacheEffect::Miss));
    // An oracle cut short by a budget would make the comparison vacuous.
    let res = report.result.as_ref().expect("a miss solves");
    assert!(
        res.degradations.is_empty(),
        "cold oracle degraded: {:?}",
        res.degradations
    );
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm-started answers along a random chain are bit-identical to
    /// cold runs, and budget starvation of a warm run only shrinks the
    /// proved set.
    #[test]
    fn warm_equals_cold_and_starved_warm_shrinks(seed in any::<u64>()) {
        let (nl, port) = detector_core();
        let config = base_config();
        let subsets = chain(seed);

        // Cold oracle for the first three links, each with a fresh cache.
        let cold_reports: Vec<SubsetReport> = subsets[..3]
            .iter()
            .map(|s| cold(&nl, &port_env(s, &port), &config))
            .collect();
        // The chain is strict, so the proved sets grow along it (every
        // removal makes at least one more detector provably dead).
        prop_assert!(cold_reports[0].proved.len() <= cold_reports[2].proved.len());

        // Warm pass: one batch, one shared cache. E0 misses; E1 and E2
        // are strict descendants, so they must warm-start off an
        // ancestor — and still answer bit-identically.
        let shared = ProofCache::new();
        let requests: Vec<BatchRequest> = subsets[..3]
            .iter()
            .map(|s| BatchRequest { env: port_env(s, &port), extras: Vec::new() })
            .collect();
        let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
        let warm: Vec<SubsetReport> =
            run_pdat_batch(&prepared, &requests, &config, &Governor::unlimited(), &shared)
            .into_iter()
            .map(|r| r.expect("well-formed warm request"))
            .collect();
        prop_assert!(matches!(warm[0].cache, CacheEffect::Miss));
        for (i, (c, w)) in cold_reports.iter().zip(&warm).enumerate() {
            prop_assert_eq!(
                &c.proved, &w.proved,
                "chain link {} diverged between cold and warm", i
            );
            prop_assert_eq!(
                (c.summary.optimized.gate_count, c.summary.optimized.dff_count),
                (w.summary.optimized.gate_count, w.summary.optimized.dff_count)
            );
            if i > 0 {
                prop_assert!(
                    matches!(w.cache, CacheEffect::LatticeHit { .. }),
                    "strict descendant {} should warm-start, got {:?}", i, w.cache
                );
            }
        }

        // E3 starved: one SAT conflict per query. Still a lattice hit
        // (E3 is not cached), still sound — proves at most what the
        // unbudgeted warm run proves — and, being degraded, must not
        // enter the cache.
        let starved_cfg = PdatConfig { conflict_budget: Some(1), ..base_config() };
        let env3 = port_env(&subsets[3], &port);
        let cached_before = shared.len();
        let starved = run_pdat_cached(&nl, &env3, &[], &starved_cfg, &shared)
            .expect("starved warm run");
        prop_assert!(matches!(starved.cache, CacheEffect::LatticeHit { .. }));
        if let Some(res) = &starved.result {
            if !res.degradations.is_empty() {
                prop_assert_eq!(
                    shared.len(), cached_before,
                    "a degraded run must not be cached"
                );
            }
        }
        let unbudgeted = run_pdat_cached(&nl, &env3, &[], &config, &shared)
            .expect("unbudgeted warm run");
        let starved_set: HashSet<_> = starved.proved.iter().collect();
        let unbudgeted_set: HashSet<_> = unbudgeted.proved.iter().collect();
        prop_assert!(
            starved_set.is_subset(&unbudgeted_set),
            "budget starvation must not invent proofs"
        );
        // And the deepest link agrees with its own cold oracle.
        let cold3 = cold(&nl, &env3, &config);
        prop_assert_eq!(&cold3.proved, &unbudgeted.proved);
    }
}

/// The fixture really discriminates: dropping a watched instruction
/// grows the proved set (its detector dies), so the cache is tested on
/// environments with genuinely different fixpoints.
#[test]
fn detector_fixture_is_subset_sensitive() {
    let (nl, port) = detector_core();
    let config = base_config();
    let full = RvSubset::rv32i();
    let mut no_add = RvSubset::rv32i();
    no_add.instrs.remove(&RvInstr::Add);
    no_add.name = "no-add".to_string();

    let base = cold(&nl, &port_env(&full, &port), &config);
    let restricted = cold(&nl, &port_env(&no_add, &port), &config);
    assert!(
        restricted.proved.len() > base.proved.len(),
        "removing Add must kill its detector: {} vs {}",
        restricted.proved.len(),
        base.proved.len()
    );
}
