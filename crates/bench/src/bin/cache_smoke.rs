//! Proof-cache smoke run for CI (tier-1).
//!
//! Exercises all three cache outcomes on a small instruction-port design
//! and the persistence round-trip, checking the purity contract at each
//! step:
//!
//! - **miss** — first request solves cold and populates the cache;
//! - **exact hit** — the identical request answers instantly (zero
//!   prove time) with the bit-identical proved set;
//! - **lattice hit** — a strict subset environment warm-starts off the
//!   cached ancestor and still matches its own cold-run oracle;
//! - **save/load** — a round-trip through the on-disk format preserves
//!   every entry (subsequent requests are exact hits with the same
//!   answers), and a corrupted file is rejected as an error, not a
//!   panic.
//!
//! Exits nonzero on any violation.

use pdat::{
    load_cache, run_pdat_cached, save_cache, CacheEffect, ConstraintMode, Environment, PdatConfig,
    ProofCache, SubsetReport,
};
use pdat_isa::rv32::RvInstr;
use pdat_isa::RvSubset;
use pdat_netlist::{CellKind, NetId, Netlist};

/// Exact-pattern detectors + sticky latches for three instructions on a
/// 32-bit instruction port: removing a watched instruction from the
/// environment makes its detector provably constant-false, so the
/// proved set genuinely varies along the subset lattice.
fn detector_core() -> (Netlist, Vec<NetId>) {
    let mut nl = Netlist::new("rvdet");
    let port: Vec<NetId> = (0..32).map(|b| nl.add_input(&format!("i{b}"))).collect();
    for instr in [RvInstr::Add, RvInstr::Sub, RvInstr::Jalr] {
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
    (nl, port)
}

fn config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xCAC4E,
        ..Default::default()
    }
}

fn run(
    nl: &Netlist,
    subset: &RvSubset,
    port: &[NetId],
    cache: &ProofCache,
) -> SubsetReport {
    let env = Environment::Rv {
        subset,
        ports: vec![port.to_vec()],
        mode: ConstraintMode::PortBased,
    };
    match run_pdat_cached(nl, &env, &[], &config(), cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cache smoke: pipeline run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("  ok: {what}");
        } else {
            eprintln!("  FAIL: {what}");
            failures += 1;
        }
    };

    let (nl, port) = detector_core();
    let full = RvSubset::rv32i();
    let mut reduced = RvSubset::rv32i();
    reduced.instrs.remove(&RvInstr::Add);
    reduced.instrs.remove(&RvInstr::Sub);
    reduced.name = "rv32i-no-addsub".to_string();

    let cache = ProofCache::new();

    // Miss, then exact hit.
    let first = run(&nl, &full, &port, &cache);
    check(matches!(first.cache, CacheEffect::Miss), "first request misses");
    let again = run(&nl, &full, &port, &cache);
    check(
        matches!(again.cache, CacheEffect::ExactHit),
        "repeat request hits exactly",
    );
    check(again.proved == first.proved, "exact hit returns the identical proved set");
    check(again.result.is_none(), "exact hit solves nothing");

    // Lattice hit: the reduced subset warm-starts off the full entry and
    // must still match its own cold oracle.
    let warm = run(&nl, &reduced, &port, &cache);
    let warmed = matches!(warm.cache, CacheEffect::LatticeHit { warm } if warm > 0);
    check(warmed, "strict subset warm-starts off the cached ancestor");
    let cold = run(&nl, &reduced, &port, &ProofCache::new());
    check(warm.proved == cold.proved, "warm answer is bit-identical to cold");
    check(
        warm.proved.len() > first.proved.len(),
        "removing instructions proves strictly more",
    );

    // Persistence round-trip: every entry survives, answers unchanged.
    let path = std::env::temp_dir().join("pdat_cache_smoke.txt");
    let saved = save_cache(&cache, &path);
    check(saved.is_ok(), "save_cache succeeds");
    let reloaded = ProofCache::new();
    let loaded = load_cache(&reloaded, &path);
    check(
        loaded.as_ref().is_ok_and(|&n| n == cache.len()),
        "load_cache restores every entry",
    );
    let replay = run(&nl, &reduced, &port, &reloaded);
    check(
        matches!(replay.cache, CacheEffect::ExactHit),
        "reloaded cache answers exactly",
    );
    check(replay.proved == cold.proved, "reloaded answer is bit-identical");

    // A corrupted file is an error, never a panic.
    let bad = std::env::temp_dir().join("pdat_cache_smoke_bad.txt");
    if std::fs::write(&bad, "pdat-proof-cache v1\nrun zz zz\n").is_ok() {
        check(
            load_cache(&ProofCache::new(), &bad).is_err(),
            "corrupt cache file is rejected",
        );
        let _ = std::fs::remove_file(&bad);
    }
    let _ = std::fs::remove_file(&path);

    if failures > 0 {
        eprintln!("cache smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("cache smoke: OK");
}
