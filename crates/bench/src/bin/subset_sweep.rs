//! Hot-vs-cold sweep over random RV32I subsets through the proof cache.
//!
//! The paper's use case is many-query: one core, many candidate ISA
//! subsets. This bench generates chains of random RV32I subsets
//! (`root ⊃ mid ⊃ leaf`, by removing instruction forms), draws a
//! Zipf-like request stream over them (repeats are common, as they are
//! when an architect iterates), and evaluates the stream twice on the
//! Ibex-class core under the cutpoint environment:
//!
//! - **cold** — every request solved from scratch (a fresh, empty
//!   `ProofCache` per request, so every lookup misses);
//! - **warm** — the whole stream through `run_pdat_batch` with one
//!   shared cache: repeats become exact hits (no solving at all) and
//!   chain descendants become lattice hits (the ancestor's proved set
//!   warm-starts Houdini, so only the delta candidates pay SAT time).
//!
//! Every request's proved invariant set must be bit-identical between
//! the two passes — the cache is a pure accelerator. The acceptance
//! targets are a ≥5× reduction in aggregate prove time on the warm
//! pass, and (since the cone-of-influence shard encoding plus CNF
//! preprocessing landed) a ≥2× reduction of the *cold* aggregate
//! against the pre-COI baseline recorded in `BENCH_PR7.json`. The
//! report breaks prove time into encode / preprocess / solve totals
//! for both passes. Results go to `BENCH_PR8.json` (or the path given
//! as the first non-flag argument). `--smoke` shrinks the stream for
//! a quick check and only warns on a missed target.

use pdat::{
    run_pdat_batch, run_pdat_cached, BatchRequest, CacheEffect, Governor, PdatConfig, ProofCache,
    ProveConfig, SubsetReport,
};
use pdat_bench::{ibex_rv32i_analysis, parse_bench_args, ProveTimeSplit};
use pdat_isa::rv32::RvInstr;
use pdat_isa::RvSubset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Cold aggregate prove time of the pre-COI prover on this exact
/// stream (BENCH_PR7.json), the baseline for the ≥2× cold target.
const PR7_COLD_PROVE_SECONDS: f64 = 590.0934;

/// Remove `n` random instruction forms, keeping at least 8.
fn shrink(rng: &mut StdRng, base: &RvSubset, n: usize, name: &str) -> RvSubset {
    let mut forms: Vec<RvInstr> = base.instrs.iter().copied().collect();
    let n = n.min(forms.len().saturating_sub(8));
    for _ in 0..n {
        let k = rng.gen_range(0..forms.len());
        forms.swap_remove(k);
    }
    RvSubset::new(name, forms)
}

/// Chains of random subsets: each chain is `root ⊃ mid ⊃ leaf`.
fn make_chains(rng: &mut StdRng, chains: usize) -> Vec<RvSubset> {
    let full = RvSubset::rv32i();
    let mut out = Vec::new();
    for c in 0..chains {
        let (n0, n1, n2) = (rng.gen_range(0..3), rng.gen_range(2..5), rng.gen_range(2..5));
        let root = shrink(rng, &full, n0, &format!("c{c}-root"));
        let mid = shrink(rng, &root, n1, &format!("c{c}-mid"));
        let leaf = shrink(rng, &mid, n2, &format!("c{c}-leaf"));
        out.extend([root, mid, leaf]);
    }
    out
}

/// Zipf-like request stream: every subset at least once, then repeats
/// weighted toward low indices.
fn request_stream(rng: &mut StdRng, distinct: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..distinct).map(|k| 1.0 / (k + 1) as f64).collect();
    let total_w: f64 = weights.iter().sum();
    let mut stream: Vec<usize> = (0..distinct).collect();
    while stream.len() < total {
        let mut x = rng.gen::<f64>() * total_w;
        let mut pick = distinct - 1;
        for (k, w) in weights.iter().enumerate() {
            if x < *w {
                pick = k;
                break;
            }
            x -= w;
        }
        stream.push(pick);
    }
    // Shuffle so chain descendants routinely arrive before their
    // ancestors — the batch driver's lattice ordering must not depend
    // on a friendly request order.
    for i in (1..stream.len()).rev() {
        let j = rng.gen_range(0..=i);
        stream.swap(i, j);
    }
    stream
}

fn effect_name(e: &CacheEffect) -> &'static str {
    match e {
        CacheEffect::ExactHit => "exact",
        CacheEffect::LatticeHit { .. } => "lattice",
        CacheEffect::Miss => "miss",
    }
}

fn check_complete(tag: &str, idx: usize, report: &SubsetReport) {
    if let Some(res) = &report.result {
        assert!(
            res.degradations.is_empty(),
            "{tag} request {idx} degraded: {:?} — raise the budgets, a cut \
             run would make the passes incomparable",
            res.degradations
        );
    }
}

/// Sum the shard-level encode/preprocess/solve timers over every report
/// that actually ran the prover (cache hits carry no Houdini stats).
fn split_of(reports: &[SubsetReport]) -> ProveTimeSplit {
    let mut total = ProveTimeSplit::default();
    for r in reports {
        if let Some(res) = &r.result {
            total.add(&ProveTimeSplit::of(&res.houdini_stats));
        }
    }
    total
}

fn main() {
    let args = parse_bench_args("subset_sweep", "BENCH_PR8.json", &[]);
    let (smoke, out_path) = (args.smoke, args.out_path.clone());

    let chains = if smoke { 2 } else { 7 };
    let total_requests = if smoke { 10 } else { 120 };
    let mut rng = StdRng::seed_from_u64(0x5EED_5EEE);
    let subsets = make_chains(&mut rng, chains);
    let stream = request_stream(&mut rng, subsets.len(), total_requests);

    let setup = ibex_rv32i_analysis();
    let config = PdatConfig {
        sim_cycles: 512,
        conflict_budget: Some(300_000),
        prove: ProveConfig {
            threads: 4,
            shard_size: 1024,
            ..Default::default()
        },
        seed: 0xB14C,
        ..Default::default()
    };

    println!(
        "subset sweep on ibex: {} requests over {} random subsets in {} chains{}",
        stream.len(),
        subsets.len(),
        chains,
        if smoke { " (smoke)" } else { "" }
    );

    // --- Cold pass: a fresh cache per request, so nothing is reused. ---
    let mut cold: Vec<SubsetReport> = Vec::with_capacity(stream.len());
    let cold_wall = Instant::now();
    for (i, &s) in stream.iter().enumerate() {
        let env = setup.env(&subsets[s]);
        let fresh = ProofCache::new();
        let report = run_pdat_cached(&setup.core.netlist, &env, &[], &config, &fresh)
            .expect("cold run failed");
        assert!(
            matches!(report.cache, CacheEffect::Miss),
            "a fresh cache cannot hit"
        );
        check_complete("cold", i, &report);
        if i % 10 == 0 {
            println!(
                "  cold {i:>3}/{}: {} proved={} prove={:.2}s",
                stream.len(),
                subsets[s].name,
                report.proved.len(),
                report.prove_time.as_secs_f64()
            );
        }
        cold.push(report);
    }
    let cold_wall = cold_wall.elapsed().as_secs_f64();

    // --- Warm pass: the whole stream through one batch + one cache. ---
    let requests: Vec<BatchRequest> = stream
        .iter()
        .map(|&s| BatchRequest {
            env: setup.env(&subsets[s]),
            extras: Vec::new(),
        })
        .collect();
    let cache = ProofCache::new();
    let warm_wall = Instant::now();
    let warm: Vec<_> = run_pdat_batch(
        &setup.core.netlist,
        &requests,
        &config,
        &Governor::unlimited(),
        &cache,
    )
        .expect("warm batch failed")
        .into_iter()
        .map(|r| r.expect("warm request failed"))
        .collect();
    let warm_wall = warm_wall.elapsed().as_secs_f64();

    // --- The contract: warm answers are bit-identical to cold. ---
    assert_eq!(cold.len(), warm.len());
    let mut effects = [0usize; 3]; // exact, lattice, miss
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        check_complete("warm", i, w);
        assert_eq!(
            c.proved, w.proved,
            "request {i} ({}) proved set diverged between cold and warm",
            subsets[stream[i]].name
        );
        assert_eq!(
            (c.summary.optimized.gate_count, c.summary.optimized.dff_count),
            (w.summary.optimized.gate_count, w.summary.optimized.dff_count),
            "request {i} resynthesis summary diverged"
        );
        match w.cache {
            CacheEffect::ExactHit => effects[0] += 1,
            CacheEffect::LatticeHit { .. } => effects[1] += 1,
            CacheEffect::Miss => effects[2] += 1,
        }
    }

    let cold_prove: f64 = cold.iter().map(|r| r.prove_time.as_secs_f64()).sum();
    let warm_prove: f64 = warm.iter().map(|r| r.prove_time.as_secs_f64()).sum();
    let speedup = if warm_prove > 0.0 {
        cold_prove / warm_prove
    } else {
        f64::INFINITY
    };
    let cold_split = split_of(&cold);
    let warm_split = split_of(&warm);
    let cold_vs_pr7 = PR7_COLD_PROVE_SECONDS / cold_prove.max(1e-9);
    let stats = cache.stats();
    println!(
        "  warm effects: {} exact, {} lattice, {} miss ({} cached runs)",
        effects[0],
        effects[1],
        effects[2],
        cache.len()
    );
    println!(
        "  prove time: cold {cold_prove:.2}s -> warm {warm_prove:.2}s  ({speedup:.1}x, target >= 5x)"
    );
    println!(
        "  cold split: encode {:.2}s + preprocess {:.2}s + solve {:.2}s  \
         ({cold_vs_pr7:.2}x vs the {PR7_COLD_PROVE_SECONDS:.1}s pre-COI cold baseline, target >= 2x)",
        cold_split.encode_seconds, cold_split.preprocess_seconds, cold_split.solve_seconds
    );
    println!(
        "  warm split: encode {:.2}s + preprocess {:.2}s + solve {:.2}s",
        warm_split.encode_seconds, warm_split.preprocess_seconds, warm_split.solve_seconds
    );
    println!("  wall time:  cold {cold_wall:.2}s -> warm {warm_wall:.2}s");

    // --- Per-subset table (for EXPERIMENTS.md). ---
    let mut rows_json = String::new();
    for (s, subset) in subsets.iter().enumerate() {
        let idxs: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == s)
            .map(|(i, _)| i)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        let n = idxs.len() as f64;
        let cold_mean: f64 = idxs
            .iter()
            .map(|&i| cold[i].prove_time.as_secs_f64())
            .sum::<f64>()
            / n;
        // The batch resolves one representative per distinct subset; the
        // rest are exact hits. Report the solved one's effect and time.
        let solved = idxs
            .iter()
            .copied()
            .find(|&i| !matches!(warm[i].cache, CacheEffect::ExactHit))
            .unwrap_or(idxs[0]);
        let warm_of = match warm[solved].cache {
            CacheEffect::LatticeHit { warm } => warm,
            _ => 0,
        };
        if !rows_json.is_empty() {
            rows_json.push_str(",\n    ");
        }
        rows_json.push_str(&format!(
            "{{\"subset\": \"{}\", \"forms\": {}, \"requests\": {}, \"proved\": {}, \
             \"cold_mean_prove_seconds\": {:.4}, \"warm_effect\": \"{}\", \
             \"warm_start_invariants\": {}, \"warm_prove_seconds\": {:.4}}}",
            subset.name,
            subset.instrs.len(),
            idxs.len(),
            warm[solved].proved.len(),
            cold_mean,
            effect_name(&warm[solved].cache),
            warm_of,
            warm[solved].prove_time.as_secs_f64(),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"subset_sweep\",\n  \"design\": \"ibex\",\n  \
         \"environment\": \"random rv32i subsets, cutpoint\",\n  \"smoke\": {},\n  \
         \"requests\": {},\n  \"distinct_subsets\": {},\n  \"chains\": {},\n  \
         \"cold_prove_seconds\": {:.4},\n  \"warm_prove_seconds\": {:.4},\n  \
         \"prove_speedup\": {:.2},\n  \"target_speedup\": 5.0,\n  \
         \"cold_encode_seconds\": {:.4},\n  \"cold_preprocess_seconds\": {:.4},\n  \
         \"cold_solve_seconds\": {:.4},\n  \"warm_encode_seconds\": {:.4},\n  \
         \"warm_preprocess_seconds\": {:.4},\n  \"warm_solve_seconds\": {:.4},\n  \
         \"pr7_cold_prove_seconds\": {:.4},\n  \"cold_speedup_vs_pr7\": {:.2},\n  \
         \"cold_target_speedup_vs_pr7\": 2.0,\n  \
         \"cold_wall_seconds\": {:.4},\n  \"warm_wall_seconds\": {:.4},\n  \
         \"warm_exact_hits\": {},\n  \"warm_lattice_hits\": {},\n  \"warm_misses\": {},\n  \
         \"cache_insertions\": {},\n  \
         \"proved_sets_bit_identical\": true,\n  \
         \"subsets\": [\n    {}\n  ]\n}}\n",
        smoke,
        stream.len(),
        subsets.len(),
        chains,
        cold_prove,
        warm_prove,
        speedup,
        cold_split.encode_seconds,
        cold_split.preprocess_seconds,
        cold_split.solve_seconds,
        warm_split.encode_seconds,
        warm_split.preprocess_seconds,
        warm_split.solve_seconds,
        PR7_COLD_PROVE_SECONDS,
        cold_vs_pr7,
        cold_wall,
        warm_wall,
        effects[0],
        effects[1],
        effects[2],
        stats.insertions,
        rows_json,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let mut failed = false;
    if speedup < 5.0 {
        if smoke {
            eprintln!("note: smoke stream too small for the 5x target ({speedup:.1}x)");
        } else {
            eprintln!("FAIL: warm sweep speedup {speedup:.1}x below the 5x target");
            failed = true;
        }
    }
    if cold_vs_pr7 < 2.0 {
        if smoke {
            eprintln!(
                "note: smoke stream not comparable to the pre-COI cold baseline ({cold_vs_pr7:.2}x)"
            );
        } else {
            eprintln!(
                "FAIL: cold prove time {cold_prove:.1}s is only {cold_vs_pr7:.2}x faster than \
                 the {PR7_COLD_PROVE_SECONDS:.1}s pre-COI baseline (target >= 2x)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("subset sweep: OK");
}
