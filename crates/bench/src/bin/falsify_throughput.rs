//! Falsification-throughput benchmark on the Ibex-class core under the
//! RV32I cutpoint environment. Three engines are timed:
//!
//! - `seed_style` — the pre-optimization engine (per-node enum-dispatch
//!   eval, `Vec`-allocating step, uncompacted per-candidate scan); the
//!   headline speedup is measured against this.
//! - `reference` — the naive scan on top of the levelized simulator
//!   (isolates eval speedup from compaction speedup).
//! - `parallel_tN` — the compacted multi-lane-block engine at N threads.
//!
//! All engines simulate the exact same work — identical RNG streams,
//! identical survivor sets, identical stats — so wall-time ratios are pure
//! engine speedup. Results are written to `BENCH_PR1.json` at the repo
//! root (or the path given as the first non-flag argument).
//!
//! `--smoke` runs a reduced cycle count to validate the harness quickly.

use pdat_aig::{Aig, AigLit, AigNode, AigNodeId, NetlistAig};
use pdat_bench::{ibex_rv32i_analysis, parse_bench_args};
use pdat_governor::Governor;
use pdat_mc::{
    simulate_filter_governed, simulate_filter_reference, Candidate, CandidateKind,
    SimFilterConfig, SimFilterStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Measurement {
    label: String,
    seconds: f64,
    stats: SimFilterStats,
    survivors: usize,
}

/// The pre-optimization AIG simulator, preserved here as the benchmark
/// baseline: per-node enum dispatch in `eval`, branching complement in
/// `lit_word`, and a fresh `Vec` allocation on every `step`.
struct LegacySim<'a> {
    aig: &'a Aig,
    values: Vec<u64>,
    state: Vec<u64>,
}

impl<'a> LegacySim<'a> {
    fn new(aig: &'a Aig) -> LegacySim<'a> {
        let state = aig
            .latches()
            .iter()
            .map(|&l| match aig.node(l) {
                AigNode::Latch { init, .. } => {
                    if init {
                        u64::MAX
                    } else {
                        0
                    }
                }
                _ => unreachable!(),
            })
            .collect();
        LegacySim {
            aig,
            values: vec![0; aig.num_nodes()],
            state,
        }
    }

    fn reset(&mut self) {
        for (i, &l) in self.aig.latches().iter().enumerate() {
            self.state[i] = match self.aig.node(l) {
                AigNode::Latch { init: true, .. } => u64::MAX,
                _ => 0,
            };
        }
    }

    fn eval(&mut self, inputs: &[u64]) {
        let mut in_idx = 0;
        let mut latch_idx = 0;
        for i in 0..self.aig.num_nodes() {
            let id = AigNodeId(i as u32);
            self.values[i] = match self.aig.node(id) {
                AigNode::Const => 0,
                AigNode::Input => {
                    let v = inputs[in_idx];
                    in_idx += 1;
                    v
                }
                AigNode::Latch { .. } => {
                    let v = self.state[latch_idx];
                    latch_idx += 1;
                    v
                }
                AigNode::And(a, b) => self.lit_word(a) & self.lit_word(b),
            };
        }
    }

    fn lit_word(&self, l: AigLit) -> u64 {
        let v = self.values[l.node().index()];
        if l.is_compl() {
            !v
        } else {
            v
        }
    }

    fn step(&mut self) {
        let next: Vec<u64> = self
            .aig
            .latches()
            .iter()
            .map(|&l| match self.aig.node(l) {
                AigNode::Latch { next, .. } => self.lit_word(next),
                _ => unreachable!(),
            })
            .collect();
        self.state = next;
    }
}

/// The engine's per-block stream derivation, mirrored so the legacy
/// baseline simulates bit-identical work (same stimulus, same kills).
fn block_seed(seed: u64, block: u64) -> u64 {
    let mut s = block.wrapping_add(0x6A09_E667_F3BC_C909);
    seed ^ rand::splitmix64(&mut s)
}

/// The pre-optimization falsification loop: legacy simulator, uncompacted
/// per-candidate `Option` scan, per-cycle stimulus `Vec` allocation — but
/// the same block/RNG/restart semantics, so survivors and stats must equal
/// the optimized engine's exactly.
fn legacy_filter(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
    config: &SimFilterConfig,
    stimulus: &dyn Fn(&mut StdRng, &mut [u64]),
    seed: u64,
) -> (Vec<Candidate>, SimFilterStats) {
    #[derive(Clone, Copy)]
    enum KindLit {
        Const(bool),
        Equal(AigLit),
    }
    let aig = &na.aig;
    let n_inputs = aig.inputs().len();
    let mut stats = SimFilterStats::default();
    let resolved: Vec<Option<(AigLit, KindLit)>> = candidates
        .iter()
        .map(|c| {
            let target = na.net_lit.get(&c.net).copied()?;
            let kind = match c.kind {
                CandidateKind::ConstFalse => KindLit::Const(false),
                CandidateKind::ConstTrue => KindLit::Const(true),
                CandidateKind::EqualNet(other) => {
                    KindLit::Equal(na.net_lit.get(&other).copied()?)
                }
            };
            Some((target, kind))
        })
        .collect();
    let mut killed: Vec<bool> = resolved.iter().map(|r| r.is_none()).collect();

    for block in 0..config.lane_blocks.max(1) {
        let mut sim = LegacySim::new(aig);
        let mut rng = StdRng::seed_from_u64(block_seed(seed, block as u64));
        let mut alive: Vec<bool> = resolved.iter().map(|r| r.is_some()).collect();
        stats.lane_blocks += 1;
        let mut lane_ok = u64::MAX;
        for _cycle in 0..config.cycles {
            if !alive.iter().any(|&a| a) {
                break;
            }
            // The seed stimulus API returned a fresh Vec per cycle.
            let mut inputs = vec![0u64; n_inputs];
            stimulus(&mut rng, &mut inputs);
            sim.eval(&inputs);
            lane_ok &= sim.lit_word(constraint);
            stats.cycles += 1;
            stats.wasted_lane_cycles += u64::from(64 - lane_ok.count_ones());
            if lane_ok.count_ones() < config.restart_threshold {
                sim.reset();
                lane_ok = u64::MAX;
                stats.restarts += 1;
                continue;
            }
            for (i, r) in resolved.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let (target, kind) = r.expect("unresolved filtered above");
                let got = sim.lit_word(target);
                let bad = match kind {
                    KindLit::Const(false) => got,
                    KindLit::Const(true) => !got,
                    KindLit::Equal(l) => got ^ sim.lit_word(l),
                };
                stats.candidate_cycles += 1;
                if bad & lane_ok != 0 {
                    alive[i] = false;
                    killed[i] = true;
                }
            }
            sim.step();
        }
    }
    stats.kills = killed.iter().filter(|&&k| k).count() as u64;
    let survivors = candidates
        .iter()
        .zip(&killed)
        .filter(|(_, &k)| !k)
        .map(|(c, _)| *c)
        .collect();
    (survivors, stats)
}

fn main() {
    let args = parse_bench_args("falsify_throughput", "BENCH_PR1.json", &["--eval-only"]);
    let (smoke, out_path) = (args.smoke, args.out_path.clone());

    let cycles = if smoke { 32 } else { 512 };
    let lane_blocks = 4;
    let seed = 0xB14C_u64;

    // Mirror the pipeline's cutpoint-based RV32I environment on Ibex.
    let setup = ibex_rv32i_analysis();
    let (na, constraint, candidates) = (&setup.na, setup.constraint, &setup.candidates);
    let stimulus = setup.stimulus();

    println!(
        "ibex rv32i falsification: {} candidates, {} aig nodes ({} ands), {} cycles x {} lane blocks{}",
        candidates.len(),
        na.aig.num_nodes(),
        na.aig.num_ands(),
        cycles,
        lane_blocks,
        if smoke { " (smoke)" } else { "" }
    );
    if args.has_flag("--eval-only") {
        use pdat_aig::AigSimulator;
        let t = Instant::now();
        let mut acc = 0u64;
        for block in 0..lane_blocks {
            let mut sim = AigSimulator::new(&na.aig);
            let mut rng = StdRng::seed_from_u64(block_seed(seed, block as u64));
            let mut inputs = vec![0u64; na.aig.inputs().len()];
            for _ in 0..cycles {
                stimulus(&mut rng, &mut inputs);
                sim.eval(&inputs);
                acc ^= sim.lit_word(constraint);
                sim.step();
            }
        }
        println!(
            "  eval-only (no candidates): {:.3}s over {} cycle-blocks (acc {acc:x})",
            t.elapsed().as_secs_f64(),
            cycles * lane_blocks
        );
        return;
    }

    // Each engine runs `reps` times (asserting identical results every
    // time); the reported figure is the fastest rep, which is the least
    // noisy wall-clock statistic on a shared host.
    let reps = if smoke { 1 } else { 3 };
    let measure = |label: String,
                       f: &dyn Fn(&SimFilterConfig) -> (Vec<pdat_mc::Candidate>, SimFilterStats),
                       threads: usize|
     -> Measurement {
        let config = SimFilterConfig {
            cycles,
            lane_blocks,
            threads,
            restart_threshold: 8,
        };
        let mut best: Option<Measurement> = None;
        for _ in 0..reps {
            let t = Instant::now();
            let (survivors, stats) = f(&config);
            let seconds = t.elapsed().as_secs_f64();
            if let Some(prev) = &best {
                assert_eq!(prev.stats, stats, "{label}: rep changed the stats");
                assert_eq!(prev.survivors, survivors.len(), "{label}: rep changed survivors");
            }
            if best.as_ref().map_or(true, |b| seconds < b.seconds) {
                best = Some(Measurement {
                    label: label.clone(),
                    seconds,
                    stats,
                    survivors: survivors.len(),
                });
            }
        }
        best.unwrap()
    };

    let mut runs: Vec<Measurement> = Vec::new();
    // Pre-optimization engine: per-node dispatch eval, allocating step,
    // uncompacted candidate scan. This is the baseline the headline
    // speedup is measured against.
    runs.push(measure(
        "seed_style".into(),
        &|c| legacy_filter(na, constraint, candidates, c, &stimulus, seed),
        1,
    ));
    runs.push(measure(
        "reference".into(),
        &|c| simulate_filter_reference(na, constraint, candidates, c, &stimulus, seed),
        1,
    ));
    for threads in [1usize, 2, 4] {
        runs.push(measure(
            format!("parallel_t{threads}"),
            &|c| {
                let gov = Governor::unlimited();
                let (survivors, stats, _) =
                    simulate_filter_governed(na, constraint, candidates, c, &stimulus, seed, &gov);
                (survivors, stats)
            },
            threads,
        ));
    }

    // The kill-set union is invariant across all engines, so survivors and
    // kill counts must agree everywhere. Full stats parity only holds among
    // the chunk-grouped engines (the seed-style engine scans each block
    // independently, so it performs more candidate checks for the same
    // result).
    let baseline = &runs[0];
    for r in &runs[1..] {
        assert_eq!(
            r.survivors, baseline.survivors,
            "{}: survivor count diverged from the seed-style baseline",
            r.label
        );
        assert_eq!(
            r.stats.kills, baseline.stats.kills,
            "{}: kill count diverged from the seed-style baseline",
            r.label
        );
    }
    let reference = &runs[1];
    for r in &runs[2..] {
        assert_eq!(
            r.stats, reference.stats,
            "{}: stats diverged from the reference engine",
            r.label
        );
    }

    let threads_avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries = String::new();
    for r in &runs {
        let speedup = baseline.seconds / r.seconds;
        println!(
            "  {:<12} {:>8.3}s  speedup {:>5.2}x  kills={} restarts={} candidate_cycles={}",
            r.label, r.seconds, speedup, r.stats.kills, r.stats.restarts, r.stats.candidate_cycles
        );
        entries.push_str(&format!(
            "    {{\"engine\": \"{}\", \"seconds\": {:.6}, \"speedup_vs_seed_style\": {:.3}, \
             \"survivors\": {}, \"kills\": {}, \"restarts\": {}, \"candidate_cycles\": {}, \
             \"wasted_lane_cycles\": {}, \"kills_per_kilocycle\": {:.3}}},\n",
            r.label,
            r.seconds,
            speedup,
            r.survivors,
            r.stats.kills,
            r.stats.restarts,
            r.stats.candidate_cycles,
            r.stats.wasted_lane_cycles,
            r.stats.kills_per_kilocycle(),
        ));
    }
    entries.truncate(entries.trim_end_matches(",\n").len());
    entries.push('\n');

    let headline = baseline.seconds / runs.last().unwrap().seconds;
    let json = format!(
        "{{\n  \"bench\": \"falsify_throughput\",\n  \"design\": \"ibex\",\n  \
         \"environment\": \"rv32i cutpoint\",\n  \"candidates\": {},\n  \"cycles\": {},\n  \
         \"lane_blocks\": {},\n  \"seed\": {},\n  \"smoke\": {},\n  \
         \"host_parallelism\": {},\n  \"runs\": [\n{}  ],\n  \
         \"headline_speedup_parallel_t4_vs_seed_style\": {:.3}\n}}\n",
        candidates.len(),
        cycles,
        lane_blocks,
        seed,
        smoke,
        threads_avail,
        entries,
        headline,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "headline: parallel_t4 is {headline:.2}x the seed-style engine (host parallelism {threads_avail}); wrote {out_path}"
    );
}
