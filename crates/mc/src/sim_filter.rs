//! Bit-parallel constrained random simulation for candidate falsification.
//!
//! The falsification engine simulates `lane_blocks` independent 64-lane
//! trajectories and merges their per-candidate kill sets. Each block
//! derives its own RNG stream purely from `(seed, block_index)`, so the
//! result is **identical for a given `(seed, lane_blocks)`**.
//!
//! Blocks are executed in fixed chunks of [`SIM_WIDTH`] on an
//! [`AigSimulatorWide`], one chunk after another on the calling thread:
//! one schedule sweep evaluates `SIM_WIDTH` blocks at once (amortizing the
//! schedule stream and vectorizing the word ops), and a candidate killed
//! by any block in the chunk stops being checked by the whole chunk — safe
//! because the kill set is a union, so once a candidate is in it, further
//! checks are redundant. Every chunk starts from the full candidate set,
//! so what one chunk checks and counts never depends on what an earlier
//! chunk killed.
//!
//! Within a chunk, dead candidates cost zero: the alive set is one flat
//! array sorted by target net, compacted in place on kill, so each cycle
//! touches one wide target read per *live* net and a handful of branch-free
//! mask ops per *live* candidate. A per-block lane-viability threshold
//! restarts a block's trajectory from reset when too few of its lanes still
//! satisfy the environment constraint.
//!
//! The engine is resource-governed ([`simulate_filter_governed`]): a shared
//! [`Governor`] bounds total simulated block-cycles (deterministically
//! pre-apportioned across chunks), enforces a wall-clock deadline at cycle
//! boundaries, and isolates panics behind a per-chunk `catch_unwind`. Any
//! chunk cut short *drops* its unvetted candidates so degraded survivors
//! are always a subset of the fault-free ones.

use crate::candidates::{Candidate, CandidateKind};
use pdat_aig::{AigLit, AigSimulatorWide, NetlistAig, SIM_WIDTH};
use pdat_governor::{Cause, DegradationEvent, Governor, Stage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Knobs for the falsification pass.
#[derive(Debug, Clone)]
pub struct SimFilterConfig {
    /// Simulated cycles per lane block (each cycle carries 64 parallel
    /// lanes, so total evidence is `cycles * 64 * lane_blocks` lane-cycles).
    pub cycles: usize,
    /// Independent 64-lane simulation blocks, each with its own RNG stream
    /// derived from the master seed. Part of the result's identity: changing
    /// it changes which candidates get falsified.
    pub lane_blocks: usize,
    /// Not read; kept because perfbench sets it. Falsification runs its
    /// chunks on the calling thread.
    pub threads: usize,
    /// Restart a block from reset when fewer than this many of its 64 lanes
    /// still satisfy the constraint (sticky mask). `1` restores the legacy
    /// restart-only-at-zero behaviour; `0` disables restarts entirely.
    pub restart_threshold: u32,
}

impl Default for SimFilterConfig {
    fn default() -> Self {
        SimFilterConfig {
            cycles: 512,
            lane_blocks: 4,
            threads: 4,
            restart_threshold: 8,
        }
    }
}

/// Counters from one falsification run (summed over all lane blocks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimFilterStats {
    /// Live-candidate checks performed (candidate × chunk-cycle; one check
    /// covers every block in the chunk at once).
    pub candidate_cycles: u64,
    /// Candidates falsified (counted once; unresolvable candidates killed
    /// up front are included).
    pub kills: u64,
    /// Block trajectory restarts triggered by the lane-viability threshold.
    pub restarts: u64,
    /// Lane-cycles that contributed no evidence because the sticky
    /// constraint mask had zeroed the lane.
    pub wasted_lane_cycles: u64,
    /// Total cycles simulated across all blocks.
    pub cycles: u64,
    /// Lane blocks simulated.
    pub lane_blocks: u64,
}

/// A live candidate in the compacted engine, as a uniform check:
/// the candidate is violated in lanes where `lit(target) ^ lit(other)` is
/// set. `ConstFalse` encodes `other` as the constant-0 literal, `ConstTrue`
/// as the constant-1 literal, `EqualNet` as the other net's literal — one
/// branch-free form for all three property kinds.
#[derive(Clone, Copy)]
struct Member {
    target: u32,
    other: u32,
    cand: u32,
}

/// Candidates resolved against the netlist→AIG map. `members` is sorted by
/// target literal so consecutive entries share one target read; `prekilled`
/// lists candidates whose nets have no AIG literal.
struct ResolvedCandidates {
    members: Vec<Member>,
    prekilled: Vec<u32>,
}

fn resolve_candidates(na: &NetlistAig, candidates: &[Candidate]) -> ResolvedCandidates {
    let mut members = Vec::with_capacity(candidates.len());
    let mut prekilled = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        let target = na.net_lit.get(&c.net).copied();
        let other = match c.kind {
            CandidateKind::ConstFalse => Some(AigLit::FALSE),
            CandidateKind::ConstTrue => Some(AigLit::TRUE),
            CandidateKind::EqualNet(other) => na.net_lit.get(&other).copied(),
        };
        match (target, other) {
            (Some(target), Some(other)) => members.push(Member {
                target: target.code(),
                other: other.code(),
                cand: i as u32,
            }),
            _ => prekilled.push(i as u32),
        }
    }
    members.sort_unstable_by_key(|m| (m.target, m.cand));
    ResolvedCandidates { members, prekilled }
}

/// Deterministic RNG seed for one lane block: depends only on the master
/// seed and the block index, never on scheduling.
fn block_seed(seed: u64, block: u64) -> u64 {
    let mut s = block.wrapping_add(0x6A09_E667_F3BC_C909);
    seed ^ rand::splitmix64(&mut s)
}

/// What every chunk of one run reads.
struct Run<'a> {
    proto: AigSimulatorWide<'a>,
    constraint: AigLit,
    /// The full resolved candidate set; every chunk starts from it.
    template: &'a [Member],
    config: &'a SimFilterConfig,
    stimulus: &'a dyn Fn(&mut StdRng, &mut [u64]),
    seed: u64,
    governor: &'a Governor,
}

/// What the chunks of one run write: kill and drop bits per candidate
/// index, summed counters, and degradation events in chunk order.
struct Tally {
    killed: Vec<u64>,
    dropped: Vec<u64>,
    stats: SimFilterStats,
    events: Vec<DegradationEvent>,
}

impl Tally {
    /// Drop every member that no chunk has killed or dropped yet and
    /// return how many that were.
    fn drop_unvetted<'m>(&mut self, members: impl IntoIterator<Item = &'m Member>) -> usize {
        let mut n = 0;
        for m in members {
            let w = m.cand as usize / 64;
            let b = 1u64 << (m.cand % 64);
            if (self.killed[w] | self.dropped[w]) & b == 0 {
                self.dropped[w] |= b;
                n += 1;
            }
        }
        n
    }
}

/// Simulate one chunk of up to [`SIM_WIDTH`] lane blocks (blocks
/// `chunk * SIM_WIDTH ..+ real`); sets kill bits and accumulates stats.
/// Words `real..SIM_WIDTH` are padding: their `scan_ok` mask stays zero
/// forever, so they can neither kill nor count.
///
/// Governance: the chunk simulates at most `allowed_cycles` (its
/// deterministic share of the global cycle budget), polls the governor's
/// deadline/cancellation each cycle, and honors an armed sim-panic fault.
/// A chunk that stops before `config.cycles` did not finish vetting its
/// alive set, so it *drops* every still-alive candidate: partial positive
/// evidence must not let a candidate reach the prover, or the degraded
/// survivor set could exceed the fault-free one and prove candidates with
/// unchecked base cases.
fn run_chunk(run: &Run<'_>, chunk: usize, real: usize, allowed_cycles: usize, out: &mut Tally) {
    let config = run.config;
    let governor = run.governor;
    let chunk_base = (chunk * SIM_WIDTH) as u64;
    let mut sim = run.proto.clone();
    sim.reset();
    // Per-chunk alive set: one flat, target-sorted array, compacted in
    // place on kill — dead candidates cost zero on every later cycle, in
    // every block of the chunk.
    let mut live: Vec<Member> = run.template.to_vec();
    let mut rngs: Vec<StdRng> = (0..real)
        .map(|w| StdRng::seed_from_u64(block_seed(run.seed, chunk_base + w as u64)))
        .collect();
    let n_inputs = sim.aig().inputs().len();
    let mut scratch = vec![0u64; n_inputs];
    let mut inputs = vec![[0u64; SIM_WIDTH]; n_inputs];
    let stats = &mut out.stats;
    stats.lane_blocks += real as u64;

    let mut cut_short = (allowed_cycles < config.cycles).then_some(Cause::CycleBudget);
    let mut simulated = 0usize;
    // Sticky per-block constraint masks; padding words stay dead (zero).
    let mut lane_ok = [0u64; SIM_WIDTH];
    for m in lane_ok.iter_mut().take(real) {
        *m = u64::MAX;
    }
    for cycle in 0..allowed_cycles {
        if live.is_empty() {
            break;
        }
        if governor.is_cancelled() {
            cut_short = Some(Cause::Cancelled);
            break;
        }
        if governor.deadline_exceeded() {
            cut_short = Some(Cause::Deadline);
            break;
        }
        if governor.fault_sim_panic(chunk as u64, cycle as u64) {
            panic!("injected fault: sim panic at chunk {chunk}, cycle {cycle}");
        }
        governor.charge_cycles(real as u64);
        simulated += 1;
        for w in 0..real {
            (run.stimulus)(&mut rngs[w], &mut scratch);
            for (inp, &s) in inputs.iter_mut().zip(&scratch) {
                inp[w] = s;
            }
        }
        sim.eval(&inputs);
        let cons = sim.lit_words(run.constraint);
        // Per-block masks the sweep may use this cycle: zero for blocks
        // that restart (their value words this cycle don't count as
        // constraint-satisfying evidence).
        let mut scan_ok = [0u64; SIM_WIDTH];
        let mut restart = [false; SIM_WIDTH];
        for w in 0..real {
            lane_ok[w] &= cons[w];
            stats.cycles += 1;
            stats.wasted_lane_cycles += u64::from(64 - lane_ok[w].count_ones());
            if lane_ok[w].count_ones() < config.restart_threshold {
                // Too few constraint-satisfying lanes left in this block:
                // restart its trajectory from reset with fresh lanes
                // (consumes the cycle). The actual state reset happens
                // after the clock edge below, so `step` cannot clobber it.
                restart[w] = true;
                lane_ok[w] = u64::MAX;
                stats.restarts += 1;
            } else {
                scan_ok[w] = lane_ok[w];
            }
        }
        if scan_ok != [0u64; SIM_WIDTH] {
            stats.candidate_cycles += live.len() as u64;
            // Compacting sweep: surviving members shift down over killed
            // ones; target-sortedness is preserved, so each distinct target
            // net is read once per cycle (per-net evaluation sharing).
            let mut last_target = u32::MAX;
            let mut got = [0u64; SIM_WIDTH];
            let mut w = 0;
            for r in 0..live.len() {
                let m = live[r];
                if m.target != last_target {
                    last_target = m.target;
                    got = sim.lit_words(AigLit::from_code(m.target));
                }
                let o = sim.lit_words(AigLit::from_code(m.other));
                let mut viol = 0u64;
                for k in 0..SIM_WIDTH {
                    viol |= (got[k] ^ o[k]) & scan_ok[k];
                }
                if viol != 0 {
                    out.killed[m.cand as usize / 64] |= 1u64 << (m.cand % 64);
                } else {
                    if w != r {
                        live[w] = m;
                    }
                    w += 1;
                }
            }
            live.truncate(w);
        }
        sim.step();
        for (w, &r) in restart[..real].iter().enumerate() {
            if r {
                sim.reset_word(w);
            }
        }
    }
    if let Some(cause) = cut_short {
        if !live.is_empty() {
            let dropped = out.drop_unvetted(&live);
            out.events.push(DegradationEvent {
                stage: Stage::Falsify,
                cause,
                dropped,
                detail: format!(
                    "chunk {chunk} stopped after {simulated} of {} cycles",
                    config.cycles
                ),
            });
        }
    }
}

/// Best-effort human-readable panic payload (the falsifier's and the
/// prover's panic boundaries both report through it).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Run one chunk behind a panic boundary. A panicking chunk poisons only
/// itself: kills it recorded before dying are kept (each was genuinely
/// observed), everything else in its template is dropped as unvetted, and
/// the panic becomes a [`Cause::WorkerPanic`] degradation event instead of
/// aborting the process.
fn execute_chunk(run: &Run<'_>, chunk: usize, real: usize, allowed_cycles: usize, out: &mut Tally) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_chunk(run, chunk, real, allowed_cycles, out)
    }));
    if let Err(payload) = outcome {
        let dropped = out.drop_unvetted(run.template);
        out.events.push(DegradationEvent {
            stage: Stage::Falsify,
            cause: Cause::WorkerPanic,
            dropped,
            detail: format!("chunk {chunk}: {}", panic_message(payload.as_ref())),
        });
    }
}

/// Run constrained random simulation and drop every candidate that is
/// falsified in any lane of any cycle where the environment constraint held
/// continuously since the block's last reset, returning survivors,
/// run counters, and the degradation events describing what was cut.
///
/// `stimulus(rng, words)` must overwrite every word with one 64-lane
/// stimulus word per AIG input, already respecting the environment's input
/// constraints as well as it can; `constraint` is additionally monitored,
/// and lanes where it ever goes low stop contributing evidence (a sticky
/// per-lane mask) — their later behaviour can neither kill nor save a
/// candidate.
///
/// Determinism: survivors and stats depend only on
/// `(seed, config.cycles, config.lane_blocks, config.restart_threshold)`.
///
/// The shared [`Governor`]'s global cycle budget, deadline, cancellation,
/// and any armed fault plan are honored; [`Governor::unlimited`] runs the
/// engine to completion.
///
/// Soundness under degradation: every chunk that stops before completing
/// its full vetting (cycle-budget truncation, deadline, cancellation, or an
/// isolated panic) *drops* its still-alive candidates — they are excluded
/// from the survivors exactly as if simulation had falsified them. Each
/// degradation event counts the candidates it dropped that no earlier
/// chunk had killed or dropped. Degraded survivors are therefore always a
/// subset of the fault-free survivors, and since the downstream Houdini
/// fixpoint is monotone in its input set, degraded proofs are a subset of
/// fault-free proofs.
///
/// Budget truncation is deterministic: the global cycle budget is read
/// once and apportioned over the chunks in chunk order, so a chunk's share
/// does not depend on how many cycles earlier chunks actually burned.
/// Deadline and cancellation cuts depend on wall-clock timing and are
/// inherently nondeterministic (but still sound).
pub fn simulate_filter_governed(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
    config: &SimFilterConfig,
    stimulus: &dyn Fn(&mut StdRng, &mut [u64]),
    seed: u64,
    governor: &Governor,
) -> (Vec<Candidate>, SimFilterStats, Vec<DegradationEvent>) {
    let resolved = resolve_candidates(na, candidates);
    let words = candidates.len().div_ceil(64);
    let mut tally = Tally {
        killed: vec![0u64; words],
        dropped: vec![0u64; words],
        stats: SimFilterStats::default(),
        events: Vec::new(),
    };
    for &i in &resolved.prekilled {
        tally.killed[i as usize / 64] |= 1u64 << (i % 64);
    }

    let run = Run {
        proto: AigSimulatorWide::new(&na.aig),
        constraint,
        template: &resolved.members,
        config,
        stimulus,
        seed,
        governor,
    };
    let blocks = config.lane_blocks.max(1);
    // A chunk burns `real` block-cycles per simulated cycle.
    let mut budget = governor.remaining_cycles();
    for chunk in 0..blocks.div_ceil(SIM_WIDTH) {
        let real = SIM_WIDTH.min(blocks - chunk * SIM_WIDTH);
        let allowed = match budget.as_mut() {
            None => config.cycles,
            Some(remaining) => {
                let alloc = (*remaining / real as u64).min(config.cycles as u64);
                *remaining -= alloc * real as u64;
                alloc as usize
            }
        };
        execute_chunk(&run, chunk, real, allowed, &mut tally);
    }

    let Tally {
        killed,
        dropped,
        mut stats,
        events,
    } = tally;
    stats.kills = killed.iter().map(|w| w.count_ones() as u64).sum();
    let survivors = candidates
        .iter()
        .enumerate()
        .filter(|&(i, _)| (killed[i / 64] | dropped[i / 64]) & (1u64 << (i % 64)) == 0)
        .map(|(_, c)| *c)
        .collect();
    (survivors, stats, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_aig::{netlist_to_aig, AigSimulator};
    use pdat_governor::GovernorConfig;
    use pdat_netlist::{CellKind, NetId, Netlist};
    use proptest::prelude::*;
    use rand::Rng;
    use std::time::Duration;

    /// What a live candidate asserts about its (already resolved) target
    /// word.
    #[derive(Clone, Copy)]
    enum KindLit {
        Const(bool),
        Equal(AigLit),
    }

    /// Reference implementation: uncompacted per-candidate scan over scalar
    /// simulators with the exact same chunk/RNG/restart semantics. The oracle
    /// the wide engine is tested against: it must produce bit-identical
    /// survivors and stats to a [`simulate_filter_governed`] run whose
    /// governor never trips.
    fn simulate_filter_reference(
        na: &NetlistAig,
        constraint: AigLit,
        candidates: &[Candidate],
        config: &SimFilterConfig,
        stimulus: &dyn Fn(&mut StdRng, &mut [u64]),
        seed: u64,
    ) -> (Vec<Candidate>, SimFilterStats) {
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
        // Global kill set (union over chunks); each chunk scans from a fresh
        // alive vector shared by its blocks, mirroring the wide engine's
        // chunk-grouped semantics exactly (including its stats).
        let mut killed: Vec<bool> = resolved.iter().map(|r| r.is_none()).collect();

        let blocks = config.lane_blocks.max(1);
        for base in (0..blocks).step_by(SIM_WIDTH) {
            let real = SIM_WIDTH.min(blocks - base);
            let mut sims: Vec<AigSimulator> = (0..real).map(|_| AigSimulator::new(aig)).collect();
            let mut rngs: Vec<StdRng> = (0..real)
                .map(|w| StdRng::seed_from_u64(block_seed(seed, (base + w) as u64)))
                .collect();
            let mut inputs = vec![0u64; n_inputs];
            let mut alive: Vec<bool> = resolved.iter().map(|r| r.is_some()).collect();
            stats.lane_blocks += real as u64;
            let mut lane_ok = vec![u64::MAX; real];
            let mut scan_ok = vec![0u64; real];
            let mut restart = vec![false; real];
            for _cycle in 0..config.cycles {
                if !alive.iter().any(|&a| a) {
                    break;
                }
                for w in 0..real {
                    stimulus(&mut rngs[w], &mut inputs);
                    sims[w].eval(&inputs);
                    lane_ok[w] &= sims[w].lit_word(constraint);
                    stats.cycles += 1;
                    stats.wasted_lane_cycles += u64::from(64 - lane_ok[w].count_ones());
                    if lane_ok[w].count_ones() < config.restart_threshold {
                        restart[w] = true;
                        lane_ok[w] = u64::MAX;
                        stats.restarts += 1;
                        scan_ok[w] = 0;
                    } else {
                        restart[w] = false;
                        scan_ok[w] = lane_ok[w];
                    }
                }
                if scan_ok.iter().any(|&m| m != 0) {
                    for (i, r) in resolved.iter().enumerate() {
                        if !alive[i] {
                            continue;
                        }
                        let (target, kind) = r.expect("dead candidates filtered above");
                        stats.candidate_cycles += 1;
                        let mut viol = 0u64;
                        for w in 0..real {
                            let got = sims[w].lit_word(target);
                            let bad = match kind {
                                KindLit::Const(false) => got,
                                KindLit::Const(true) => !got,
                                KindLit::Equal(l) => got ^ sims[w].lit_word(l),
                            };
                            viol |= bad & scan_ok[w];
                        }
                        if viol != 0 {
                            alive[i] = false;
                            killed[i] = true;
                        }
                    }
                }
                for s in &mut sims {
                    s.step();
                }
                for w in 0..real {
                    if restart[w] {
                        sims[w].reset();
                    }
                }
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

    /// A run to completion under [`Governor::unlimited`].
    fn ungoverned(
        na: &NetlistAig,
        constraint: AigLit,
        candidates: &[Candidate],
        config: &SimFilterConfig,
        stimulus: &dyn Fn(&mut StdRng, &mut [u64]),
        seed: u64,
    ) -> (Vec<Candidate>, SimFilterStats) {
        let (survivors, stats, events) = simulate_filter_governed(
            na,
            constraint,
            candidates,
            config,
            stimulus,
            seed,
            &Governor::unlimited(),
        );
        assert!(events.is_empty(), "an unlimited governor cannot degrade");
        (survivors, stats)
    }

    fn random_stimulus(r: &mut StdRng, words: &mut [u64]) {
        for w in words {
            *w = r.gen();
        }
    }

    #[test]
    fn kills_noisy_keeps_constant() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na_inv = nl.add_cell(CellKind::Inv, &[a], "na");
        let never = nl.add_cell(CellKind::And2, &[a, na_inv], "never"); // == 0
        let noisy = nl.add_cell(CellKind::Xor2, &[a, never], "noisy"); // == a
        nl.add_output("noisy", noisy);
        let conv = netlist_to_aig(&nl, &[]);
        let cands = crate::candidates_for_netlist(&nl, &conv);
        let (alive, _) = ungoverned(
            &conv,
            AigLit::TRUE,
            &cands,
            &SimFilterConfig {
                cycles: 64,
                ..Default::default()
            },
            &random_stimulus,
            1,
        );
        assert!(alive.contains(&Candidate {
            net: never,
            kind: CandidateKind::ConstFalse
        }));
        assert!(!alive.contains(&Candidate {
            net: noisy,
            kind: CandidateKind::ConstFalse
        }));
        assert!(alive.contains(&Candidate {
            net: noisy,
            kind: CandidateKind::EqualNet(a)
        }));
    }

    #[test]
    fn constraint_mask_prevents_false_kills() {
        // y = a; under constraint a==1 the candidate y==1 must survive even
        // though the stimulus sometimes violates the constraint.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Buf, &[a], "y");
        nl.add_output("y", y);
        let conv = netlist_to_aig(&nl, &[]);
        let constraint = conv.input_lit[&a];
        let cands = vec![Candidate {
            net: y,
            kind: CandidateKind::ConstTrue,
        }];
        let (alive, _) = ungoverned(
            &conv,
            constraint,
            &cands,
            &SimFilterConfig {
                cycles: 32,
                ..Default::default()
            },
            // Half the lanes violate the constraint.
            &|_r, words| words.fill(0xAAAA_AAAA_AAAA_AAAA),
            5,
        );
        assert_eq!(
            alive.len(),
            1,
            "y==1 survives in constraint-satisfying lanes"
        );
    }

    #[test]
    fn matches_reference_implementation() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_cell(CellKind::Nand2, &[a, b], "n1");
        let n2 = nl.add_cell(CellKind::Xor2, &[n1, a], "n2");
        let n3 = nl.add_cell(CellKind::Inv, &[n2], "n3");
        nl.add_output("n3", n3);
        let conv = netlist_to_aig(&nl, &[]);
        let cands = crate::candidates_for_netlist(&nl, &conv);
        // 6 blocks: one full chunk plus a partial (padded) one.
        let config = SimFilterConfig {
            cycles: 64,
            lane_blocks: 6,
            ..Default::default()
        };
        let fast = ungoverned(&conv, AigLit::TRUE, &cands, &config, &random_stimulus, 77);
        let slow =
            simulate_filter_reference(&conv, AigLit::TRUE, &cands, &config, &random_stimulus, 77);
        assert_eq!(fast, slow);
    }

    #[test]
    fn restart_threshold_triggers_and_counts() {
        // Constraint = a; stimulus drives a low in most lanes so the sticky
        // mask decays below the threshold and forces restarts.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Buf, &[a], "y");
        nl.add_output("y", y);
        let conv = netlist_to_aig(&nl, &[]);
        let constraint = conv.input_lit[&a];
        let cands = vec![Candidate {
            net: y,
            kind: CandidateKind::ConstTrue,
        }];
        let config = SimFilterConfig {
            cycles: 40,
            lane_blocks: 1,
            ..Default::default()
        };
        let (alive, stats) = ungoverned(
            &conv,
            constraint,
            &cands,
            &config,
            // Only 4 lanes ever satisfy the constraint: always below the
            // threshold of 8, so every cycle restarts.
            &|_r, words| words.fill(0xF),
            9,
        );
        assert_eq!(stats.restarts, 40, "every cycle should restart");
        assert_eq!(alive.len(), 1, "no evidence was collected, so no kill");
        // With the threshold disabled the same stimulus collects evidence.
        let (_, stats0) = ungoverned(
            &conv,
            constraint,
            &cands,
            &SimFilterConfig {
                restart_threshold: 0,
                ..config
            },
            &|_r, words| words.fill(0xF),
            9,
        );
        assert_eq!(stats0.restarts, 0);
        assert!(stats0.candidate_cycles > 0);
    }

    /// A small design with a mix of true and false candidates, used by the
    /// governance tests.
    fn governed_fixture() -> (Netlist, pdat_aig::NetlistAig, Vec<Candidate>) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell(CellKind::Xor2, &[a, b], "x");
        let y = nl.add_cell(CellKind::And2, &[a, x], "y");
        let z = nl.add_cell(CellKind::Or2, &[y, b], "z");
        nl.add_output("z", z);
        let conv = netlist_to_aig(&nl, &[]);
        let cands = crate::candidates_for_netlist(&nl, &conv);
        (nl, conv, cands)
    }

    #[test]
    fn cycle_budget_truncation_is_sound_and_deterministic() {
        let (_nl, conv, cands) = governed_fixture();
        let config = SimFilterConfig {
            cycles: 48,
            lane_blocks: 9, // 3 chunks
            ..Default::default()
        };
        let (free, _) = ungoverned(
            &conv,
            AigLit::TRUE,
            &cands,
            &config,
            &random_stimulus,
            0xBEEF,
        );
        // Budget covers roughly half the full run's block-cycles, so some
        // chunk must be truncated.
        let truncated = || {
            let g = Governor::new(&GovernorConfig {
                cycle_budget: Some(300),
                ..Default::default()
            });
            simulate_filter_governed(
                &conv,
                AigLit::TRUE,
                &cands,
                &config,
                &random_stimulus,
                0xBEEF,
                &g,
            )
        };
        let got = truncated();
        assert!(
            got.0.iter().all(|c| free.contains(c)),
            "degraded survivors must be a subset of the fault-free ones"
        );
        assert!(
            got.2.iter().any(|e| e.cause == Cause::CycleBudget),
            "the truncation must be reported"
        );
        assert_eq!(got, truncated(), "budget truncation must be deterministic");
    }

    #[test]
    fn zero_cycle_budget_drops_every_candidate() {
        let (_nl, conv, cands) = governed_fixture();
        let g = Governor::new(&GovernorConfig {
            cycle_budget: Some(0),
            ..Default::default()
        });
        let (survivors, stats, events) = simulate_filter_governed(
            &conv,
            AigLit::TRUE,
            &cands,
            &SimFilterConfig::default(),
            &random_stimulus,
            1,
            &g,
        );
        assert!(survivors.is_empty(), "nothing was vetted, nothing survives");
        assert_eq!(stats.cycles, 0);
        let dropped: usize = events.iter().map(|e| e.dropped).sum();
        assert_eq!(dropped, cands.len());
    }

    #[test]
    fn injected_worker_panic_is_isolated_and_sound() {
        use pdat_governor::FaultPlan;
        let (_nl, conv, cands) = governed_fixture();
        let config = SimFilterConfig {
            cycles: 48,
            lane_blocks: 9, // 3 chunks
            ..Default::default()
        };
        let (free, _) = ungoverned(
            &conv,
            AigLit::TRUE,
            &cands,
            &config,
            &random_stimulus,
            0xBEEF,
        );
        let g = Governor::new(&GovernorConfig {
            fault_plan: FaultPlan {
                // Cycle 0 so the fault fires before the chunk can finish
                // vetting (kills can empty the alive set within a cycle or
                // two on a design this small).
                sim_panic_at: Some((1, 0)),
                ..Default::default()
            },
            ..Default::default()
        });
        // Must not abort the process; the panicking chunk degrades instead.
        // Silence the default hook around the injected panic so the test
        // log stays readable.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (survivors, _, events) = simulate_filter_governed(
            &conv,
            AigLit::TRUE,
            &cands,
            &config,
            &random_stimulus,
            0xBEEF,
            &g,
        );
        std::panic::set_hook(hook);
        assert!(
            events.iter().any(|e| e.cause == Cause::WorkerPanic),
            "the isolated panic must be reported: {events:?}"
        );
        assert!(
            survivors.iter().all(|c| free.contains(c)),
            "post-panic survivors must be a subset of the fault-free ones"
        );
    }

    const N_INPUTS: usize = 3;

    /// A random small sequential design over three inputs: each recipe
    /// entry adds one cell (kind, fan-in picks, flop reset value) on top
    /// of the nets built so far.
    fn build_netlist(recipe: &[(u8, u8, u8, u8, bool)]) -> Netlist {
        let mut nl = Netlist::new("rand");
        let mut nets: Vec<NetId> = (0..N_INPUTS)
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        let mut dffs = 0;
        for (k, (kind_sel, a, b, c, init)) in recipe.iter().enumerate() {
            let pick = |x: u8| nets[x as usize % nets.len()];
            let o = match kind_sel % 8 {
                0 => nl.add_cell(CellKind::And2, &[pick(*a), pick(*b)], format!("n{k}")),
                1 => nl.add_cell(CellKind::Or2, &[pick(*a), pick(*b)], format!("n{k}")),
                2 => nl.add_cell(CellKind::Xor2, &[pick(*a), pick(*b)], format!("n{k}")),
                3 => nl.add_cell(CellKind::Inv, &[pick(*a)], format!("n{k}")),
                4 => nl.add_cell(
                    CellKind::Mux2,
                    &[pick(*a), pick(*b), pick(*c)],
                    format!("n{k}"),
                ),
                5 | 6 => {
                    if dffs < 6 {
                        dffs += 1;
                        nl.add_dff(pick(*a), *init, format!("n{k}"))
                    } else {
                        nl.add_cell(CellKind::Nand2, &[pick(*a), pick(*b)], format!("n{k}"))
                    }
                }
                _ => nl.add_cell(CellKind::Nor2, &[pick(*a), pick(*b)], format!("n{k}")),
            };
            nets.push(o);
        }
        for (i, &n) in nets.iter().rev().take(3).enumerate() {
            nl.add_output(format!("o{i}"), n);
        }
        nl
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compacted wide engine must produce bit-identical survivors
        /// and stats to the naive reference scan, for any netlist, seed
        /// and lane-block count (1..6 covers one chunk, a padded chunk,
        /// and a full chunk plus a padded one), whether its governor is
        /// unlimited or armed with caps that never trip.
        #[test]
        fn wide_filter_matches_sequential_reference(
            recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 2..28),
            seed in any::<u64>(),
            lane_blocks in 1usize..6,
            restart_threshold in 0u32..12,
        ) {
            let nl = build_netlist(&recipe);
            nl.validate().unwrap();
            let na = netlist_to_aig(&nl, &[]);
            let cands = crate::candidates_for_netlist(&nl, &na);
            // Constrain on one input being high so the sticky mask and
            // restart logic are exercised, not just the TRUE fast path.
            let constraint = na.input_lit[&nl.inputs()[0]];
            let config = SimFilterConfig {
                cycles: 48,
                lane_blocks,
                restart_threshold,
                ..Default::default()
            };
            let slow =
                simulate_filter_reference(&na, constraint, &cands, &config, &random_stimulus, seed);
            let armed = Governor::new(&GovernorConfig {
                deadline: Some(Duration::from_secs(86_400)),
                cycle_budget: Some(u64::MAX / 2),
                conflict_budget: Some(u64::MAX / 2),
                ..Default::default()
            });
            for gov in [Governor::unlimited(), armed] {
                let fast = simulate_filter_governed(
                    &na,
                    constraint,
                    &cands,
                    &config,
                    &random_stimulus,
                    seed,
                    &gov,
                );
                prop_assert!(fast.2.is_empty(), "an untripped governor cannot degrade");
                prop_assert_eq!(&fast.0, &slow.0, "survivor sets diverge");
                prop_assert_eq!(&fast.1, &slow.1, "stats diverge");
            }
        }
    }
}
