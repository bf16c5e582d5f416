//! Bit-parallel constrained random simulation for candidate falsification.
//!
//! The falsification engine simulates `lane_blocks` independent 64-lane
//! trajectories and merges their per-candidate kill sets. Blocks are
//! embarrassingly parallel: each derives its own RNG stream purely from
//! `(seed, block_index)`, so the merged result is **identical for a given
//! `(seed, lane_blocks)` regardless of `threads`** — kill-set union is
//! commutative and stats merging is additive.
//!
//! Blocks are executed in fixed chunks of [`SIM_WIDTH`] on an
//! [`AigSimulatorWide`]: one schedule sweep evaluates `SIM_WIDTH` blocks at
//! once (amortizing the schedule stream and vectorizing the word ops), and
//! a candidate killed by any block in the chunk stops being checked by the
//! whole chunk — safe because the kill set is a union, so once a candidate
//! is in it, further checks are redundant. Chunk boundaries depend only on
//! `lane_blocks`, never on `threads`, which preserves thread-count
//! invariance of both survivors and stats.
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
//! boundaries, and isolates worker panics behind a per-chunk
//! `catch_unwind`. Any chunk cut short *drops* its unvetted candidates so
//! degraded survivors are always a subset of the fault-free ones.

use crate::candidates::{Candidate, CandidateKind};
use pdat_aig::{AigLit, AigSimulator, AigSimulatorWide, NetlistAig, SIM_WIDTH};
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
    /// Worker threads to spread block chunks over. **Not** part of the
    /// result's identity: any value yields bit-identical survivors and
    /// stats. Parallelism granularity is one chunk of [`SIM_WIDTH`] blocks,
    /// so at most `min(threads, ceil(lane_blocks / SIM_WIDTH))` workers
    /// run — one at the defaults (4 blocks, `SIM_WIDTH` = 4).
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

impl SimFilterStats {
    fn absorb(&mut self, other: &SimFilterStats) {
        self.candidate_cycles += other.candidate_cycles;
        self.kills += other.kills;
        self.restarts += other.restarts;
        self.wasted_lane_cycles += other.wasted_lane_cycles;
        self.cycles += other.cycles;
        self.lane_blocks += other.lane_blocks;
    }
}

/// What a live candidate asserts about its (already resolved) target word
/// (used by the sequential reference scan).
#[derive(Clone, Copy)]
enum KindLit {
    Const(bool),
    Equal(AigLit),
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

/// Simulate one chunk of up to [`SIM_WIDTH`] lane blocks (blocks
/// `chunk * SIM_WIDTH ..+ real`); sets kill bits and accumulates stats.
/// Words `real..SIM_WIDTH` are padding: their `scan_ok` mask stays zero
/// forever, so they can neither kill nor count.
///
/// Governance: the chunk simulates at most `allowed_cycles` (its
/// deterministic share of the global cycle budget), polls the governor's
/// deadline/cancellation each cycle, and honors an armed sim-panic fault.
/// A chunk that stops before `config.cycles` did not finish vetting its
/// alive set, so it *drops* every still-alive candidate (sets their bits
/// in `dropped`): partial positive evidence must not let a candidate
/// reach the prover, or the degraded survivor set could exceed the
/// fault-free one and prove candidates with unchecked base cases.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    proto: &AigSimulatorWide<'_>,
    constraint: AigLit,
    template: &[Member],
    config: &SimFilterConfig,
    stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
    seed: u64,
    chunk: usize,
    real: usize,
    allowed_cycles: usize,
    governor: &Governor,
    killed: &mut [u64],
    dropped: &mut [u64],
    stats: &mut SimFilterStats,
    events: &mut Vec<DegradationEvent>,
) {
    let chunk_base = (chunk * SIM_WIDTH) as u64;
    let mut sim = proto.clone();
    sim.reset();
    // Per-chunk alive set: one flat, target-sorted array, compacted in
    // place on kill — dead candidates cost zero on every later cycle, in
    // every block of the chunk.
    let mut live: Vec<Member> = template.to_vec();
    let mut rngs: Vec<StdRng> = (0..real)
        .map(|w| StdRng::seed_from_u64(block_seed(seed, chunk_base + w as u64)))
        .collect();
    let n_inputs = sim.aig().inputs().len();
    let mut scratch = vec![0u64; n_inputs];
    let mut inputs = vec![[0u64; SIM_WIDTH]; n_inputs];
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
            panic!("injected fault: sim worker panic at chunk {chunk}, cycle {cycle}");
        }
        governor.charge_cycles(real as u64);
        simulated += 1;
        for w in 0..real {
            stimulus(&mut rngs[w], &mut scratch);
            for (inp, &s) in inputs.iter_mut().zip(&scratch) {
                inp[w] = s;
            }
        }
        sim.eval(&inputs);
        let cons = sim.lit_words(constraint);
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
                    killed[m.cand as usize / 64] |= 1u64 << (m.cand % 64);
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
            let mut n = 0usize;
            for m in &live {
                let w = m.cand as usize / 64;
                let b = 1u64 << (m.cand % 64);
                if dropped[w] & b == 0 {
                    dropped[w] |= b;
                    n += 1;
                }
            }
            events.push(DegradationEvent {
                stage: Stage::Falsify,
                cause,
                dropped: n,
                detail: format!(
                    "chunk {chunk} stopped after {simulated} of {} cycles",
                    config.cycles
                ),
            });
        }
    }
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Per-chunk result, merged deterministically (in chunk order) after all
/// chunks finish.
struct ChunkOutcome {
    chunk: usize,
    killed: Vec<u64>,
    dropped: Vec<u64>,
    stats: SimFilterStats,
    events: Vec<DegradationEvent>,
}

/// Run one chunk behind a panic boundary. A panicking chunk poisons only
/// itself: kills it recorded before dying are kept (each was genuinely
/// observed), everything else in its template is dropped as unvetted, and
/// the panic becomes a [`Cause::WorkerPanic`] degradation event instead of
/// aborting the process.
#[allow(clippy::too_many_arguments)]
fn execute_chunk(
    proto: &AigSimulatorWide<'_>,
    constraint: AigLit,
    template: &[Member],
    config: &SimFilterConfig,
    stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
    seed: u64,
    chunk: usize,
    real: usize,
    allowed_cycles: usize,
    governor: &Governor,
    words: usize,
) -> ChunkOutcome {
    let mut killed = vec![0u64; words];
    let mut dropped = vec![0u64; words];
    let mut stats = SimFilterStats::default();
    let mut events = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_chunk(
            proto,
            constraint,
            template,
            config,
            stimulus,
            seed,
            chunk,
            real,
            allowed_cycles,
            governor,
            &mut killed,
            &mut dropped,
            &mut stats,
            &mut events,
        )
    }));
    if let Err(payload) = outcome {
        let mut n = 0usize;
        for m in template {
            let w = m.cand as usize / 64;
            let b = 1u64 << (m.cand % 64);
            if killed[w] & b == 0 && dropped[w] & b == 0 {
                dropped[w] |= b;
                n += 1;
            }
        }
        events.push(DegradationEvent {
            stage: Stage::Falsify,
            cause: Cause::WorkerPanic,
            dropped: n,
            detail: format!("chunk {chunk}: {}", panic_message(payload.as_ref())),
        });
    }
    ChunkOutcome {
        chunk,
        killed,
        dropped,
        stats,
        events,
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
/// `(seed, config.cycles, config.lane_blocks, config.restart_threshold)`;
/// `config.threads` never changes the result.
///
/// The shared [`Governor`]'s global cycle budget, deadline, cancellation,
/// and any armed fault plan are honored; [`Governor::unlimited`] runs the
/// engine to completion.
///
/// Soundness under degradation: every chunk that stops before completing
/// its full vetting (cycle-budget truncation, deadline, cancellation, or an
/// isolated worker panic) *drops* its still-alive candidates — they are
/// excluded from the survivors exactly as if simulation had falsified them.
/// Degraded survivors are therefore always a subset of the fault-free
/// survivors, and since the downstream Houdini fixpoint is monotone in its
/// input set, degraded proofs are a subset of fault-free proofs.
///
/// Determinism: the global cycle budget is pre-apportioned over chunks in
/// fixed chunk order, so budget-truncation results are bit-identical for
/// every `threads` value, like the ungoverned engine. Deadline and
/// cancellation cuts depend on wall-clock timing and are inherently
/// nondeterministic (but still sound).
#[allow(clippy::too_many_arguments)]
pub fn simulate_filter_governed(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
    config: &SimFilterConfig,
    stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
    seed: u64,
    governor: &Governor,
) -> (Vec<Candidate>, SimFilterStats, Vec<DegradationEvent>) {
    let resolved = resolve_candidates(na, candidates);
    let words = candidates.len().div_ceil(64);
    let mut killed = vec![0u64; words];
    let mut dropped = vec![0u64; words];
    let mut stats = SimFilterStats::default();
    let mut events = Vec::new();
    for &i in &resolved.prekilled {
        killed[i as usize / 64] |= 1u64 << (i % 64);
    }

    let proto = AigSimulatorWide::new(&na.aig);
    let blocks = config.lane_blocks.max(1);
    let chunks = blocks.div_ceil(SIM_WIDTH);
    let threads = config.threads.max(1).min(chunks);
    let real_of = |chunk: usize| SIM_WIDTH.min(blocks - chunk * SIM_WIDTH);

    // Deterministic apportionment of the remaining global cycle budget:
    // allowances are fixed per chunk (in chunk order) *before* any worker
    // starts, so budget truncation cannot depend on thread scheduling. A
    // chunk burns `real` block-cycles per simulated cycle.
    let allowance: Vec<usize> = match governor.remaining_cycles() {
        None => vec![config.cycles; chunks],
        Some(mut remaining) => (0..chunks)
            .map(|chunk| {
                let real = real_of(chunk) as u64;
                let alloc = (remaining / real).min(config.cycles as u64);
                remaining -= alloc * real;
                alloc as usize
            })
            .collect(),
    };

    let mut outcomes: Vec<ChunkOutcome> = if threads == 1 {
        (0..chunks)
            .map(|chunk| {
                execute_chunk(
                    &proto,
                    constraint,
                    &resolved.members,
                    config,
                    stimulus,
                    seed,
                    chunk,
                    real_of(chunk),
                    allowance[chunk],
                    governor,
                    words,
                )
            })
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let proto = &proto;
                    let members = &resolved.members;
                    let allowance = &allowance;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut chunk = t;
                        while chunk < chunks {
                            out.push(execute_chunk(
                                proto,
                                constraint,
                                members,
                                config,
                                stimulus,
                                seed,
                                chunk,
                                real_of(chunk),
                                allowance[chunk],
                                governor,
                                words,
                            ));
                            chunk += threads;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    // Chunk panics are caught inside execute_chunk; a panic
                    // escaping to here is an engine bug, not input-driven.
                    h.join()
                        .expect("sim worker panicked outside the chunk boundary")
                })
                .collect()
        })
    };
    // Merge in chunk order: kills and drops are order-insensitive unions,
    // but event order should read as chunk order regardless of scheduling.
    outcomes.sort_unstable_by_key(|o| o.chunk);
    for o in &outcomes {
        for (dst, src) in killed.iter_mut().zip(&o.killed) {
            *dst |= src;
        }
        for (dst, src) in dropped.iter_mut().zip(&o.dropped) {
            *dst |= src;
        }
        stats.absorb(&o.stats);
    }
    for o in outcomes {
        events.extend(o.events);
    }

    stats.kills = killed.iter().map(|w| w.count_ones() as u64).sum();
    let survivors = candidates
        .iter()
        .enumerate()
        .filter(|&(i, _)| (killed[i / 64] | dropped[i / 64]) & (1u64 << (i % 64)) == 0)
        .map(|(_, c)| *c)
        .collect();
    (survivors, stats, events)
}

/// Reference implementation: single-threaded, uncompacted per-candidate
/// scan over scalar simulators with the exact same chunk/RNG/restart
/// semantics. Exists as the oracle the wide engine is property-tested
/// against: it must produce bit-identical survivors and stats to a
/// [`simulate_filter_governed`] run whose governor never trips.
pub fn simulate_filter_reference(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
    config: &SimFilterConfig,
    stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
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
                CandidateKind::EqualNet(other) => KindLit::Equal(na.net_lit.get(&other).copied()?),
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_aig::netlist_to_aig;
    use pdat_netlist::{CellKind, Netlist};
    use rand::Rng;

    /// A run to completion under [`Governor::unlimited`].
    fn ungoverned(
        na: &NetlistAig,
        constraint: AigLit,
        candidates: &[Candidate],
        config: &SimFilterConfig,
        stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
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
    fn thread_count_does_not_change_result() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell(CellKind::Xor2, &[a, b], "x");
        let y = nl.add_cell(CellKind::And2, &[a, x], "y");
        let z = nl.add_cell(CellKind::Or2, &[y, b], "z");
        nl.add_output("z", z);
        let conv = netlist_to_aig(&nl, &[]);
        let cands = crate::candidates_for_netlist(&nl, &conv);
        let mut previous: Option<(Vec<Candidate>, SimFilterStats)> = None;
        // 9 blocks = 3 chunks, so 2 threads get uneven work and 7 threads
        // cap at the chunk count.
        for threads in [1, 2, 4, 7] {
            let got = ungoverned(
                &conv,
                AigLit::TRUE,
                &cands,
                &SimFilterConfig {
                    cycles: 48,
                    lane_blocks: 9,
                    threads,
                    restart_threshold: 8,
                },
                &random_stimulus,
                0xBEEF,
            );
            if let Some(prev) = &previous {
                assert_eq!(prev, &got, "threads={threads} changed the result");
            }
            previous = Some(got);
        }
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
            threads: 4,
            restart_threshold: 8,
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
            threads: 1,
            restart_threshold: 8,
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
    fn cycle_budget_truncation_is_sound_and_thread_invariant() {
        use pdat_governor::{Cause, Governor, GovernorConfig};
        let (_nl, conv, cands) = governed_fixture();
        let config = SimFilterConfig {
            cycles: 48,
            lane_blocks: 9, // 3 chunks
            threads: 1,
            restart_threshold: 8,
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
        let mut previous = None;
        for threads in [1, 2, 4] {
            let g = Governor::new(&GovernorConfig {
                cycle_budget: Some(300),
                ..Default::default()
            });
            let got = simulate_filter_governed(
                &conv,
                AigLit::TRUE,
                &cands,
                &SimFilterConfig {
                    threads,
                    ..config.clone()
                },
                &random_stimulus,
                0xBEEF,
                &g,
            );
            assert!(
                got.0.iter().all(|c| free.contains(c)),
                "degraded survivors must be a subset of the fault-free ones"
            );
            assert!(
                got.2.iter().any(|e| e.cause == Cause::CycleBudget),
                "the truncation must be reported"
            );
            if let Some(prev) = &previous {
                assert_eq!(prev, &got, "threads={threads} changed the governed result");
            }
            previous = Some(got);
        }
    }

    #[test]
    fn zero_cycle_budget_drops_every_candidate() {
        use pdat_governor::{Governor, GovernorConfig};
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
        use pdat_governor::{Cause, FaultPlan, Governor, GovernorConfig};
        let (_nl, conv, cands) = governed_fixture();
        let config = SimFilterConfig {
            cycles: 48,
            lane_blocks: 9, // 3 chunks
            threads: 4,
            restart_threshold: 8,
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
}
