//! Shared helpers for the integration tests: the pipeline's falsify stage
//! rebuilt from public parts, and the plain Houdini oracle the sharded
//! prover is compared against.

use pdat_repro::aig::{netlist_to_aig, AigLit, FrameEncoder, NetlistAig};
use pdat_repro::isa::RvSubset;
use pdat_repro::mc::{
    candidates_for_netlist, simulate_filter_governed, Candidate, CandidateKind, SimFilterConfig,
};
use pdat_repro::netlist::{NetId, Netlist};
use pdat_repro::sat::{Lit, SolveResult, Solver};
use pdat_repro::{rv_constraint, Governor, InstrConstraint, PdatConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// The prover's inputs, as the pipeline hands them over.
pub struct Prepared {
    /// Analysis model.
    pub na: NetlistAig,
    /// Environment constraint literal.
    pub constraint: AigLit,
    /// Candidates that survived constrained random simulation.
    pub survivors: Vec<Candidate>,
}

/// The pipeline up to the prover: the analysis AIG, the environment
/// (unconstrained, or `subset` on the cutpoint-based fetch `port`), and
/// the simulation survivors under `config` — the same stimulus, seed and
/// engine settings `run_pdat` uses.
pub fn falsify(nl: &Netlist, rv: Option<(&RvSubset, &[NetId])>, config: &PdatConfig) -> Prepared {
    let cut = rv.map_or(&[][..], |(_, port)| port);
    let mut na = netlist_to_aig(nl, cut);
    let candidates = candidates_for_netlist(nl, &na);
    let mut instr: Vec<InstrConstraint> = Vec::new();
    let mut constraint = AigLit::TRUE;
    if let Some((subset, port)) = rv {
        let index_of: HashMap<AigLit, usize> = na
            .aig
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| (AigLit::of(n), i))
            .collect();
        let lits: Vec<AigLit> = port.iter().map(|n| na.input_lit[n]).collect();
        let idx: Vec<usize> = lits.iter().map(|l| index_of[l]).collect();
        let (l, c) = rv_constraint(&mut na.aig, &lits, idx, subset);
        constraint = l;
        instr.push(c);
    }
    let stimulus = |rng: &mut StdRng, words: &mut [u64]| {
        for w in words.iter_mut() {
            *w = rng.gen();
        }
        for c in &instr {
            c.drive(rng, words);
        }
    };
    let (survivors, _, events) = simulate_filter_governed(
        &na,
        constraint,
        &candidates,
        &SimFilterConfig {
            cycles: config.sim_cycles,
            lane_blocks: config.lane_blocks,
            threads: config.sim_threads,
            restart_threshold: config.restart_threshold,
        },
        &stimulus,
        config.seed,
        &Governor::unlimited(),
    );
    assert!(events.is_empty(), "an unlimited governor cannot degrade");
    Prepared {
        na,
        constraint,
        survivors,
    }
}

/// Plain Houdini, the reference the sharded prover must match: the full
/// two-frame encoding on one fresh solver — no cone of influence, no CNF
/// preprocessing, no shards, no OR-tree, no conflict budget. Each round
/// solves C@0 ∧ C@1 ∧ P@0 ∧ ¬⋀P@1 over the alive candidates P and drops
/// every candidate the model violates at frame 1, until the query is
/// UNSAT. Returns the proved candidates in input order; candidates whose
/// nets the model does not know are never proved.
pub fn plain_houdini(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
) -> Vec<Candidate> {
    let mut solver = Solver::new();
    let enc = FrameEncoder::new(&na.aig, &mut solver);
    let state0 = enc.free_state(&mut solver);
    let f0 = enc.encode_frame(&mut solver, &state0);
    let f1 = enc.encode_frame(&mut solver, &f0.next_state);
    solver.add_clause(&[f0.lit(constraint)]);
    solver.add_clause(&[f1.lit(constraint)]);

    // "Candidate holds" at a frame: the net's literal for constants, a
    // fresh variable defined as the equality for equivalences.
    let holds = |solver: &mut Solver, lit: &dyn Fn(AigLit) -> Lit, c: &Candidate| -> Option<Lit> {
        let target = lit(*na.net_lit.get(&c.net)?);
        Some(match c.kind {
            CandidateKind::ConstFalse => !target,
            CandidateKind::ConstTrue => target,
            CandidateKind::EqualNet(other) => {
                let o = lit(*na.net_lit.get(&other)?);
                let t = Lit::pos(solver.new_var());
                solver.add_clause(&[!t, target, !o]);
                solver.add_clause(&[!t, !target, o]);
                solver.add_clause(&[t, target, o]);
                solver.add_clause(&[t, !target, !o]);
                t
            }
        })
    };
    let frames: Vec<(usize, Lit, Lit)> = candidates
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let p0 = holds(&mut solver, &|l| f0.lit(l), c)?;
            let p1 = holds(&mut solver, &|l| f1.lit(l), c)?;
            Some((i, p0, p1))
        })
        .collect();

    let mut alive = vec![true; frames.len()];
    loop {
        let live: Vec<usize> = (0..frames.len()).filter(|&k| alive[k]).collect();
        if live.is_empty() {
            break;
        }
        // act → ¬⋀P@1 over the alive set; retired after the query.
        let act = Lit::pos(solver.new_var());
        let mut violated = vec![!act];
        violated.extend(live.iter().map(|&k| !frames[k].2));
        solver.add_clause(&violated);
        let mut assumptions = vec![act];
        assumptions.extend(live.iter().map(|&k| frames[k].1));
        let verdict = solver.solve_with(&assumptions);
        let mut dropped = 0;
        if verdict == SolveResult::Sat {
            for &k in &live {
                let p1 = frames[k].2;
                if solver.value(p1.var()) != Some(p1.is_pos()) {
                    alive[k] = false;
                    dropped += 1;
                }
            }
        }
        solver.add_clause(&[!act]);
        match verdict {
            SolveResult::Unsat => break,
            SolveResult::Sat => assert!(dropped > 0, "a model must violate an alive candidate"),
            SolveResult::Unknown => panic!("the oracle runs without a budget"),
        }
    }
    (0..frames.len())
        .filter(|&k| alive[k])
        .map(|k| candidates[frames[k].0])
        .collect()
}
