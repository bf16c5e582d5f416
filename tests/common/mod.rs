//! Shared helpers for the integration tests: the keyed-design and
//! instruction-detector fixtures, the pipeline's falsify stage rebuilt
//! from public parts, the plain Houdini oracle the prover is compared
//! against, and the gate-level lockstep comparison of two cores.

#![allow(dead_code)] // each test crate uses its own subset

use pdat_repro::aig::{netlist_to_aig, AigLit, Frame, FrameEncoder, NetlistAig};
use pdat_repro::cores::{CoreHarness, GateCore};
use pdat_repro::isa::rv32::RvInstr;
use pdat_repro::isa::RvSubset;
use pdat_repro::mc::{
    candidates_for_netlist, simulate_filter_governed, Candidate, CandidateKind, SimFilterConfig,
};
use pdat_repro::netlist::{CellKind, NetId, Netlist};
use pdat_repro::sat::{Lit, SolveResult, Solver};
use pdat_repro::{rv_constraint, Governor, InstrConstraint, PdatConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// The keyed-design fixture: a key DFF stuck at 1 gates a mux between
/// the real function `t = a & b` and a decoy. PDAT proves the key
/// constant and the mux output equal to `t`.
pub fn keyed_design() -> Netlist {
    let mut nl = Netlist::new("locked");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let fb = nl.add_net("fb");
    let key = nl.add_dff(fb, true, "key");
    nl.assign_alias(fb, key);
    let t = nl.add_cell(CellKind::And2, &[a, b], "t");
    let decoy = nl.add_cell(CellKind::Xor2, &[a, b], "decoy");
    let out = nl.add_cell(CellKind::Mux2, &[decoy, t, key], "out");
    nl.add_output("y", out);
    nl
}

/// A 32-bit instruction port driving one exact-pattern detector and one
/// sticky "ever seen" latch (`<instr>_sticky`, output `saw_<instr>`) per
/// watched instruction. Removing a watched instruction from the subset
/// makes its detector and latch provably constant-false, so the proved
/// set genuinely varies with the environment.
pub fn detector_core(watched: &[RvInstr]) -> (Netlist, Vec<NetId>) {
    let mut nl = Netlist::new("rvdet");
    let port: Vec<NetId> = (0..32).map(|b| nl.add_input(format!("i{b}"))).collect();
    for instr in watched {
        let p = instr.pattern();
        let tag = format!("{instr:?}").to_lowercase();
        let mut acc: Option<NetId> = None;
        for (b, &pin) in port.iter().enumerate() {
            if p.mask >> b & 1 == 0 {
                continue;
            }
            let bit = if p.value >> b & 1 == 1 {
                pin
            } else {
                nl.add_cell(CellKind::Inv, &[pin], format!("{tag}_n{b}"))
            };
            acc = Some(match acc {
                None => bit,
                Some(a) => nl.add_cell(CellKind::And2, &[a, bit], format!("{tag}_a{b}")),
            });
        }
        let det = acc.expect("pattern has masked bits");
        let fb = nl.add_net(format!("{tag}_fb"));
        let q = nl.add_dff(fb, false, format!("{tag}_seen"));
        let sticky = nl.add_cell(CellKind::Or2, &[q, det], format!("{tag}_sticky"));
        nl.assign_alias(fb, sticky);
        nl.add_output(format!("saw_{tag}"), sticky);
    }
    nl.validate().expect("fixture netlist valid");
    (nl, port)
}

/// Run `f` with the default panic hook silenced: injected panics would
/// otherwise spray backtraces over the test log. The hook is
/// process-global, so swaps are serialized.
pub fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static HOOK: Mutex<()> = Mutex::new(());
    let _guard = HOOK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

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

/// "Candidate holds" in `frame`: the net's literal for constants, a fresh
/// variable defined as the equality for equivalences. `None` when the
/// model does not know one of the candidate's nets.
fn holds(solver: &mut Solver, na: &NetlistAig, frame: &Frame, c: &Candidate) -> Option<Lit> {
    let target = frame.lit(*na.net_lit.get(&c.net)?);
    Some(match c.kind {
        CandidateKind::ConstFalse => !target,
        CandidateKind::ConstTrue => target,
        CandidateKind::EqualNet(other) => {
            let o = frame.lit(*na.net_lit.get(&other)?);
            let t = Lit::pos(solver.new_var());
            solver.add_clause(&[!t, target, !o]);
            solver.add_clause(&[!t, !target, o]);
            solver.add_clause(&[t, target, o]);
            solver.add_clause(&[t, !target, !o]);
            t
        }
    })
}

/// Houdini's drop loop over `lits`, one "holds" literal per candidate:
/// ask for a model that violates some alive literal under the extra
/// assumptions `assume(alive)`, kill every literal the model violates, and
/// repeat until UNSAT. Returns the alive flags.
fn drop_until_unsat(
    solver: &mut Solver,
    lits: &[Lit],
    assume: &dyn Fn(&[bool]) -> Vec<Lit>,
) -> Vec<bool> {
    let mut alive = vec![true; lits.len()];
    loop {
        let live: Vec<usize> = (0..lits.len()).filter(|&k| alive[k]).collect();
        if live.is_empty() {
            break;
        }
        // act → some alive literal is false; retired after the query.
        let act = Lit::pos(solver.new_var());
        let mut violated = vec![!act];
        violated.extend(live.iter().map(|&k| !lits[k]));
        solver.add_clause(&violated);
        let mut assumptions = vec![act];
        assumptions.extend(assume(&alive));
        let verdict = solver.solve_with(&assumptions);
        let mut dropped = 0;
        if verdict == SolveResult::Sat {
            for &k in &live {
                if solver.value(lits[k].var()) != Some(lits[k].is_pos()) {
                    alive[k] = false;
                    dropped += 1;
                }
            }
        }
        solver.add_clause(&[!act]);
        match verdict {
            SolveResult::Unsat => break,
            SolveResult::Sat => assert!(dropped > 0, "a model must violate an alive literal"),
            SolveResult::Unknown => panic!("the oracle runs without a budget"),
        }
    }
    alive
}

/// Plain Houdini, the reference the prover must match: full frame
/// encodings on fresh solvers — no cone of influence, no CNF
/// preprocessing, no OR-tree, no conflict budget. The base case solves
/// Init ∧ C ∧ ¬⋀P on the reset frame and drops every candidate the model
/// violates, until UNSAT. Consecution then solves C@0 ∧ C@1 ∧ P@0 ∧ ¬⋀P@1
/// over the alive candidates P on a two-frame solver and drops every
/// candidate the model violates at frame 1, until UNSAT. Returns the
/// proved candidates in input order; candidates whose nets the model does
/// not know are never proved.
pub fn plain_houdini(
    na: &NetlistAig,
    constraint: AigLit,
    candidates: &[Candidate],
) -> Vec<Candidate> {
    let mut solver = Solver::new();
    let enc = FrameEncoder::new(&na.aig, &mut solver);
    let init = enc.initial_state();
    let reset = enc.encode_frame(&mut solver, &init);
    solver.add_clause(&[reset.lit(constraint)]);
    let known: Vec<(Candidate, Lit)> = candidates
        .iter()
        .filter_map(|c| Some((*c, holds(&mut solver, na, &reset, c)?)))
        .collect();
    let lits: Vec<Lit> = known.iter().map(|&(_, l)| l).collect();
    let alive = drop_until_unsat(&mut solver, &lits, &|_| Vec::new());
    let base: Vec<Candidate> = (0..known.len())
        .filter(|&k| alive[k])
        .map(|k| known[k].0)
        .collect();

    let mut solver = Solver::new();
    let enc = FrameEncoder::new(&na.aig, &mut solver);
    let state0 = enc.free_state(&mut solver);
    let f0 = enc.encode_frame(&mut solver, &state0);
    let f1 = enc.encode_frame(&mut solver, &f0.next_state);
    solver.add_clause(&[f0.lit(constraint)]);
    solver.add_clause(&[f1.lit(constraint)]);

    let frames: Vec<(Lit, Lit)> = base
        .iter()
        .map(|c| {
            let p0 = holds(&mut solver, na, &f0, c).expect("known net");
            let p1 = holds(&mut solver, na, &f1, c).expect("known net");
            (p0, p1)
        })
        .collect();
    let p1: Vec<Lit> = frames.iter().map(|&(_, p1)| p1).collect();
    let hyps = |alive: &[bool]| -> Vec<Lit> {
        (0..frames.len())
            .filter(|&k| alive[k])
            .map(|k| frames[k].0)
            .collect()
    };
    let alive = drop_until_unsat(&mut solver, &p1, &hyps);
    (0..base.len())
        .filter(|&k| alive[k])
        .map(|k| base[k])
        .collect()
}

/// Run `program` on both cores until `retires` instructions retire and
/// assert that they agree: equal retire `(pc, cycle)` streams, every
/// register both expose, and equal data memory.
pub fn lockstep<C: GateCore>(original: &C, reduced: &C, program: &[u8], retires: usize) {
    let mut h1 = CoreHarness::new(original, program, 4096);
    let mut h2 = CoreHarness::new(reduced, program, 4096);
    let n1 = h1.run_until_retires(retires, 20_000);
    let n2 = h2.run_until_retires(retires, 20_000);
    assert_eq!(n1, retires, "original stalled");
    assert_eq!(n2, retires, "reduced stalled");
    assert_eq!(h1.retires, h2.retires, "retire (pc, cycle) streams diverge");
    let exposed = |core: &C| -> Vec<usize> {
        let regs = &core.ports().regs;
        (0..regs.len()).filter(|&r| !regs[r].is_empty()).collect()
    };
    let regs = exposed(original);
    assert_eq!(
        regs,
        exposed(reduced),
        "the cores expose different registers"
    );
    for r in regs {
        assert_eq!(h1.reg(r), h2.reg(r), "register {r} diverges");
    }
    assert_eq!(h1.dmem, h2.dmem, "data memory diverges");
}
