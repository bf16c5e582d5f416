//! `PreparedNetlist`: validation happens once, at construction, so every
//! entry must turn an invalid netlist into a typed error rather than reach
//! the AIG builder (which panics on a combinational cycle); and reusing
//! one prepared netlist, with its one-slot model memo, must answer every
//! request exactly as a fresh one does.

use pdat_repro::cache::CachedSummary;
use pdat_repro::isa::rv32::RvInstr;
use pdat_repro::isa::RvSubset;
use pdat_repro::netlist::{CellKind, NetId, Netlist, ValidateError};
use pdat_repro::{
    run_pdat, run_pdat_batch, run_pdat_cached, BatchRequest, CandidateId, ConstraintMode,
    DegradationEvent, Environment, Governor, PdatConfig, PdatError, PdatService, PreparedNetlist,
    ProofCache, ServeConfig,
};
use std::borrow::Cow;
use std::sync::Barrier;

/// `x = a & fb` with `fb` aliased back to `x`: a combinational cycle.
fn cyclic_netlist() -> Netlist {
    let mut nl = Netlist::new("loop");
    let a = nl.add_input("a");
    let fb = nl.add_net("fb");
    let x = nl.add_cell(CellKind::And2, &[a, fb], "x");
    nl.assign_alias(fb, x);
    nl.add_output("y", x);
    nl
}

fn is_cycle_error(e: &PdatError) -> bool {
    matches!(
        e,
        PdatError::InvalidNetlist(ValidateError::CombinationalCycle { .. })
    )
}

#[test]
fn every_entry_rejects_a_combinational_cycle() {
    let nl = cyclic_netlist();
    let cfg = PdatConfig::default();
    let env = Environment::Unconstrained;

    let err = run_pdat(&nl, &env, &cfg).expect_err("run_pdat rejects");
    assert!(is_cycle_error(&err), "run_pdat: {err:?}");

    let err = run_pdat_cached(&nl, &env, &[], &cfg, &ProofCache::new())
        .expect_err("run_pdat_cached rejects");
    assert!(is_cycle_error(&err), "run_pdat_cached: {err:?}");

    let err = PreparedNetlist::new(Cow::Borrowed(&nl))
        .err()
        .expect("PreparedNetlist::new rejects");
    assert!(is_cycle_error(&err), "PreparedNetlist::new: {err:?}");

    let err = PdatService::start(nl, ServeConfig::default())
        .err()
        .expect("PdatService::start rejects");
    assert!(is_cycle_error(&err), "PdatService::start: {err:?}");
}

/// Instructions the fixture watches for on fetch port 0; the test subset
/// drops the first four, so their detectors become provably dead.
const WATCHED: [RvInstr; 6] = [
    RvInstr::Add,
    RvInstr::Sub,
    RvInstr::Jalr,
    RvInstr::Sw,
    RvInstr::Lb,
    RvInstr::Beq,
];

/// `(mask, value)` patterns one port detects: port 0 the watched
/// instructions; port 1 `addi` with a fixed `rd` and `rs1`, rare enough
/// that whether simulation hits one depends on the exact stimulus. The
/// ports differ, so swapping their order changes which stimulus stream
/// each one gets, and with it the simulation survivors.
fn patterns(port: usize) -> Vec<(u32, u32)> {
    if port == 0 {
        let p = WATCHED.map(RvInstr::pattern);
        p.iter().map(|p| (p.mask, p.value)).collect()
    } else {
        let addi = RvInstr::Addi.pattern();
        (0..6u32)
            .map(|k| {
                (
                    addi.mask | 0xF_8F80,
                    addi.value | (k + 1) << 7 | (k + 9) << 15,
                )
            })
            .collect()
    }
}

/// Two fetch ports, each a 32-bit input latched into a fetch register
/// that feeds one exact-pattern detector and one sticky "ever seen" latch
/// per pattern. Returns the netlist, the input ports and the fetch
/// registers.
fn two_port_core() -> (Netlist, Vec<Vec<NetId>>, Vec<Vec<NetId>>) {
    let mut nl = Netlist::new("two_port");
    let mut inputs = Vec::new();
    let mut regs = Vec::new();
    for p in 0..2 {
        let port: Vec<NetId> = (0..32).map(|b| nl.add_input(format!("i{p}_{b}"))).collect();
        let reg: Vec<NetId> = port
            .iter()
            .enumerate()
            .map(|(b, &i)| nl.add_dff(i, false, format!("r{p}_{b}")))
            .collect();
        for (k, (mask, value)) in patterns(p).into_iter().enumerate() {
            let tag = format!("p{p}_{k}");
            let mut acc: Option<NetId> = None;
            for (b, &r) in reg.iter().enumerate() {
                if mask >> b & 1 == 0 {
                    continue;
                }
                let bit = if value >> b & 1 == 1 {
                    r
                } else {
                    nl.add_cell(CellKind::Inv, &[r], format!("{tag}_n{b}"))
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
        inputs.push(port);
        regs.push(reg);
    }
    (nl, inputs, regs)
}

fn config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x9E9A,
        ..Default::default()
    }
}

/// What a report must reproduce: proved ids, summary, simulation
/// survivors and degradations — or the request's error.
type Answer = Result<
    (
        Vec<CandidateId>,
        CachedSummary,
        usize,
        Vec<DegradationEvent>,
    ),
    PdatError,
>;

/// The memo sequence: uncut, cut, a malformed request, cut with the ports
/// swapped (same nets, different order), uncut again.
fn request<'a>(
    k: usize,
    subset: &'a RvSubset,
    inputs: &[Vec<NetId>],
    regs: &[Vec<NetId>],
) -> BatchRequest<'a> {
    let (ports, mode) = match k {
        0 | 4 => (inputs.to_vec(), ConstraintMode::PortBased),
        1 => (regs.to_vec(), ConstraintMode::CutpointBased),
        // Fetch-register nets are not free variables of the uncut model.
        2 => (vec![regs[0].clone()], ConstraintMode::PortBased),
        _ => (
            vec![regs[1].clone(), regs[0].clone()],
            ConstraintMode::CutpointBased,
        ),
    };
    BatchRequest {
        env: Environment::Rv {
            subset,
            ports,
            mode,
        },
        extras: Vec::new(),
    }
}

/// The order the reused memo sees the requests of [`request`] in.
const SEQUENCE: [usize; 7] = [0, 1, 2, 3, 4, 3, 1];

/// One request on `prepared`, through its own fresh cache.
fn answer(prepared: &PreparedNetlist<'_>, req: BatchRequest<'_>) -> Answer {
    let cache = ProofCache::new();
    let slot = run_pdat_batch(prepared, &[req], &config(), &Governor::unlimited(), &cache)
        .pop()
        .expect("one slot per request");
    slot.map(|report| {
        let res = report.result.expect("a fresh cache solves the request");
        (
            report.proved,
            report.summary,
            res.sim_survivors,
            res.degradations,
        )
    })
}

#[test]
fn memo_reuse_matches_fresh_runs() {
    let (nl, inputs, regs) = two_port_core();
    let subset = RvSubset::new(
        "no_add_sub_jalr_sw",
        RvSubset::rv32i()
            .instrs
            .iter()
            .copied()
            .filter(|i| !WATCHED[..4].contains(i)),
    );
    let req = |k| request(k, &subset, &inputs, &regs);
    let fresh = || PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");

    let expected: Vec<Answer> = (0..5).map(|k| answer(&fresh(), req(k))).collect();
    assert!(
        matches!(expected[2], Err(PdatError::UnboundConstraintNet { .. })),
        "request 2 is the malformed one: {:?}",
        expected[2]
    );
    assert_ne!(
        expected[0].as_ref().ok().map(|a| &a.0),
        expected[1].as_ref().ok().map(|a| &a.0),
        "the cut and uncut models answer differently"
    );
    assert_ne!(
        expected[1], expected[3],
        "the port order of the cut changes the answer"
    );

    let shared = fresh();
    // The order above, then the two cut orders back to back: the
    // malformed request reads the uncut model, so only the tail makes one
    // cut list follow the other in the memo slot.
    let walk = |seq: &mut dyn Iterator<Item = usize>, step: &Barrier| -> Vec<(usize, Answer)> {
        seq.map(|k| {
            step.wait();
            (k, answer(&shared, req(k)))
        })
        .collect()
    };
    let check = |walked: Vec<(usize, Answer)>, what: &str| {
        for (k, got) in walked {
            assert_eq!(got, expected[k], "{what}: request {k} on a reused memo");
        }
    };
    check(
        walk(&mut SEQUENCE.into_iter(), &Barrier::new(1)),
        "sequential",
    );

    // Two threads on one prepared netlist, walking the sequence in
    // opposite directions and starting each step together, so the memo
    // slot keeps changing under both.
    let step = Barrier::new(2);
    let (forward, backward) = std::thread::scope(|s| {
        let fwd = s.spawn(|| walk(&mut SEQUENCE.into_iter(), &step));
        let bwd = s.spawn(|| walk(&mut SEQUENCE.into_iter().rev(), &step));
        (fwd.join(), bwd.join())
    });
    check(forward.expect("forward thread"), "forward thread");
    check(backward.expect("backward thread"), "backward thread");
}
