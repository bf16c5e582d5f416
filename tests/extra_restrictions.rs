//! The paper's Fig. 3 versatility claims: environment restrictions beyond
//! ISA subsets — pinned inputs (disabled IRQ lines, strapped config pins)
//! and explicit code-at-address mappings (reset handlers, trap vectors) —
//! and the typed errors a malformed restriction gets instead of a panic.

use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::netlist::{CellKind, NetId, Netlist, Simulator};
use pdat_repro::{
    run_pdat, run_pdat_cached, run_pdat_prepared, Candidate, CandidateKind, ConstraintMode,
    Environment, ExtraRestriction, Governor, OwnedEnvironment, PdatConfig, PdatError, PdatResult,
    PdatService, PreparedNetlist, ProofCache, Reply, ServeConfig, ServeRequest,
};
use std::borrow::Cow;

fn fast_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 128,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xE17A,
        ..Default::default()
    }
}

/// [`run_pdat`] with extra restrictions: an uncached run through a fresh
/// proof cache.
fn run_with(
    nl: &Netlist,
    env: &Environment<'_>,
    extras: &[ExtraRestriction],
    config: &PdatConfig,
) -> Result<PdatResult, PdatError> {
    let report = run_pdat_cached(nl, env, extras, config, &ProofCache::new())?;
    Ok(*report.result.expect("a fresh cache solves every request"))
}

#[test]
fn pinned_input_enables_removal() {
    // A "mode pin" gates a datapath; pinning it removes the gated logic.
    let mut nl = Netlist::new("pinned");
    let mode = nl.add_input("mode");
    let d: Vec<_> = (0..8).map(|i| nl.add_input(format!("d[{i}]"))).collect();
    let mut accum = Vec::new();
    for (i, &bit) in d.iter().enumerate() {
        let gated = nl.add_cell(CellKind::And2, &[bit, mode], format!("g{i}"));
        let q = nl.add_dff(gated, false, format!("q{i}"));
        accum.push(q);
        nl.add_output(format!("u[{i}]"), q);
    }
    let cheap = nl.add_cell(CellKind::Xor2, &[d[0], d[1]], "cheap");
    nl.add_output("y", cheap);

    // Unrestricted: the gated pipeline stays.
    let base = run_pdat(&nl, &Environment::Unconstrained, &fast_config()).expect("pdat run");
    assert!(base.optimized.dff_count == 8);

    // With `mode` pinned low the whole unit is provably dead.
    let res = run_with(
        &nl,
        &Environment::Unconstrained,
        &[ExtraRestriction::PinnedInput {
            nets: vec![mode],
            value: 0,
        }],
        &fast_config(),
    )
    .expect("pdat run");
    assert_eq!(res.optimized.dff_count, 0, "pinned-mode unit removed");
    assert!(res.optimized.gate_count < base.optimized.gate_count);
}

#[test]
fn pinned_inputs_cannot_prove_a_false_reset_value() {
    // A latch that holds its reset value 1, next to eight inputs the
    // environment pins. Random stimulus meets the pin on 1 lane in 256,
    // so simulation restarts every cycle and checks no candidate. "q == 0"
    // and "q == 1" are each inductive and together contradictory, so only
    // the prover's base case can reject the false one.
    let mut nl = Netlist::new("held");
    let d: Vec<NetId> = (0..8).map(|i| nl.add_input(format!("d[{i}]"))).collect();
    let fb = nl.add_net("fb");
    let q = nl.add_dff(fb, true, "q");
    nl.assign_alias(fb, q);
    let y = nl.add_cell(CellKind::And2, &[q, d[0]], "y");
    nl.add_output("y", y);
    let pinned = 0b1010_0101u64;
    let res = run_with(
        &nl,
        &Environment::Unconstrained,
        &[ExtraRestriction::PinnedInput {
            nets: d.clone(),
            value: pinned,
        }],
        &PdatConfig::default(),
    )
    .expect("pdat run");
    assert_eq!(
        res.sim_stats.candidate_cycles, 0,
        "simulation checks nothing"
    );

    // The environment allows exactly one state: q = 1 and the pinned
    // inputs. Every proved invariant must hold on it.
    let mut sim = Simulator::new(&nl);
    let drive: Vec<(NetId, bool)> = (0..8).map(|i| (d[i], pinned >> i & 1 == 1)).collect();
    sim.set_inputs(&drive);
    for c in &res.proved_invariants {
        let holds = match c.kind {
            CandidateKind::ConstFalse => !sim.value(c.net),
            CandidateKind::ConstTrue => sim.value(c.net),
            CandidateKind::EqualNet(o) => sim.value(c.net) == sim.value(o),
        };
        assert!(holds, "proved a false invariant: {c:?}");
    }
    assert!(
        res.proved_invariants.contains(&Candidate {
            net: q,
            kind: CandidateKind::ConstTrue,
        }),
        "q == 1 is proved"
    );
}

#[test]
fn code_at_reset_address_is_respected() {
    // Pin the instruction at the reset address to a specific NOP-like word
    // on a tiny fetch model: addr register, instr input, decode of a "boot"
    // flag that only a non-NOP at the reset address could set.
    let mut nl = Netlist::new("rom");
    let instr: Vec<_> = (0..8)
        .map(|i| nl.add_input(format!("instr[{i}]")))
        .collect();
    // 2-bit pc counter.
    let pc0_fb = nl.add_net("pc0_fb");
    let pc1_fb = nl.add_net("pc1_fb");
    let pc0_n = nl.add_cell(CellKind::Inv, &[pc0_fb], "pc0_n");
    let carry = pc0_fb;
    let pc1_x = nl.add_cell(CellKind::Xor2, &[pc1_fb, carry], "pc1_x");
    let pc0 = nl.add_dff(pc0_n, false, "pc0");
    let pc1 = nl.add_dff(pc1_x, false, "pc1");
    nl.assign_alias(pc0_fb, pc0);
    nl.assign_alias(pc1_fb, pc1);
    // at_reset = pc == 0
    let npc0 = nl.add_cell(CellKind::Inv, &[pc0], "npc0");
    let npc1 = nl.add_cell(CellKind::Inv, &[pc1], "npc1");
    let at_reset = nl.add_cell(CellKind::And2, &[npc0, npc1], "at_reset");
    // boot_flag latches if instr != 0x13 while at the reset address.
    let want = 0x13u32;
    let mut diff_terms = Vec::new();
    for (i, &b) in instr.iter().enumerate() {
        let t = if want >> i & 1 == 1 {
            nl.add_cell(CellKind::Inv, &[b], format!("dx{i}"))
        } else {
            b
        };
        diff_terms.push(t);
    }
    // any difference bit set?
    let mut any = diff_terms[0];
    for (i, &t) in diff_terms.iter().enumerate().skip(1) {
        any = nl.add_cell(CellKind::Or2, &[any, t], format!("or{i}"));
    }
    let bad = nl.add_cell(CellKind::And2, &[any, at_reset], "bad");
    let boot_fb = nl.add_net("boot_fb");
    let boot_next = nl.add_cell(CellKind::Or2, &[boot_fb, bad], "boot_next");
    let boot = nl.add_dff(boot_next, false, "boot");
    nl.assign_alias(boot_fb, boot);
    nl.add_output("boot", boot);
    nl.add_output("pc0", pc0);
    nl.add_output("pc1", pc1);
    nl.validate().unwrap();

    // Without the mapping, `boot` can be set: it survives.
    let base = run_pdat(&nl, &Environment::Unconstrained, &fast_config()).expect("pdat run");
    assert!(base.optimized.dff_count >= 3, "boot latch must survive");

    // With the reset-address word pinned, `boot` is provably stuck at 0.
    let res = run_with(
        &nl,
        &Environment::Unconstrained,
        &[ExtraRestriction::CodeAt {
            addr: vec![pc0, pc1],
            data: instr.clone(),
            address: 0,
            word: want,
        }],
        &fast_config(),
    )
    .expect("pdat run");
    assert!(
        res.optimized.dff_count < base.optimized.dff_count,
        "boot latch removed under the code-at-reset mapping: {} vs {}",
        res.optimized.dff_count,
        base.optimized.dff_count
    );
}

#[test]
fn combined_isa_and_pin_restrictions_on_ibex() {
    // ISA subset + a pinned data-bus nibble: restrictions compose.
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let pins = core.data_rdata_in[28..32].to_vec();
    let res = run_with(
        &core.netlist,
        &Environment::Rv {
            subset: &subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &[ExtraRestriction::PinnedInput {
            nets: pins,
            value: 0,
        }],
        &fast_config(),
    )
    .expect("pdat run");
    let plain = run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset: &subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &fast_config(),
    )
    .expect("pdat run");
    assert!(
        res.optimized.gate_count <= plain.optimized.gate_count,
        "extra restriction can only help: {} vs {}",
        res.optimized.gate_count,
        plain.optimized.gate_count
    );
}

/// A small design with one input and one flop, for the malformed-input
/// tests.
fn tiny_core() -> (Netlist, NetId) {
    let mut nl = Netlist::new("tiny");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let ab = nl.add_cell(CellKind::And2, &[a, b], "ab");
    let q = nl.add_dff(ab, false, "q");
    let o = nl.add_cell(CellKind::Or2, &[q, ab], "o");
    nl.add_output("out", o);
    (nl, a)
}

/// A net id past the end of `nl`'s net table.
fn unknown_net(nl: &Netlist) -> NetId {
    NetId(nl.num_nets() as u32 + 7)
}

#[test]
fn extra_restriction_on_unknown_net_is_a_typed_error() {
    let (nl, _) = tiny_core();
    let bad = unknown_net(&nl);
    let err = run_with(
        &nl,
        &Environment::Unconstrained,
        &[ExtraRestriction::PinnedInput {
            nets: vec![bad],
            value: 1,
        }],
        &fast_config(),
    )
    .expect_err("an unknown pinned net must be rejected");
    assert_eq!(err, PdatError::UnknownNet { net: bad });
}

#[test]
fn code_at_with_33_address_nets_is_a_typed_error() {
    let (nl, a) = tiny_core();
    let err = run_with(
        &nl,
        &Environment::Unconstrained,
        &[ExtraRestriction::CodeAt {
            addr: vec![a; 33],
            data: vec![a],
            address: 0,
            word: 0,
        }],
        &fast_config(),
    )
    .expect_err("a 33-bit address must be rejected");
    assert_eq!(err, PdatError::RestrictionTooWide { nets: 33, bits: 32 });
}

#[test]
fn out_of_range_port_net_is_a_typed_error() {
    let (nl, a) = tiny_core();
    let bad = unknown_net(&nl);
    let subset = RvSubset::rv32i();
    let mut port = vec![a; 32];
    port[5] = bad;
    let err = run_pdat(
        &nl,
        &Environment::Rv {
            subset: &subset,
            ports: vec![port],
            mode: ConstraintMode::PortBased,
        },
        &fast_config(),
    )
    .expect_err("an out-of-range port net must be rejected");
    assert_eq!(err, PdatError::UnknownNet { net: bad });
}

#[test]
fn batch_isolates_a_request_with_an_unknown_extra_net() {
    let (nl, _) = tiny_core();
    let bad = unknown_net(&nl);
    // Requests in sequence on one prepared netlist and one cache: the
    // malformed one returns its error, the next one still answers.
    let cache = ProofCache::new();
    let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
    let run = |extras: &[ExtraRestriction]| {
        run_pdat_prepared(
            &prepared,
            &Environment::Unconstrained,
            extras,
            &fast_config(),
            &Governor::unlimited(),
            &cache,
        )
    };
    let first = run(&[]).expect("well-formed request");
    let bad_extra = [ExtraRestriction::PinnedInput {
        nets: vec![bad],
        value: 0,
    }];
    assert_eq!(
        run(&bad_extra).err(),
        Some(PdatError::UnknownNet { net: bad }),
        "the malformed request returns its own error"
    );
    let next = run(&[]).expect("the next request still answers");
    assert_eq!(first.proved, next.proved);
}

#[test]
fn service_rejects_an_unknown_extra_net_without_a_worker_panic() {
    let (nl, _) = tiny_core();
    let bad = unknown_net(&nl);
    let service = PdatService::start(
        nl,
        ServeConfig {
            workers: 1,
            pdat: fast_config(),
            ..Default::default()
        },
    )
    .expect("valid netlist");
    let ticket = service
        .submit(ServeRequest {
            env: OwnedEnvironment::Unconstrained,
            extras: vec![ExtraRestriction::PinnedInput {
                nets: vec![bad],
                value: 0,
            }],
        })
        .expect("admitted");
    match ticket.wait() {
        Reply::Rejected(e) => assert_eq!(e, PdatError::UnknownNet { net: bad }),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.worker_panics, 0,
        "a malformed request must not crash a worker"
    );
    assert_eq!(stats.retries, 0, "a malformed request is not retried");
}
