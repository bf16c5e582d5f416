//! Logic resynthesis — the PDAT pipeline's third stage.
//!
//! The paper delegates cleanup to a commercial synthesis flow (Synopsys DC
//! with `-ungroup_all`); this crate implements the optimizations that flow
//! performs on a rewired netlist:
//!
//! * constant propagation through cells (including the rewiring `assign`s
//!   PDAT added);
//! * alias forwarding and local boolean simplification (controlling
//!   inputs, redundant operands, mux collapsing, double-inversion);
//! * constant-register sweeping (a DFF whose D input is a constant equal
//!   to its reset value is a constant);
//! * structural hashing (identical cells merge);
//! * dead-cone removal (anything not reachable from a primary output).
//!
//! Passes iterate to a fixpoint. The optimizer is purely combinational +
//! the one safe register rule: all *sequential* reachability reasoning is
//! PDAT's job, which is exactly the division of labor the paper describes.
//!
//! # Example
//!
//! ```
//! use pdat_netlist::{Netlist, CellKind};
//! use pdat_synth::resynthesize;
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let y = nl.add_cell(CellKind::And2, &[a, a], "y"); // y == a
//! nl.add_output("y", y);
//! let (opt, report) = resynthesize(&nl);
//! assert_eq!(opt.gate_count(), 0, "a AND a collapses to a wire");
//! assert!(report.passes >= 1);
//! ```

use pdat_governor::{Cause, DegradationEvent, Governor, Stage};
use pdat_netlist::{CellKind, Driver, NetId, Netlist};
use std::collections::HashMap;

/// Summary of a [`resynthesize`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthReport {
    /// Optimization passes executed (last one is the fixpoint check).
    pub passes: usize,
    /// Cells before.
    pub cells_before: usize,
    /// Cells after.
    pub cells_after: usize,
    /// True when a deadline or cancellation cut the fixpoint loop short.
    /// The returned netlist is still valid and behaviour-preserving — each
    /// pass is sound in isolation — it is merely less optimized.
    pub stopped_early: bool,
}

/// A net's resolved value during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sig {
    Const(bool),
    /// Canonical net in the *new* netlist.
    Net(NetId),
}

/// Optimize a (possibly rewired) netlist. Returns the transformed netlist
/// and a report. Port names and order are preserved.
pub fn resynthesize(nl: &Netlist) -> (Netlist, SynthReport) {
    let (out, report, _events) = resynthesize_governed(nl, &Governor::unlimited());
    (out, report)
}

/// Governed variant of [`resynthesize`]: the fixpoint loop polls the
/// governor between passes and stops early on deadline or cancellation,
/// returning the best netlist reached so far.
///
/// Each optimization pass is individually behaviour-preserving, so an
/// early stop degrades optimization quality, never correctness — the
/// result is a valid netlist equivalent to the input, just with more
/// cells than the fixpoint would leave.
pub fn resynthesize_governed(
    nl: &Netlist,
    governor: &Governor,
) -> (Netlist, SynthReport, Vec<DegradationEvent>) {
    let mut cur = nl.clone();
    let mut passes = 0;
    let cells_before = nl.num_cells();
    let mut stopped_early = false;
    let mut events = Vec::new();
    loop {
        if governor.is_cancelled() || governor.deadline_exceeded() {
            let cause = if governor.is_cancelled() {
                Cause::Cancelled
            } else {
                Cause::Deadline
            };
            stopped_early = true;
            events.push(DegradationEvent {
                stage: Stage::Resynthesize,
                cause,
                dropped: 0,
                detail: format!("fixpoint loop stopped after {passes} passes"),
            });
            break;
        }
        passes += 1;
        let (next, changed) = one_pass(&cur);
        cur = next;
        if !changed || passes > 50 {
            break;
        }
    }
    let report = SynthReport {
        passes,
        cells_before,
        cells_after: cur.num_cells(),
        stopped_early,
    };
    (cur, report, events)
}

fn one_pass(nl: &Netlist) -> (Netlist, bool) {
    let mut out = Netlist::new(nl.name().to_string());
    let mut sig: HashMap<NetId, Sig> = HashMap::new();

    // Ports first. An input net whose driver was overridden by rewiring
    // (tied to a constant or aliased) keeps its port but resolves through
    // that driver, as the simulator and the AIG read it.
    for &i in nl.inputs() {
        let id = out.add_input(&nl.net(i).name);
        if nl.driver(i) == Driver::Input {
            sig.insert(i, Sig::Net(id));
        }
    }

    // Constant-register sweep: DFFs whose D resolves to a constant equal to
    // their init value are constants this pass.
    let mut const_dffs: HashMap<pdat_netlist::CellId, bool> = HashMap::new();
    for (cid, c) in nl.dffs() {
        if nl.driver(c.output) != Driver::Cell(cid) {
            continue;
        }
        if let Some(v) = resolve_const(nl, c.inputs[0]) {
            if v == c.init {
                const_dffs.insert(cid, v);
            }
        }
    }

    // DFF outputs are sources: placeholder nets (or constants).
    let mut dff_fixups: Vec<(pdat_netlist::CellId, NetId)> = Vec::new();
    for (cid, c) in nl.dffs() {
        if nl.driver(c.output) != Driver::Cell(cid) {
            continue; // rewired away: resolved via driver below
        }
        if let Some(&v) = const_dffs.get(&cid) {
            sig.insert(c.output, Sig::Const(v));
        } else {
            let ph = out.add_net(&nl.net(c.output).name);
            sig.insert(c.output, Sig::Net(ph));
            dff_fixups.push((cid, ph));
        }
    }

    // Combinational cells in evaluation order, simplified and strashed.
    let order = nl.comb_order().unwrap_or_else(|e| panic!("{e}"));
    let mut strash: HashMap<(CellKind, Vec<Sig>), Sig> = HashMap::new();
    let mut changed = false;
    for cid in order {
        let c = nl.cell(cid);
        if nl.driver(c.output) != Driver::Cell(cid) {
            continue; // rewired: handled through driver resolution
        }
        let ins: Vec<Sig> = c.inputs.iter().map(|&n| resolve(nl, n, &sig)).collect();
        let simplified = simplify_cell(c.kind, &ins);
        let result = match simplified {
            Simplified::Const(v) => {
                // Folding a tie cell back to a constant is the steady
                // state of materialized constants, not progress.
                if !c.kind.is_tie() {
                    changed = true;
                }
                Sig::Const(v)
            }
            Simplified::Wire(s) => {
                changed = true;
                s
            }
            Simplified::Cell(kind, new_ins) => {
                if kind != c.kind || new_ins != ins {
                    changed = true;
                }
                let key = strash_key(kind, &new_ins);
                if let Some(&existing) = strash.get(&key) {
                    changed = true;
                    existing
                } else {
                    let nets: Vec<NetId> =
                        new_ins.iter().map(|s| materialize(&mut out, *s)).collect();
                    let o = out.add_cell(kind, &nets, &nl.net(c.output).name);
                    let s = Sig::Net(o);
                    strash.insert(key, s);
                    s
                }
            }
        };
        sig.insert(c.output, result);
    }

    // Emit surviving DFFs with resolved D inputs.
    for (cid, ph) in dff_fixups {
        let c = nl.cell(cid);
        let d = resolve(nl, c.inputs[0], &sig);
        let dn = materialize(&mut out, d);
        let q = out.add_dff(dn, c.init, format!("{}_q", nl.net(c.output).name));
        out.assign_alias(ph, q);
    }

    // Outputs.
    for (name, net) in nl.outputs() {
        let s = resolve(nl, *net, &sig);
        let n = materialize(&mut out, s);
        out.add_output(name.clone(), n);
    }

    // Dead-cone removal on the freshly built netlist.
    let (swept, removed) = sweep_dead(&out);
    (swept, changed || removed > 0)
}

/// The constant a net carries through its alias chain, if any (pre-pass
/// view).
fn resolve_const(nl: &Netlist, net: NetId) -> Option<bool> {
    match nl.driver(nl.alias_root(net).ok()?) {
        Driver::Const(v) => Some(v),
        Driver::Cell(cid) => match nl.cell(cid).kind {
            CellKind::Tie0 => Some(false),
            CellKind::Tie1 => Some(true),
            _ => None,
        },
        _ => None,
    }
}

/// What `net` reads this pass: the signal of its alias root.
fn resolve(nl: &Netlist, net: NetId, sig: &HashMap<NetId, Sig>) -> Sig {
    let root = nl.alias_root(net).unwrap_or_else(|e| panic!("{e}"));
    if let Some(&s) = sig.get(&root) {
        return s;
    }
    match nl.driver(root) {
        Driver::Const(v) => Sig::Const(v),
        Driver::None => Sig::Const(false),
        _ => panic!(
            "net `{}` used before being defined (not in topo order?)",
            nl.net(root).name
        ),
    }
}

/// Get-or-create a net in the output netlist carrying `s`.
fn materialize(out: &mut Netlist, s: Sig) -> NetId {
    match s {
        Sig::Net(n) => n,
        Sig::Const(v) => {
            // One shared tie cell per polarity.
            let name = if v { "tie1_shared" } else { "tie0_shared" };
            if let Some(n) = out.find_net(name) {
                return n;
            }
            let kind = if v { CellKind::Tie1 } else { CellKind::Tie0 };
            out.add_cell(kind, &[], name)
        }
    }
}

enum Simplified {
    Const(bool),
    Wire(Sig),
    Cell(CellKind, Vec<Sig>),
}

fn strash_key(kind: CellKind, ins: &[Sig]) -> (CellKind, Vec<Sig>) {
    let mut v = ins.to_vec();
    // Commutative kinds get sorted operands.
    use CellKind::*;
    if matches!(
        kind,
        And2 | And3
            | And4
            | Nand2
            | Nand3
            | Nand4
            | Or2
            | Or3
            | Or4
            | Nor2
            | Nor3
            | Nor4
            | Xor2
            | Xnor2
            | Maj3
    ) {
        v.sort_by_key(|s| match s {
            Sig::Const(b) => (0usize, *b as u32),
            Sig::Net(n) => (1usize, n.0),
        });
    }
    (kind, v)
}

/// Local boolean simplification of one cell against resolved inputs.
fn simplify_cell(kind: CellKind, ins: &[Sig]) -> Simplified {
    use CellKind::*;
    let all_const = ins.iter().all(|s| matches!(s, Sig::Const(_)));
    if all_const && !matches!(kind, Dff) {
        let bits: Vec<bool> = ins
            .iter()
            .map(|s| match s {
                Sig::Const(b) => *b,
                _ => unreachable!(),
            })
            .collect();
        return Simplified::Const(kind.eval(&bits));
    }
    match kind {
        Buf => Simplified::Wire(ins[0]),
        Inv => match ins[0] {
            Sig::Const(v) => Simplified::Const(!v),
            s => Simplified::Cell(Inv, vec![s]),
        },
        And2 | And3 | And4 | Nand2 | Nand3 | Nand4 => {
            let invert = matches!(kind, Nand2 | Nand3 | Nand4);
            let mut live: Vec<Sig> = Vec::new();
            for &s in ins {
                match s {
                    Sig::Const(false) => {
                        return Simplified::Const(invert);
                    }
                    Sig::Const(true) => {}
                    s => {
                        if !live.contains(&s) {
                            live.push(s);
                        }
                    }
                }
            }
            match (live.len(), invert) {
                (0, false) => Simplified::Const(true),
                (0, true) => Simplified::Const(false),
                (1, false) => Simplified::Wire(live[0]),
                (1, true) => Simplified::Cell(Inv, live),
                (2, false) => Simplified::Cell(And2, live),
                (2, true) => Simplified::Cell(Nand2, live),
                (3, false) => Simplified::Cell(And3, live),
                (3, true) => Simplified::Cell(Nand3, live),
                (_, false) => Simplified::Cell(And4, live),
                (_, true) => Simplified::Cell(Nand4, live),
            }
        }
        Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 => {
            let invert = matches!(kind, Nor2 | Nor3 | Nor4);
            let mut live: Vec<Sig> = Vec::new();
            for &s in ins {
                match s {
                    Sig::Const(true) => {
                        return Simplified::Const(!invert);
                    }
                    Sig::Const(false) => {}
                    s => {
                        if !live.contains(&s) {
                            live.push(s);
                        }
                    }
                }
            }
            match (live.len(), invert) {
                (0, false) => Simplified::Const(false),
                (0, true) => Simplified::Const(true),
                (1, false) => Simplified::Wire(live[0]),
                (1, true) => Simplified::Cell(Inv, live),
                (2, false) => Simplified::Cell(Or2, live),
                (2, true) => Simplified::Cell(Nor2, live),
                (3, false) => Simplified::Cell(Or3, live),
                (3, true) => Simplified::Cell(Nor3, live),
                (_, false) => Simplified::Cell(Or4, live),
                (_, true) => Simplified::Cell(Nor4, live),
            }
        }
        Xor2 | Xnor2 => {
            let invert = matches!(kind, Xnor2);
            match (ins[0], ins[1]) {
                (a, b) if a == b => Simplified::Const(invert),
                (Sig::Const(c), s) | (s, Sig::Const(c)) => {
                    if c ^ invert {
                        Simplified::Cell(Inv, vec![s])
                    } else {
                        Simplified::Wire(s)
                    }
                }
                (a, b) => Simplified::Cell(if invert { Xnor2 } else { Xor2 }, vec![a, b]),
            }
        }
        Mux2 => {
            // ins = [e, t, s]
            let (e, t, s) = (ins[0], ins[1], ins[2]);
            match s {
                Sig::Const(true) => Simplified::Wire(t),
                Sig::Const(false) => Simplified::Wire(e),
                _ => {
                    if t == e {
                        Simplified::Wire(t)
                    } else {
                        match (t, e) {
                            // MUX(s, 1, 0) = s ; MUX(s, 0, 1) = !s
                            (Sig::Const(true), Sig::Const(false)) => Simplified::Wire(s),
                            (Sig::Const(false), Sig::Const(true)) => Simplified::Cell(Inv, vec![s]),
                            // MUX(s, t, 0) = s & t ; MUX(s, t, 1) = !s | t
                            (t, Sig::Const(false)) => Simplified::Cell(And2, vec![s, t]),
                            (Sig::Const(false), e) => {
                                // !s & e via AOI-like structure: keep as
                                // mux replacement AND with inverter folded
                                // into a NOR? Emit Nor2(s, !e)… simplest:
                                // keep mux (rare case).
                                Simplified::Cell(Mux2, vec![e, Sig::Const(false), s])
                            }
                            (t, e) => Simplified::Cell(Mux2, vec![e, t, s]),
                        }
                    }
                }
            }
        }
        Aoi21 | Oai21 | Maj3 => {
            // Partial-constant folding via case analysis.
            let consts: Vec<Option<bool>> = ins
                .iter()
                .map(|s| match s {
                    Sig::Const(b) => Some(*b),
                    _ => None,
                })
                .collect();
            match kind {
                Aoi21 => match (consts[0], consts[1], consts[2]) {
                    (_, _, Some(true)) => Simplified::Const(false),
                    (Some(false), _, Some(false)) | (_, Some(false), Some(false)) => {
                        Simplified::Const(true)
                    }
                    (Some(true), _, None) if consts[1] == Some(true) => Simplified::Const(false),
                    (_, _, Some(false)) => {
                        // !(a & b) = NAND2
                        Simplified::Cell(Nand2, vec![ins[0], ins[1]])
                    }
                    (Some(false), _, None) | (_, Some(false), None) => {
                        Simplified::Cell(Inv, vec![ins[2]])
                    }
                    (Some(true), None, None) => Simplified::Cell(Nor2, vec![ins[1], ins[2]]),
                    (None, Some(true), None) => Simplified::Cell(Nor2, vec![ins[0], ins[2]]),
                    _ => Simplified::Cell(Aoi21, ins.to_vec()),
                },
                Oai21 => match (consts[0], consts[1], consts[2]) {
                    (_, _, Some(false)) => Simplified::Const(true),
                    (Some(true), _, Some(true)) | (_, Some(true), Some(true)) => {
                        Simplified::Const(false)
                    }
                    (_, _, Some(true)) => Simplified::Cell(Nor2, vec![ins[0], ins[1]]),
                    (Some(true), _, None) | (_, Some(true), None) => {
                        Simplified::Cell(Inv, vec![ins[2]])
                    }
                    (Some(false), None, None) => Simplified::Cell(Nand2, vec![ins[1], ins[2]]),
                    (None, Some(false), None) => Simplified::Cell(Nand2, vec![ins[0], ins[2]]),
                    _ => Simplified::Cell(Oai21, ins.to_vec()),
                },
                _ => {
                    // Maj3 with one constant: Maj(a,b,1) = a|b; Maj(a,b,0) = a&b.
                    if let Some(pos) = consts.iter().position(|c| c.is_some()) {
                        let c = consts[pos].unwrap();
                        let others: Vec<Sig> = ins
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != pos)
                            .map(|(_, s)| *s)
                            .collect();
                        if c {
                            Simplified::Cell(Or2, others)
                        } else {
                            Simplified::Cell(And2, others)
                        }
                    } else if ins[0] == ins[1] || ins[0] == ins[2] {
                        Simplified::Wire(ins[0])
                    } else if ins[1] == ins[2] {
                        Simplified::Wire(ins[1])
                    } else {
                        Simplified::Cell(Maj3, ins.to_vec())
                    }
                }
            }
        }
        Tie0 => Simplified::Const(false),
        Tie1 => Simplified::Const(true),
        Dff => unreachable!("DFFs handled separately"),
    }
}

/// Remove cells not reachable from any primary output. Returns the swept
/// netlist and the number of cells removed.
fn sweep_dead(nl: &Netlist) -> (Netlist, usize) {
    // Liveness over nets: outputs are roots; a live cell makes its inputs
    // live (DFFs propagate liveness through their D input).
    let mut live_net = vec![false; nl.num_nets()];
    let mut stack: Vec<NetId> = Vec::new();
    for (_, n) in nl.outputs() {
        if !live_net[n.index()] {
            live_net[n.index()] = true;
            stack.push(*n);
        }
    }
    while let Some(n) = stack.pop() {
        match nl.driver(n) {
            Driver::Alias(s) if !live_net[s.index()] => {
                live_net[s.index()] = true;
                stack.push(s);
            }
            Driver::Cell(cid) => {
                for &i in &nl.cell(cid).inputs {
                    if !live_net[i.index()] {
                        live_net[i.index()] = true;
                        stack.push(i);
                    }
                }
            }
            _ => {}
        }
    }
    // Rebuild without dead cells.
    let mut out = Netlist::new(nl.name().to_string());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &i in nl.inputs() {
        let id = out.add_input(&nl.net(i).name);
        map.insert(i, id);
    }
    let mut removed = 0;
    // Placeholders for live nets not yet mapped (cells emitted in two
    // phases to keep DFF source semantics).
    for (net, info) in nl.nets() {
        if live_net[net.index()] && !map.contains_key(&net) {
            let id = out.add_net(&info.name);
            map.insert(net, id);
        }
    }
    for (cid, c) in nl.cells() {
        let is_driver = nl.driver(c.output) == Driver::Cell(cid);
        if !is_driver || !live_net[c.output.index()] {
            removed += 1;
            continue;
        }
        let ins: Vec<NetId> = c.inputs.iter().map(|&n| map[&n]).collect();
        let o = if c.kind.is_sequential() {
            out.add_dff(ins[0], c.init, "q")
        } else {
            out.add_cell(c.kind, &ins, "w")
        };
        out.assign_alias(map[&c.output], o);
    }
    for (net, _) in nl.nets() {
        if !live_net[net.index()] {
            continue;
        }
        match nl.driver(net) {
            Driver::Const(v) => out.assign_const(map[&net], v),
            Driver::Alias(s) if live_net[s.index()] => {
                let a = map[&net];
                let b = map[&s];
                if a != b {
                    out.assign_alias(a, b);
                }
            }
            _ => {}
        }
    }
    for (name, net) in nl.outputs() {
        out.add_output(name.clone(), map[net]);
    }
    (out, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_aig::{netlist_to_aig, AigSimulator};
    use pdat_netlist::{parse_netlist, Simulator};

    /// Random-stimulus equivalence check between two netlists with the same
    /// port lists.
    fn assert_equivalent(a: &Netlist, b: &Netlist, cycles: usize, seed: u64) {
        let mut s1 = Simulator::new(a);
        let mut s2 = Simulator::new(b);
        let in1 = a.inputs().to_vec();
        let in2 = b.inputs().to_vec();
        assert_eq!(in1.len(), in2.len(), "input count");
        let mut seedv = seed.max(1);
        for _ in 0..cycles {
            seedv ^= seedv << 13;
            seedv ^= seedv >> 7;
            seedv ^= seedv << 17;
            let a1: Vec<_> = in1
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, seedv >> (i % 64) & 1 == 1))
                .collect();
            let a2: Vec<_> = in2
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, seedv >> (i % 64) & 1 == 1))
                .collect();
            s1.set_inputs(&a1);
            s2.set_inputs(&a2);
            for ((p1, n1), (p2, n2)) in a.outputs().iter().zip(b.outputs()) {
                assert_eq!(p1, p2);
                assert_eq!(s1.value(*n1), s2.value(*n2), "output {p1}");
            }
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn constant_propagation_through_rewiring() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b2 = nl.add_input("b");
        let x = nl.add_cell(CellKind::And2, &[a, b2], "x");
        let y = nl.add_cell(CellKind::Or2, &[x, a], "y");
        nl.add_output("y", y);
        // PDAT proved x == 0 and rewired it.
        nl.assign_const(x, false);
        let (opt, _) = resynthesize(&nl);
        // y = 0 | a = a: no gates remain.
        assert_eq!(opt.gate_count(), 0);
        opt.validate().unwrap();
    }

    #[test]
    fn alias_forwarding_removes_gate() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b2 = nl.add_input("b");
        let x = nl.add_cell(CellKind::And2, &[a, b2], "x");
        let y = nl.add_cell(CellKind::Xor2, &[x, b2], "y");
        nl.add_output("y", y);
        // PDAT proved x == a (i.e. a -> b held).
        nl.assign_alias(x, a);
        let (opt, _) = resynthesize(&nl);
        assert_eq!(opt.gate_count(), 1, "only the XOR remains");
        assert_equivalent(&nl, &opt, 8, 0x5EED);
    }

    /// An input port whose driver a rewiring overrode (an alias or a
    /// constant) reads through that driver, as the simulator and the AIG
    /// read it: resynthesis keeps the port but must not treat it as free.
    #[test]
    fn overridden_input_port_reads_through_its_driver() {
        for rhs in ["n:b", "1"] {
            let text = format!(
                "design t\ninput a\ninput b\nnet y\nassign a = {rhs}\n\
                 gate XOR2 g0 (a, b) -> y\noutput y y\n"
            );
            let nl = parse_netlist(&text).unwrap();
            let (b, y) = (nl.inputs()[1], nl.outputs()[0].1);
            let (opt, _) = resynthesize(&nl);
            let (opt_a, opt_b, opt_y) = (opt.inputs()[0], opt.inputs()[1], opt.outputs()[0].1);
            let na = netlist_to_aig(&nl, &[]);
            assert_eq!(na.aig.inputs().len(), 1, "only `b` is free");
            let mut aig_sim = AigSimulator::new(&na.aig);
            aig_sim.eval(&[0b10]); // lane 0: b = 0; lane 1: b = 1
            let mut s1 = Simulator::new(&nl);
            let mut s2 = Simulator::new(&opt);
            for (lane, bv) in [false, true].into_iter().enumerate() {
                s1.set_input(b, bv);
                let want = s1.value(y);
                assert_eq!(want, rhs == "1" && !bv, "`assign a = {rhs}`, b = {bv}");
                let aig_y = aig_sim.lit_word(na.net_lit[&y]) >> lane & 1 == 1;
                assert_eq!(aig_y, want, "AIG, `assign a = {rhs}`, b = {bv}");
                // The kept port is dead: nothing driven on it reaches `y`.
                for av in [false, true] {
                    s2.set_inputs(&[(opt_a, av), (opt_b, bv)]);
                    assert_eq!(
                        s2.value(opt_y),
                        want,
                        "`assign a = {rhs}`, a = {av}, b = {bv}"
                    );
                }
            }
        }
    }

    #[test]
    fn strash_merges_duplicates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b2 = nl.add_input("b");
        let x1 = nl.add_cell(CellKind::And2, &[a, b2], "x1");
        let x2 = nl.add_cell(CellKind::And2, &[b2, a], "x2");
        let y = nl.add_cell(CellKind::Xor2, &[x1, x2], "y");
        nl.add_output("y", y);
        let (opt, _) = resynthesize(&nl);
        // x1 == x2 structurally => y = x ^ x = 0 => everything folds.
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn dead_cone_removed() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _dead = nl.add_cell(CellKind::Inv, &[a], "dead");
        let live = nl.add_cell(CellKind::Buf, &[a], "live");
        nl.add_output("y", live);
        let (opt, _) = resynthesize(&nl);
        assert_eq!(opt.gate_count(), 0, "buf collapses, inverter is dead");
    }

    #[test]
    fn constant_register_sweep() {
        let mut nl = Netlist::new("t");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        let a = nl.add_input("a");
        // q is stuck at 0 *only by sequential reasoning*: D = Q, init = 0.
        // The safe synthesis rule requires a constant D; D here is Q, not a
        // constant, so the register must survive without PDAT.
        let y = nl.add_cell(CellKind::Or2, &[a, q], "y");
        nl.add_output("y", y);
        let (opt, _) = resynthesize(&nl);
        assert!(
            opt.dffs().count() == 1,
            "sequential invariant is PDAT's job"
        );

        // Now apply the PDAT rewiring and resynthesize: everything folds.
        nl.assign_const(q, false);
        let (opt2, _) = resynthesize(&nl);
        assert_eq!(opt2.gate_count(), 0);
        assert_eq!(opt2.dffs().count(), 0);
    }

    #[test]
    fn dff_with_constant_d_matching_init_is_swept() {
        let mut nl = Netlist::new("t");
        let zero = nl.add_cell(CellKind::Tie0, &[], "z");
        let q = nl.add_dff(zero, false, "q");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Or2, &[a, q], "y");
        nl.add_output("y", y);
        let (opt, _) = resynthesize(&nl);
        assert_eq!(opt.dffs().count(), 0, "constant register swept");
        assert_eq!(opt.gate_count(), 0, "y = a");
    }

    #[test]
    fn preserves_behaviour_on_mixed_design() {
        let b = pdat_rtl_test_design();
        let (opt, report) = resynthesize(&b);
        assert!(report.cells_after <= report.cells_before);
        opt.validate().unwrap();
        assert_equivalent(&b, &opt, 64, 0xDECAF);
        // Idempotence: resynthesizing again changes nothing structural.
        let (opt2, _) = resynthesize(&opt);
        assert_eq!(opt2.num_cells(), opt.num_cells());
        b.validate().unwrap();
    }

    fn pdat_rtl_test_design() -> Netlist {
        // Hand-built mixed design with redundancy.
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a");
        let b2 = nl.add_input("b");
        let c = nl.add_input("c");
        let t0 = nl.add_cell(CellKind::Tie0, &[], "t0");
        let x = nl.add_cell(CellKind::And2, &[a, b2], "x");
        let x2 = nl.add_cell(CellKind::And2, &[a, b2], "x2"); // duplicate
        let o = nl.add_cell(CellKind::Or3, &[x, x2, t0], "o");
        let m = nl.add_cell(CellKind::Mux2, &[o, c, t0], "m"); // sel const 0 -> o
        let q = nl.add_dff(m, false, "q");
        let y = nl.add_cell(CellKind::Xor2, &[q, c], "y");
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn cancelled_governor_stops_before_first_pass() {
        let nl = pdat_rtl_test_design();
        let gov = Governor::unlimited();
        gov.cancel();
        let (opt, report, events) = resynthesize_governed(&nl, &gov);
        assert!(report.stopped_early);
        assert_eq!(report.passes, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cause, Cause::Cancelled);
        assert_eq!(events[0].stage, Stage::Resynthesize);
        // The untouched netlist is still the valid input clone.
        opt.validate().unwrap();
        assert_eq!(opt.num_cells(), nl.num_cells());
    }

    #[test]
    fn unlimited_governor_reaches_fixpoint() {
        let nl = pdat_rtl_test_design();
        let (a, ra) = resynthesize(&nl);
        let (b, rb, events) = resynthesize_governed(&nl, &Governor::unlimited());
        assert!(!rb.stopped_early);
        assert!(events.is_empty());
        assert_eq!(ra, rb);
        assert_eq!(a.num_cells(), b.num_cells());
    }

    #[test]
    fn proptest_style_random_equivalence() {
        // Randomized structural designs, optimized and compared.
        let mut seed = 0xABCDu64;
        for round in 0..12 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
            let nl = random_netlist(seed, 24);
            let (opt, _) = resynthesize(&nl);
            opt.validate().unwrap();
            assert_equivalent(&nl, &opt, 32, seed | 1);
        }
    }

    fn random_netlist(seed: u64, cells: usize) -> Netlist {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut nl = Netlist::new("rand");
        let mut nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        for k in 0..cells {
            let pick = |next: &mut dyn FnMut() -> u64, nets: &[NetId]| {
                nets[(next)() as usize % nets.len()]
            };
            let kind = match next() % 8 {
                0 => CellKind::And2,
                1 => CellKind::Or2,
                2 => CellKind::Xor2,
                3 => CellKind::Inv,
                4 => CellKind::Mux2,
                5 => CellKind::Nand2,
                6 => CellKind::Maj3,
                _ => CellKind::Dff,
            };
            let o = match kind {
                CellKind::Inv => {
                    let a = pick(&mut next, &nets);
                    nl.add_cell(kind, &[a], format!("n{k}"))
                }
                CellKind::Mux2 | CellKind::Maj3 => {
                    let a = pick(&mut next, &nets);
                    let b = pick(&mut next, &nets);
                    let c = pick(&mut next, &nets);
                    nl.add_cell(kind, &[a, b, c], format!("n{k}"))
                }
                CellKind::Dff => {
                    let a = pick(&mut next, &nets);
                    nl.add_dff(a, next() & 1 == 1, format!("n{k}"))
                }
                _ => {
                    let a = pick(&mut next, &nets);
                    let b = pick(&mut next, &nets);
                    nl.add_cell(kind, &[a, b], format!("n{k}"))
                }
            };
            nets.push(o);
        }
        // Expose the last few nets as outputs.
        for (i, &n) in nets.iter().rev().take(3).enumerate() {
            nl.add_output(format!("o{i}"), n);
        }
        nl
    }
}
