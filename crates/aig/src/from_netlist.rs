//! Netlist → AIG conversion.

use crate::aig::{Aig, AigLit};
use pdat_netlist::{CellId, CellKind, Driver, NetId, Netlist};
use std::collections::HashMap;

/// The result of converting a [`Netlist`] into an [`Aig`]: the graph plus
/// the correspondence maps the model checker needs to talk about nets.
#[derive(Debug, Clone)]
pub struct NetlistAig {
    /// The graph.
    pub aig: Aig,
    /// AIG literal computing each net's value (combinational view of the
    /// current cycle).
    pub net_lit: HashMap<NetId, AigLit>,
    /// Primary-input net → AIG input literal (identical to `net_lit` entry).
    pub input_lit: HashMap<NetId, AigLit>,
    /// DFF cell → its latch literal (current state).
    pub latch_of_dff: HashMap<CellId, AigLit>,
}

/// Convert a netlist into a sequential AIG.
///
/// Primary inputs become AIG inputs; DFFs become latches whose next-state
/// function is the AIG literal of their D net; every combinational cell is
/// expanded into AND/NOT structure. Rewiring assignments (const/alias) are
/// honored: a net tied to a constant converts to the constant literal.
///
/// `cut_nets` lists nets to treat as *cutpoints*: their true drivers are
/// ignored and a fresh AIG input is created instead, exactly as the paper's
/// cutpoint-based constraints do (Fig. 4). Cutting a net makes analysis
/// conservative-or-constrainable: the checker may later constrain the free
/// variable.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle; run
/// [`Netlist::validate`] first.
pub fn netlist_to_aig(nl: &Netlist, cut_nets: &[NetId]) -> NetlistAig {
    let mut aig = Aig::new();
    let mut net_lit: HashMap<NetId, AigLit> = HashMap::new();
    let mut input_lit = HashMap::new();
    let mut latch_of_dff = HashMap::new();

    // Cutpoints first: they shadow any other driver.
    for &n in cut_nets {
        let l = aig.add_input();
        net_lit.insert(n, l);
        input_lit.insert(n, l);
    }
    // Primary inputs. A port net whose driver was overridden (tied to a
    // constant or aliased by rewiring) is resolved through the override
    // instead of becoming a free variable.
    for &n in nl.inputs() {
        if net_lit.contains_key(&n) || nl.driver(n) != Driver::Input {
            continue;
        }
        let l = aig.add_input();
        net_lit.insert(n, l);
        input_lit.insert(n, l);
    }
    // Latches for DFFs.
    for (cid, c) in nl.dffs() {
        let l = aig.add_latch(c.init);
        latch_of_dff.insert(cid, l);
        // The DFF output net reads the latch unless rewired/cut.
        if !net_lit.contains_key(&c.output) && nl.driver(c.output) == Driver::Cell(cid) {
            net_lit.insert(c.output, l);
        }
    }
    // Constant/alias-driven nets are resolved lazily below.

    // Combinational cells in topological order.
    let order = comb_topo_order(nl);
    for ci in order {
        let cid = CellId(ci);
        let c = nl.cell(cid);
        if c.kind.is_sequential() {
            continue;
        }
        if net_lit.contains_key(&c.output) {
            continue; // cut or already mapped
        }
        if nl.driver(c.output) != Driver::Cell(cid) {
            continue; // rewired away; resolved via driver
        }
        let ins: Vec<AigLit> = c
            .inputs
            .iter()
            .map(|&n| resolve(nl, n, &mut aig, &mut net_lit))
            .collect();
        let out = build_cell(&mut aig, c.kind, &ins);
        net_lit.insert(c.output, out);
    }

    // Latch next-state functions.
    for (cid, c) in nl.dffs() {
        let d = resolve(nl, c.inputs[0], &mut aig, &mut net_lit);
        let l = latch_of_dff[&cid];
        aig.set_latch_next(l, d);
    }

    // Make sure every net (incl. outputs, alias/const nets) has a literal.
    let all_nets: Vec<NetId> = nl.nets().map(|(n, _)| n).collect();
    for n in all_nets {
        resolve(nl, n, &mut aig, &mut net_lit);
    }

    NetlistAig {
        aig,
        net_lit,
        input_lit,
        latch_of_dff,
    }
}

fn resolve(
    nl: &Netlist,
    net: NetId,
    aig: &mut Aig,
    net_lit: &mut HashMap<NetId, AigLit>,
) -> AigLit {
    if let Some(&l) = net_lit.get(&net) {
        return l;
    }
    let l = match nl.driver(net) {
        Driver::Const(true) => AigLit::TRUE,
        Driver::Const(false) => AigLit::FALSE,
        Driver::Alias(src) => resolve(nl, src, aig, net_lit),
        Driver::None => AigLit::FALSE, // floating nets read as 0
        Driver::Input => {
            // Input not yet mapped (can't happen: mapped above), be safe.
            aig.add_input()
        }
        Driver::Cell(_) => {
            // A combinational cell output is always mapped before use by the
            // topological pass; reaching here means the net is unused output
            // of a cell that was skipped (rewired). Read as 0.
            AigLit::FALSE
        }
    };
    net_lit.insert(net, l);
    l
}

/// Expand one combinational cell into AIG structure.
pub(crate) fn build_cell(aig: &mut Aig, kind: CellKind, ins: &[AigLit]) -> AigLit {
    match kind {
        CellKind::Buf => ins[0],
        CellKind::Inv => !ins[0],
        CellKind::And2 | CellKind::And3 | CellKind::And4 => aig.and_many(ins),
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !aig.and_many(ins),
        CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => aig.or_many(ins),
        CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => !aig.or_many(ins),
        CellKind::Xor2 => aig.xor(ins[0], ins[1]),
        CellKind::Xnor2 => !aig.xor(ins[0], ins[1]),
        CellKind::Mux2 => aig.mux(ins[2], ins[1], ins[0]),
        CellKind::Aoi21 => {
            let t = aig.and(ins[0], ins[1]);
            !aig.or(t, ins[2])
        }
        CellKind::Oai21 => {
            let t = aig.or(ins[0], ins[1]);
            !aig.and(t, ins[2])
        }
        CellKind::Maj3 => {
            let ab = aig.and(ins[0], ins[1]);
            let ac = aig.and(ins[0], ins[2]);
            let bc = aig.and(ins[1], ins[2]);
            aig.or_many(&[ab, ac, bc])
        }
        CellKind::Tie0 => AigLit::FALSE,
        CellKind::Tie1 => AigLit::TRUE,
        CellKind::Dff => unreachable!("sequential cell in combinational expansion"),
    }
}

/// Topological order of combinational cells (same contract as the netlist
/// simulator's ordering).
fn comb_topo_order(nl: &Netlist) -> Vec<u32> {
    let num = nl.num_cells();
    let mut comb_driver: Vec<Option<u32>> = vec![None; nl.num_nets()];
    for (cid, c) in nl.cells() {
        if !c.kind.is_sequential() && nl.driver(c.output) == Driver::Cell(cid) {
            comb_driver[c.output.index()] = Some(cid.0);
        }
    }
    let resolve_net = |mut n: NetId| -> Option<u32> {
        let mut hops = 0;
        loop {
            match nl.driver(n) {
                Driver::Alias(s) => {
                    n = s;
                    hops += 1;
                    assert!(hops <= nl.num_nets(), "alias cycle");
                }
                _ => return comb_driver[n.index()],
            }
        }
    };
    let mut order = Vec::with_capacity(num);
    let mut mark = vec![0u8; num];
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for start in 0..num as u32 {
        let c = nl.cell(CellId(start));
        if c.kind.is_sequential() || mark[start as usize] != 0 {
            continue;
        }
        stack.push((start, 0));
        mark[start as usize] = 1;
        while let Some(&mut (cur, ref mut pin)) = stack.last_mut() {
            let cell = nl.cell(CellId(cur));
            if *pin < cell.inputs.len() {
                let p = *pin;
                *pin += 1;
                if let Some(dep) = resolve_net(cell.inputs[p]) {
                    match mark[dep as usize] {
                        0 => {
                            mark[dep as usize] = 1;
                            stack.push((dep, 0));
                        }
                        1 => panic!("combinational cycle"),
                        _ => {}
                    }
                }
            } else {
                mark[cur as usize] = 2;
                order.push(cur);
                stack.pop();
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_netlist::Netlist;

    #[test]
    fn simple_conversion_counts() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell(CellKind::And2, &[a, b], "x");
        let q = nl.add_dff(x, false, "q");
        nl.add_output("q", q);
        let na = netlist_to_aig(&nl, &[]);
        assert_eq!(na.aig.inputs().len(), 2);
        assert_eq!(na.aig.latches().len(), 1);
        assert_eq!(na.aig.num_ands(), 1);
        assert!(na.net_lit.contains_key(&q));
    }

    #[test]
    fn const_rewiring_becomes_constant_literal() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Inv, &[a], "y");
        nl.assign_const(y, true);
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[]);
        assert_eq!(na.net_lit[&y], AigLit::TRUE);
    }

    #[test]
    fn cutpoint_shadows_driver() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Inv, &[a], "y");
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[y]);
        // y maps to a fresh input, not to !a.
        assert!(na.input_lit.contains_key(&y));
        assert_eq!(na.aig.inputs().len(), 2);
        assert_eq!(na.aig.num_ands(), 0);
    }
}
