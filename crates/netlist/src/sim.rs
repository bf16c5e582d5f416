//! Reference cycle-accurate simulator for [`Netlist`]s.
//!
//! Used as the semantic oracle throughout the workspace: equivalence tests
//! between original and PDAT-transformed netlists, lockstep runs against the
//! instruction-set simulators, and AIG cross-checks all compare against this
//! simulator.

use crate::netlist::{CellId, Driver, NetId, Netlist};

/// An event-free two-pass simulator: evaluates all combinational logic in
/// topological order each cycle, then clocks every DFF.
///
/// # Example
///
/// ```
/// use pdat_netlist::{Netlist, CellKind, Simulator};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let q = nl.add_dff(a, false, "q");
/// nl.add_output("q", q);
/// let mut sim = Simulator::new(&nl);
/// sim.set_input(a, true);
/// sim.step(); // Q captures D
/// assert!(sim.value(q));
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    /// Current value of every net.
    values: Vec<bool>,
    /// Current state (Q) of every cell slot (only meaningful for DFFs).
    state: Vec<bool>,
    /// Combinational cells in [`Netlist::comb_order`].
    order: Vec<CellId>,
}

impl<'a> Simulator<'a> {
    /// Build a simulator over the netlist's combinational order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational or alias cycle (run
    /// [`Netlist::validate`] first for a friendlier error).
    pub fn new(nl: &'a Netlist) -> Simulator<'a> {
        let order = nl.comb_order().unwrap_or_else(|e| panic!("{e}"));
        let mut sim = Simulator {
            nl,
            values: vec![false; nl.num_nets()],
            state: nl.cells().map(|(_, c)| c.init).collect(),
            order,
        };
        sim.settle();
        sim
    }

    /// Reset all DFFs to their init values and re-settle.
    pub fn reset(&mut self) {
        for (i, (_, c)) in self.nl.cells().enumerate() {
            self.state[i] = c.init;
        }
        self.settle();
    }

    /// Drive primary input `net` for the *current* cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.set_inputs(&[(net, value)]);
    }

    /// Drive several inputs at once, then settle once.
    ///
    /// # Panics
    ///
    /// Panics if a net is not a primary input.
    pub fn set_inputs(&mut self, assignments: &[(NetId, bool)]) {
        for &(net, value) in assignments {
            assert!(
                matches!(self.nl.driver(net), Driver::Input),
                "{} is not a primary input",
                self.nl.net(net).name
            );
            self.values[net.index()] = value;
        }
        self.settle();
    }

    /// Current value of any net (after the last settle).
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Re-evaluate all combinational logic for the current inputs/state.
    pub fn settle(&mut self) {
        // Sources: primary inputs keep their values; DFF outputs come from
        // state; const/alias assignments resolved inline.
        for (net, _) in self.nl.nets() {
            match self.nl.driver(net) {
                Driver::Const(v) => self.values[net.index()] = v,
                Driver::None => self.values[net.index()] = false,
                _ => {}
            }
        }
        for (cid, c) in self.nl.dffs() {
            if self.nl.driver(c.output) == Driver::Cell(cid) {
                self.values[c.output.index()] = self.state[cid.index()];
            }
        }
        let mut ins: Vec<bool> = Vec::with_capacity(4);
        for &cid in &self.order {
            let c = self.nl.cell(cid);
            ins.clear();
            ins.extend(c.inputs.iter().map(|&n| self.resolve(n)));
            let out = c.kind.eval(&ins);
            // Only write if the cell still drives its output net.
            if self.nl.driver(c.output) == Driver::Cell(cid) {
                self.values[c.output.index()] = out;
            }
        }
        // Resolve aliases last (aliases may point at anything already final).
        for (net, _) in self.nl.nets() {
            if let Driver::Alias(_) = self.nl.driver(net) {
                self.values[net.index()] = self.resolve(net);
            }
        }
    }

    /// Value of the net at the end of `net`'s alias chain; after a settle
    /// that is also the value of a const- or un-driven root.
    fn resolve(&self, net: NetId) -> bool {
        match self.nl.alias_root(net) {
            Ok(root) => self.values[root.index()],
            Err(e) => panic!("{e}"),
        }
    }

    /// Advance one clock edge: capture every DFF's D into its state, then
    /// settle the new cycle's combinational values.
    pub fn step(&mut self) {
        let mut next = self.state.clone();
        for (cid, c) in self.nl.dffs() {
            next[cid.index()] = self.resolve(c.inputs[0]);
        }
        self.state = next;
        self.settle();
    }

    /// Snapshot of the current DFF state vector (index = cell index).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Overwrite the DFF state vector and re-settle — for exhaustive
    /// state-space exploration in tests.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` doesn't match the cell count.
    pub fn set_state_for_test(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state vector length");
        self.state.copy_from_slice(state);
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn combinational_chain() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell(CellKind::And2, &[a, b], "x");
        let y = nl.add_cell(CellKind::Inv, &[x], "y");
        nl.add_output("y", y);
        let mut sim = Simulator::new(&nl);
        sim.set_inputs(&[(a, true), (b, true)]);
        assert!(!sim.value(y));
        sim.set_inputs(&[(a, true), (b, false)]);
        assert!(sim.value(y));
    }

    #[test]
    fn dff_pipeline_delays_by_one_cycle() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q1 = nl.add_dff(a, false, "q1");
        let q2 = nl.add_dff(q1, false, "q2");
        nl.add_output("q2", q2);
        let mut sim = Simulator::new(&nl);
        sim.set_input(a, true);
        assert!(!sim.value(q1));
        sim.step();
        assert!(sim.value(q1));
        assert!(!sim.value(q2));
        sim.step();
        assert!(sim.value(q2));
    }

    #[test]
    fn toggling_counter_bit() {
        // q <= !q : toggles every cycle.
        let mut nl = Netlist::new("t");
        let q_net = nl.add_net("loop");
        let d = nl.add_cell(CellKind::Inv, &[q_net], "d");
        let q = nl.add_dff(d, false, "q");
        nl.assign_alias(q_net, q);
        nl.add_output("q", q);
        let mut sim = Simulator::new(&nl);
        let mut expected = false;
        for _ in 0..8 {
            assert_eq!(sim.value(q), expected);
            sim.step();
            expected = !expected;
        }
    }

    #[test]
    fn const_assignment_respected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Inv, &[a], "y");
        nl.assign_const(y, true);
        nl.add_output("y", y);
        let mut sim = Simulator::new(&nl);
        sim.set_input(a, true);
        assert!(sim.value(y), "const overrides the inverter");
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let loopback = nl.add_net("loop");
        let y = nl.add_cell(CellKind::Inv, &[loopback], "y");
        nl.assign_alias(loopback, y);
        let _ = Simulator::new(&nl);
    }
}
