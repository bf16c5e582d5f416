//! The flat netlist structure: nets, cells, ports.

use crate::cell::{CellKind, CELL_LIBRARY};
use crate::stats::NetlistStats;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (a single-driver wire) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a cell instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl NetId {
    /// Index into the netlist's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// Index into the netlist's cell table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Direction of a primary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input, driven by the environment.
    Input,
    /// Primary output, observed by the environment.
    Output,
}

/// A net: one wire with exactly one driver (a primary input, a cell output,
/// or a constant assignment produced by rewiring).
#[derive(Debug, Clone)]
pub struct Net {
    /// Human-readable name (unique within the netlist).
    pub name: String,
}

/// One cell instance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Library kind of this instance.
    pub kind: CellKind,
    /// Input nets in library pin order (see [`CellKind`] docs for orders).
    pub inputs: Vec<NetId>,
    /// The single output net driven by this cell.
    pub output: NetId,
    /// Reset value — only meaningful for [`CellKind::Dff`].
    pub init: bool,
}

/// Error from a fallible netlist mutation ([`Netlist::try_connect_cell`],
/// [`Netlist::try_assign_alias`]). The panicking [`Netlist::assign_alias`]
/// exists for programmatic construction where a violation is a caller bug;
/// input-facing code (the structural-format parser) uses the `try_` forms
/// so malformed input surfaces as an error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistOpError {
    /// A cell was instantiated with the wrong number of input pins.
    PinCountMismatch {
        /// The cell kind being instantiated.
        kind: CellKind,
        /// Pins the kind requires.
        expected: usize,
        /// Pins actually supplied.
        got: usize,
    },
    /// The would-be output net already has a driver.
    AlreadyDriven {
        /// Name of the doubly-driven net.
        net: String,
    },
    /// An alias from a net to itself (a combinational loop).
    SelfAlias {
        /// Name of the net.
        net: String,
    },
}

impl fmt::Display for NetlistOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistOpError::PinCountMismatch {
                kind,
                expected,
                got,
            } => write!(
                f,
                "pin count mismatch instantiating {kind}: expected {expected}, got {got}"
            ),
            NetlistOpError::AlreadyDriven { net } => write!(f, "net `{net}` already driven"),
            NetlistOpError::SelfAlias { net } => write!(f, "self-alias of net `{net}`"),
        }
    }
}

impl std::error::Error for NetlistOpError {}

/// How a net is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Driven by a primary input port.
    Input,
    /// Driven by the output pin of a cell.
    Cell(CellId),
    /// Tied to a constant by a rewiring `assign`.
    Const(bool),
    /// Aliased to another net by a rewiring `assign`.
    Alias(NetId),
    /// Not driven (floating) — a validation error unless unused.
    None,
}

/// A flat gate-level netlist.
///
/// Invariants maintained by the mutation API (checked by
/// [`Netlist::validate`]):
/// * every net has at most one driver;
/// * cell pin counts match their [`CellKind`];
/// * net names are unique.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    drivers: Vec<Driver>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    names: HashMap<String, NetId>,
    /// Monotonic counter for name uniquification (never reset, so probing
    /// is amortized O(1) even when imported names collide densely).
    fresh_counter: usize,
}

impl Netlist {
    /// Create an empty netlist called `name`.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            drivers: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: HashMap::new(),
            fresh_counter: 0,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn fresh_name(&mut self, base: &str) -> String {
        if !self.names.contains_key(base) {
            return base.to_string();
        }
        self.fresh_counter = self.fresh_counter.max(self.names.len());
        loop {
            let cand = format!("{base}__{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.names.contains_key(&cand) {
                return cand;
            }
        }
    }

    /// Add an undriven net named `name` (uniquified if taken).
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = self.fresh_name(name.as_ref());
        let id = NetId(self.nets.len() as u32);
        self.names.insert(name.clone(), id);
        self.nets.push(Net { name });
        self.drivers.push(Driver::None);
        id
    }

    /// Add a primary input port; returns the net it drives.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NetId {
        let id = self.add_net(name);
        self.drivers[id.index()] = Driver::Input;
        self.inputs.push(id);
        id
    }

    /// Mark `net` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Instantiate a combinational cell; returns its (new) output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` doesn't match `kind.num_inputs()`.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        out_name: impl AsRef<str>,
    ) -> NetId {
        assert!(!kind.is_sequential(), "use add_dff for DFFs");
        self.add_cell_impl(kind, inputs, out_name, false)
    }

    /// Instantiate a D flip-flop with reset value `init`; returns its Q net.
    pub fn add_dff(&mut self, d: NetId, init: bool, out_name: impl AsRef<str>) -> NetId {
        self.add_cell_impl(CellKind::Dff, &[d], out_name, init)
    }

    fn add_cell_impl(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        out_name: impl AsRef<str>,
        init: bool,
    ) -> NetId {
        assert_eq!(
            inputs.len(),
            kind.num_inputs(),
            "pin count mismatch instantiating {kind}"
        );
        let out = self.add_net(out_name);
        let cid = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output: out,
            init,
        });
        self.drivers[out.index()] = Driver::Cell(cid);
        out
    }

    /// Instantiate a cell driving an *existing* undriven net (used by the
    /// structural-format parser, where output nets are declared up front).
    /// Reports a wrong pin count or an already-driven output as an error;
    /// on error the netlist is unchanged.
    pub fn try_connect_cell(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
        init: bool,
    ) -> Result<(), NetlistOpError> {
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistOpError::PinCountMismatch {
                kind,
                expected: kind.num_inputs(),
                got: inputs.len(),
            });
        }
        if !matches!(self.drivers[output.index()], Driver::None) {
            return Err(NetlistOpError::AlreadyDriven {
                net: self.nets[output.index()].name.clone(),
            });
        }
        let cid = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output,
            init,
        });
        self.drivers[output.index()] = Driver::Cell(cid);
        Ok(())
    }

    /// Rewire: detach `net` from its current driver and tie it to `value`.
    ///
    /// This is the PDAT rewiring primitive for proved constant invariants.
    /// The former driver cell (if any) is left in place — resynthesis removes
    /// it later, matching the paper's "rewiring adds assignments, never
    /// removes cells" contract.
    pub fn assign_const(&mut self, net: NetId, value: bool) {
        self.drivers[net.index()] = Driver::Const(value);
    }

    /// Rewire: detach `net` from its current driver and alias it to `src`.
    ///
    /// # Panics
    ///
    /// Panics if `net == src` (self-alias would be a combinational loop).
    /// Use [`Netlist::try_assign_alias`] when the request derives from
    /// untrusted input.
    pub fn assign_alias(&mut self, net: NetId, src: NetId) {
        if let Err(e) = self.try_assign_alias(net, src) {
            panic!("{e}");
        }
    }

    /// Fallible [`Netlist::assign_alias`]: reports a self-alias as an error
    /// instead of panicking. On error the netlist is unchanged.
    pub fn try_assign_alias(&mut self, net: NetId, src: NetId) -> Result<(), NetlistOpError> {
        if net == src {
            return Err(NetlistOpError::SelfAlias {
                net: self.nets[net.index()].name.clone(),
            });
        }
        self.drivers[net.index()] = Driver::Alias(src);
        Ok(())
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances (including DFFs and tie cells).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Gate count: all cell instances except tie cells. This matches the
    /// paper's "gate count" metric (sequential cells included).
    pub fn gate_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.kind.is_tie()).count()
    }

    /// Total cell area in square micrometres under [`CELL_LIBRARY`].
    pub fn area(&self) -> f64 {
        self.cells.iter().map(|c| CELL_LIBRARY.area(c.kind)).sum()
    }

    /// Aggregate statistics (per-kind histogram, counts, area).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Net lookup by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Net lookup by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.names.get(name).copied()
    }

    /// Cell lookup by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// How `net` is driven.
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs `(port name, net)`, in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Iterate over all cells with ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterate over all nets with ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterate over sequential (DFF) cells.
    pub fn dffs(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind.is_sequential())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_netlist() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell(CellKind::Nand2, &[a, b], "y");
        let q = nl.add_dff(y, false, "q");
        nl.add_output("q", q);
        assert_eq!(nl.num_cells(), 2);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.driver(y), Driver::Cell(CellId(0)));
        assert_eq!(nl.driver(a), Driver::Input);
        assert!(nl.area() > 0.0);
    }

    #[test]
    fn names_are_uniquified() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("x");
        let b = nl.add_net("x");
        assert_ne!(a, b);
        assert_ne!(nl.net(a).name, nl.net(b).name);
        assert_eq!(nl.find_net(&nl.net(b).name.clone()), Some(b));
    }

    #[test]
    fn rewiring_overrides_driver() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Inv, &[a], "y");
        nl.assign_const(y, true);
        assert_eq!(nl.driver(y), Driver::Const(true));
        // Cell is still present (rewiring never removes cells).
        assert_eq!(nl.num_cells(), 1);
        nl.assign_alias(y, a);
        assert_eq!(nl.driver(y), Driver::Alias(a));
    }

    #[test]
    #[should_panic(expected = "pin count mismatch")]
    fn wrong_pin_count_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.add_cell(CellKind::And2, &[a], "y");
    }

    #[test]
    #[should_panic(expected = "self-alias")]
    fn self_alias_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.assign_alias(a, a);
    }
}
