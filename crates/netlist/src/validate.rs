//! Structural well-formedness checks for netlists.

use crate::netlist::{Driver, NetId, Netlist};
use std::error::Error;
use std::fmt;

/// A structural defect found by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A net used as a cell input or primary output has no driver.
    UndrivenNet {
        /// Name of the offending net.
        net: String,
    },
    /// An alias chain loops back on itself.
    AliasCycle {
        /// Name of a net on the cycle.
        net: String,
    },
    /// Combinational logic forms a cycle (no DFF on the path).
    CombinationalCycle {
        /// Name of a net on the cycle.
        net: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UndrivenNet { net } => write!(f, "net `{net}` has no driver"),
            ValidateError::AliasCycle { net } => write!(f, "alias cycle through net `{net}`"),
            ValidateError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net `{net}`")
            }
        }
    }
}

impl Error for ValidateError {}

impl Netlist {
    /// Check structural invariants: every used net is driven, alias chains
    /// are acyclic, and combinational logic is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        // Used nets: cell inputs and primary outputs.
        let mut used = vec![false; self.num_nets()];
        for (_, c) in self.cells() {
            for &i in &c.inputs {
                used[i.index()] = true;
            }
        }
        for (_, n) in self.outputs() {
            used[n.index()] = true;
        }
        for (net, info) in self.nets() {
            if used[net.index()] && matches!(self.driver(net), Driver::None) {
                return Err(ValidateError::UndrivenNet {
                    net: info.name.clone(),
                });
            }
        }
        // Alias cycles.
        for (net, info) in self.nets() {
            let mut cur = net;
            let mut hops = 0usize;
            while let Driver::Alias(next) = self.driver(cur) {
                cur = next;
                hops += 1;
                if hops > self.num_nets() {
                    return Err(ValidateError::AliasCycle {
                        net: info.name.clone(),
                    });
                }
            }
        }
        // Combinational cycles: iterative DFS over combinational cells.
        self.check_comb_cycles()
    }

    fn check_comb_cycles(&self) -> Result<(), ValidateError> {
        let num = self.num_cells();
        let mut comb_driver: Vec<Option<u32>> = vec![None; self.num_nets()];
        for (cid, c) in self.cells() {
            if !c.kind.is_sequential() && self.driver(c.output) == Driver::Cell(cid) {
                comb_driver[c.output.index()] = Some(cid.0);
            }
        }
        let resolve = |mut n: NetId| -> Option<u32> {
            let mut hops = 0;
            loop {
                match self.driver(n) {
                    Driver::Alias(s) => {
                        n = s;
                        hops += 1;
                        if hops > self.num_nets() {
                            return None; // alias cycle reported separately
                        }
                    }
                    _ => return comb_driver[n.index()],
                }
            }
        };
        let mut mark = vec![0u8; num];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..num as u32 {
            let c = self.cell(crate::netlist::CellId(start));
            if c.kind.is_sequential() || mark[start as usize] != 0 {
                continue;
            }
            stack.clear();
            stack.push((start, 0));
            mark[start as usize] = 1;
            while let Some(&mut (cur, ref mut pin)) = stack.last_mut() {
                let cell = self.cell(crate::netlist::CellId(cur));
                if *pin < cell.inputs.len() {
                    let p = *pin;
                    *pin += 1;
                    if let Some(dep) = resolve(cell.inputs[p]) {
                        match mark[dep as usize] {
                            0 => {
                                mark[dep as usize] = 1;
                                stack.push((dep, 0));
                            }
                            1 => {
                                let net = self
                                    .net(self.cell(crate::netlist::CellId(dep)).output)
                                    .name
                                    .clone();
                                return Err(ValidateError::CombinationalCycle { net });
                            }
                            _ => {}
                        }
                    }
                } else {
                    mark[cur as usize] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn valid_netlist_passes() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Inv, &[a], "y");
        let q = nl.add_dff(y, false, "q");
        nl.add_output("q", q);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn undriven_used_net_rejected() {
        let mut nl = Netlist::new("t");
        let floating = nl.add_net("floating");
        nl.add_cell(CellKind::Inv, &[floating], "y");
        assert!(matches!(
            nl.validate(),
            Err(ValidateError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn unused_undriven_net_allowed() {
        let mut nl = Netlist::new("t");
        let _dangling = nl.add_net("dangling");
        let a = nl.add_input("a");
        nl.add_output("a", a);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn comb_cycle_rejected() {
        let mut nl = Netlist::new("t");
        let lp = nl.add_net("lp");
        let y = nl.add_cell(CellKind::Buf, &[lp], "y");
        nl.assign_alias(lp, y);
        nl.add_output("y", y);
        assert!(matches!(
            nl.validate(),
            Err(ValidateError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // q -> inv -> d -> q is fine: a DFF is on the loop.
        let mut nl = Netlist::new("t");
        let lp = nl.add_net("lp");
        let d = nl.add_cell(CellKind::Inv, &[lp], "d");
        let q = nl.add_dff(d, false, "q");
        nl.assign_alias(lp, q);
        nl.add_output("q", q);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn alias_cycle_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.assign_alias(a, b);
        nl.assign_alias(b, a);
        nl.add_output("a", a);
        assert!(matches!(
            nl.validate(),
            Err(ValidateError::AliasCycle { .. })
        ));
    }
}
