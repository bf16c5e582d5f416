//! Structural well-formedness checks for netlists.

use crate::netlist::{CellId, Driver, NetId, Netlist};
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
        for (net, _) in self.nets() {
            self.alias_root(net)?;
        }
        self.comb_order().map(|_| ())
    }

    /// The net whose driver `net` carries: `net` itself unless it is
    /// alias-driven, else the first net along its [`Driver::Alias`] chain
    /// whose driver is not an alias. The simulator, the AIG build,
    /// resynthesis and rewiring all read aliases through this one walk.
    ///
    /// # Errors
    ///
    /// [`ValidateError::AliasCycle`], naming `net`, if the chain loops.
    pub fn alias_root(&self, net: NetId) -> Result<NetId, ValidateError> {
        let mut cur = net;
        let mut hops = 0usize;
        while let Driver::Alias(next) = self.driver(cur) {
            cur = next;
            hops += 1;
            if hops > self.num_nets() {
                return Err(ValidateError::AliasCycle {
                    net: self.net(net).name.clone(),
                });
            }
        }
        Ok(cur)
    }

    /// The combinational cells in evaluation order: each comes after every
    /// combinational cell that drives one of its inputs, through aliases.
    /// Primary inputs, constants and DFF outputs are sources; DFFs are not
    /// listed.
    ///
    /// The order is the post-order of one iterative DFS that starts from
    /// every combinational cell in index order (also from cells whose output
    /// was rewired away) and visits inputs in pin order. The simulator, the
    /// AIG build and resynthesis all evaluate in this order, so AIG node
    /// numbering and resynthesized netlists depend on it exactly.
    ///
    /// # Errors
    ///
    /// [`ValidateError::CombinationalCycle`] if combinational logic loops,
    /// or [`ValidateError::AliasCycle`] if a cell input's alias chain does.
    pub fn comb_order(&self) -> Result<Vec<CellId>, ValidateError> {
        let num = self.num_cells();
        let mut order = Vec::with_capacity(num);
        let mut mark = vec![0u8; num]; // 0 = unvisited, 1 = on the stack, 2 = done
        let mut stack: Vec<(CellId, usize)> = Vec::new();
        for (start, c) in self.cells() {
            if c.kind.is_sequential() || mark[start.index()] != 0 {
                continue;
            }
            stack.push((start, 0));
            mark[start.index()] = 1;
            while let Some(&mut (cur, ref mut pin)) = stack.last_mut() {
                let Some(&input) = self.cell(cur).inputs.get(*pin) else {
                    mark[cur.index()] = 2;
                    order.push(cur);
                    stack.pop();
                    continue;
                };
                *pin += 1;
                let Driver::Cell(dep) = self.driver(self.alias_root(input)?) else {
                    continue;
                };
                if self.cell(dep).kind.is_sequential() {
                    continue;
                }
                match mark[dep.index()] {
                    0 => {
                        mark[dep.index()] = 1;
                        stack.push((dep, 0));
                    }
                    1 => {
                        return Err(ValidateError::CombinationalCycle {
                            net: self.net(self.cell(dep).output).name.clone(),
                        })
                    }
                    _ => {}
                }
            }
        }
        Ok(order)
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

    #[test]
    fn alias_root_follows_the_chain_and_reports_a_loop() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.assign_alias(x, y);
        nl.assign_alias(y, a);
        assert_eq!(nl.alias_root(x), Ok(a));
        assert_eq!(nl.alias_root(a), Ok(a));
        let p = nl.add_net("p");
        let q = nl.add_net("q");
        nl.assign_alias(p, q);
        nl.assign_alias(q, p);
        assert_eq!(
            nl.alias_root(p),
            Err(ValidateError::AliasCycle { net: "p".into() })
        );
    }

    #[test]
    fn comb_order_puts_drivers_first_through_aliases_and_omits_dffs() {
        // Cell 0 reads cell 1 through an alias; the DFF (cell 2) is a source.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let lp = nl.add_net("lp");
        let y = nl.add_cell(CellKind::Inv, &[lp], "y");
        let x = nl.add_cell(CellKind::Inv, &[a], "x");
        nl.assign_alias(lp, x);
        let q = nl.add_dff(y, false, "q");
        nl.add_cell(CellKind::And2, &[q, y], "z");
        assert_eq!(nl.comb_order(), Ok(vec![CellId(1), CellId(0), CellId(3)]));
    }
}
