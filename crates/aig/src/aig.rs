//! Sequential and-inverter graph structure.

use std::collections::HashMap;
use std::fmt;

/// A literal in the AIG: a node index with a complement bit in the LSB.
///
/// `AigLit::FALSE` (code 0) and `AigLit::TRUE` (code 1) refer to the
/// constant node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal.
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal.
    pub const TRUE: AigLit = AigLit(1);

    /// Positive literal of node `n`.
    pub fn of(n: AigNodeId) -> AigLit {
        AigLit(n.0 << 1)
    }

    /// The node referenced.
    pub fn node(self) -> AigNodeId {
        AigNodeId(self.0 >> 1)
    }

    /// True if the literal is complemented.
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }

    /// Raw code (AIGER-style encoding).
    pub fn code(self) -> u32 {
        self.0
    }

    /// Build from a raw AIGER-style code.
    pub fn from_code(code: u32) -> AigLit {
        AigLit(code)
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

impl fmt::Display for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_compl() {
            write!(f, "!v{}", self.node().0)
        } else {
            write!(f, "v{}", self.node().0)
        }
    }
}

/// Index of a node in an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigNodeId(pub u32);

impl AigNodeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AigNode {
    /// The constant node (index 0). Its positive literal is FALSE.
    Const,
    /// A primary input (combinational free variable each cycle).
    Input,
    /// A latch: current-state variable; `next` is set via [`Aig::set_latch_next`].
    Latch {
        /// Reset value.
        init: bool,
        /// Next-state function (a literal over the graph).
        next: AigLit,
    },
    /// A two-input AND of the literals.
    And(AigLit, AigLit),
}

/// A sequential and-inverter graph.
///
/// Nodes are stored in creation order; AND nodes always reference
/// lower-indexed nodes, so a forward pass is a valid topological evaluation
/// (latch `next` pointers may reference any node — they are read only at
/// clock edges).
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<AigNodeId>,
    latches: Vec<AigNodeId>,
    /// Structural-hashing table for AND nodes.
    strash: HashMap<(u32, u32), AigNodeId>,
}

impl Aig {
    /// Create an AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            inputs: Vec::new(),
            latches: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Total node count (including the constant node).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// Primary input nodes, in creation order.
    pub fn inputs(&self) -> &[AigNodeId] {
        &self.inputs
    }

    /// Latch nodes, in creation order.
    pub fn latches(&self) -> &[AigNodeId] {
        &self.latches
    }

    /// Node accessor.
    pub fn node(&self, id: AigNodeId) -> AigNode {
        self.nodes[id.index()]
    }

    /// Add a primary input; returns its positive literal.
    pub fn add_input(&mut self) -> AigLit {
        let id = AigNodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::Input);
        self.inputs.push(id);
        AigLit::of(id)
    }

    /// Add a latch with reset value `init`; its next-state function must be
    /// provided later via [`Aig::set_latch_next`]. Returns the positive
    /// literal of the current-state variable.
    pub fn add_latch(&mut self, init: bool) -> AigLit {
        let id = AigNodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::Latch {
            init,
            next: AigLit::FALSE,
        });
        self.latches.push(id);
        AigLit::of(id)
    }

    /// Set the next-state function of latch `latch`.
    ///
    /// # Panics
    ///
    /// Panics if `latch` does not refer to a latch node.
    pub fn set_latch_next(&mut self, latch: AigLit, next: AigLit) {
        assert!(!latch.is_compl(), "latch handle must be the positive literal");
        match &mut self.nodes[latch.node().index()] {
            AigNode::Latch { next: slot, .. } => *slot = next,
            other => panic!("not a latch: {other:?}"),
        }
    }

    /// AND of two literals with constant folding and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (x, y) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(x.code(), y.code())) {
            return AigLit::of(id);
        }
        let id = AigNodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::And(x, y));
        self.strash.insert((x.code(), y.code()), id);
        AigLit::of(id)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// XOR built from two ANDs.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// 2:1 mux: `s ? t : e`.
    pub fn mux(&mut self, s: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.or(!a, b)
    }

    /// Conjunction of many literals (balanced reduction).
    pub fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        match lits {
            [] => AigLit::TRUE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let l = self.and_many(&lits[..mid]);
                let r = self.and_many(&lits[mid..]);
                self.and(l, r)
            }
        }
    }

    /// Disjunction of many literals.
    pub fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        let neg: Vec<AigLit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.add_input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(a, AigLit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_merges_duplicates() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn latch_next_assignment() {
        let mut g = Aig::new();
        let q = g.add_latch(true);
        let d = g.add_input();
        g.set_latch_next(q, !d);
        match g.node(q.node()) {
            AigNode::Latch { init, next } => {
                assert!(init);
                assert_eq!(next, !d);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn or_xor_mux_shapes() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let s = g.add_input();
        let _ = g.or(a, b);
        let _ = g.xor(a, b);
        let _ = g.mux(s, a, b);
        assert!(g.num_ands() >= 5);
    }

    #[test]
    fn and_many_empty_is_true() {
        let mut g = Aig::new();
        assert_eq!(g.and_many(&[]), AigLit::TRUE);
        assert_eq!(g.or_many(&[]), AigLit::FALSE);
    }
}
