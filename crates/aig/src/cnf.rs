//! Tseitin encoding of AIG time frames into a [`pdat_sat::Solver`].
//!
//! The model checker unrolls the sequential AIG into one or more *frames*.
//! A frame is a CNF copy of the combinational logic; latch current-state
//! literals are supplied by the caller (either reset constants, fresh
//! variables for induction, or the previous frame's next-state literals for
//! BMC).

use crate::aig::{Aig, AigLit, AigNode, AigNodeId};
use pdat_sat::{Lit, Solver};

/// SAT literals for one unrolled time frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// SAT literal per AIG node (positive polarity), indexed by node.
    node_lit: Vec<Lit>,
    /// SAT literals of the frame's primary inputs (indexed like
    /// `aig.inputs()`).
    pub inputs: Vec<Lit>,
    /// SAT literals of each latch's next-state function (indexed like
    /// `aig.latches()`); feed these as the next frame's state.
    pub next_state: Vec<Lit>,
}

impl Frame {
    /// SAT literal computing `l` in this frame.
    pub fn lit(&self, l: AigLit) -> Lit {
        let base = self.node_lit[l.node().index()];
        if l.is_compl() {
            !base
        } else {
            base
        }
    }
}

/// Encodes successive frames of one AIG into a solver.
#[derive(Debug)]
pub struct FrameEncoder<'a> {
    aig: &'a Aig,
    /// A variable constrained to true (used to encode constants).
    true_lit: Lit,
}

impl<'a> FrameEncoder<'a> {
    /// Prepare an encoder; adds one unit clause pinning the constant.
    pub fn new(aig: &'a Aig, solver: &mut Solver) -> FrameEncoder<'a> {
        let t = solver.new_var();
        solver.add_clause(&[Lit::pos(t)]);
        FrameEncoder {
            aig,
            true_lit: Lit::pos(t),
        }
    }

    /// SAT literals for the reset state (constants per latch init value).
    pub fn initial_state(&self) -> Vec<Lit> {
        self.aig
            .latches()
            .iter()
            .map(|&l| match self.aig.node(l) {
                AigNode::Latch { init, .. } => {
                    if init {
                        self.true_lit
                    } else {
                        !self.true_lit
                    }
                }
                _ => unreachable!(),
            })
            .collect()
    }

    /// Fresh unconstrained state literals (for inductive steps).
    pub fn free_state(&self, solver: &mut Solver) -> Vec<Lit> {
        self.aig
            .latches()
            .iter()
            .map(|_| Lit::pos(solver.new_var()))
            .collect()
    }

    /// Encode one frame whose latch current-state literals are `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != aig.latches().len()`.
    pub fn encode_frame(&self, solver: &mut Solver, state: &[Lit]) -> Frame {
        assert_eq!(state.len(), self.aig.latches().len(), "state arity");
        let n = self.aig.num_nodes();
        let mut node_lit: Vec<Lit> = Vec::with_capacity(n);
        let mut inputs = Vec::new();
        let mut latch_idx = 0;
        for i in 0..n {
            let id = crate::aig::AigNodeId(i as u32);
            let lit = match self.aig.node(id) {
                AigNode::Const => !self.true_lit, // positive lit of const node = FALSE
                AigNode::Input => {
                    let v = Lit::pos(solver.new_var());
                    inputs.push(v);
                    v
                }
                AigNode::Latch { .. } => {
                    let v = state[latch_idx];
                    latch_idx += 1;
                    v
                }
                AigNode::And(a, b) => {
                    let la = apply(node_lit[a.node().index()], a);
                    let lb = apply(node_lit[b.node().index()], b);
                    let v = Lit::pos(solver.new_var());
                    // v <-> la & lb
                    solver.add_clause(&[!v, la]);
                    solver.add_clause(&[!v, lb]);
                    solver.add_clause(&[v, !la, !lb]);
                    v
                }
            };
            node_lit.push(lit);
        }
        let next_state = self
            .aig
            .latches()
            .iter()
            .map(|&l| match self.aig.node(l) {
                AigNode::Latch { next, .. } => apply(node_lit[next.node().index()], next),
                _ => unreachable!(),
            })
            .collect();
        Frame {
            node_lit,
            inputs,
            next_state,
        }
    }
}

fn apply(base: Lit, l: AigLit) -> Lit {
    if l.is_compl() {
        !base
    } else {
        base
    }
}

/// Demand-driven two-frame encoder that Tseitin-encodes only the
/// transitive-fanin cone of each requested literal.
///
/// Where [`FrameEncoder`] walks every AIG node per frame, `ConeEncoder`
/// encodes a node the first time some requested cone reaches it and memoises
/// the resulting SAT literal per frame, so overlapping cones share their
/// common logic (structural hashing at AIG-node granularity). Frame-1 latch
/// literals resolve to the frame-0 cone of the latch's next-state function,
/// which links the two frames exactly like the eager encoder's
/// `f0.next_state` wiring; frame-0 latch literals become fresh free
/// variables (the inductive-hypothesis state), recorded in creation order
/// via [`ConeEncoder::state_vars`] so callers can treat them as a frozen
/// frame interface.
#[derive(Debug)]
pub struct ConeEncoder<'a> {
    aig: &'a Aig,
    /// A variable constrained to true (used to encode constants).
    true_lit: Lit,
    /// Per-frame memo: positive-polarity SAT literal per AIG node, `None`
    /// until the node's cone is first requested in that frame.
    memo: [Vec<Option<Lit>>; 2],
    /// Fresh frame-0 latch state literals in creation order.
    state_vars: Vec<Lit>,
    /// AND gates Tseitin-encoded so far, per frame (cone-size metric).
    ands: [usize; 2],
    /// Reusable DFS scratch stack of `(frame, node)` pairs.
    stack: Vec<(usize, AigNodeId)>,
}

impl<'a> ConeEncoder<'a> {
    /// Prepare an encoder; adds one unit clause pinning the constant.
    pub fn new(aig: &'a Aig, solver: &mut Solver) -> ConeEncoder<'a> {
        let t = solver.new_var();
        solver.add_clause(&[Lit::pos(t)]);
        let n = aig.num_nodes();
        ConeEncoder {
            aig,
            true_lit: Lit::pos(t),
            memo: [vec![None; n], vec![None; n]],
            state_vars: Vec::new(),
            ands: [0, 0],
            stack: Vec::new(),
        }
    }

    /// Fresh frame-0 latch state literals created so far, in creation order.
    pub fn state_vars(&self) -> &[Lit] {
        &self.state_vars
    }

    /// AND gates encoded so far in `frame` (0 or 1).
    pub fn cone_ands(&self, frame: usize) -> usize {
        self.ands[frame]
    }

    /// SAT literal computing `l` in `frame`, encoding its cone on demand.
    ///
    /// # Panics
    ///
    /// Panics if `frame > 1`.
    pub fn lit(&mut self, solver: &mut Solver, frame: usize, l: AigLit) -> Lit {
        assert!(frame < 2, "ConeEncoder handles exactly two frames");
        self.encode_cone(solver, frame, l.node());
        apply(
            self.memo[frame][l.node().index()].expect("cone encoded"),
            l,
        )
    }

    /// Iterative DFS over the (frame, node) dependency graph. AND children
    /// stay within the frame and have strictly smaller node ids; a frame-1
    /// latch depends on the frame-0 cone of its `next` literal, and frame 0
    /// never depends on frame 1, so the walk terminates.
    fn encode_cone(&mut self, solver: &mut Solver, frame: usize, node: AigNodeId) {
        self.stack.clear();
        self.stack.push((frame, node));
        while let Some(&(f, n)) = self.stack.last() {
            if self.memo[f][n.index()].is_some() {
                self.stack.pop();
                continue;
            }
            match self.aig.node(n) {
                AigNode::Const => {
                    // Positive lit of the const node = FALSE.
                    self.memo[f][n.index()] = Some(!self.true_lit);
                    self.stack.pop();
                }
                AigNode::Input => {
                    self.memo[f][n.index()] = Some(Lit::pos(solver.new_var()));
                    self.stack.pop();
                }
                AigNode::Latch { next, .. } => {
                    if f == 0 {
                        let v = Lit::pos(solver.new_var());
                        self.state_vars.push(v);
                        self.memo[0][n.index()] = Some(v);
                        self.stack.pop();
                    } else if let Some(base) = self.memo[0][next.node().index()] {
                        // Frame-1 state = frame-0 next-state cone (shared).
                        self.memo[1][n.index()] = Some(apply(base, next));
                        self.stack.pop();
                    } else {
                        self.stack.push((0, next.node()));
                    }
                }
                AigNode::And(a, b) => {
                    let ma = self.memo[f][a.node().index()];
                    let mb = self.memo[f][b.node().index()];
                    if let (Some(ma), Some(mb)) = (ma, mb) {
                        let la = apply(ma, a);
                        let lb = apply(mb, b);
                        let v = Lit::pos(solver.new_var());
                        // v <-> la & lb
                        solver.add_clause(&[!v, la]);
                        solver.add_clause(&[!v, lb]);
                        solver.add_clause(&[v, !la, !lb]);
                        self.ands[f] += 1;
                        self.memo[f][n.index()] = Some(v);
                        self.stack.pop();
                    } else {
                        if ma.is_none() {
                            self.stack.push((f, a.node()));
                        }
                        if mb.is_none() {
                            self.stack.push((f, b.node()));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use pdat_sat::SolveResult;

    #[test]
    fn combinational_equivalence_via_sat() {
        // (a & b) is not equivalent to (a | b): SAT finds the witness.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        let h = g.or(a, b);
        let mut s = Solver::new();
        let enc = FrameEncoder::new(&g, &mut s);
        let frame = enc.encode_frame(&mut s, &[]);
        // Ask for f != h.
        let lf = frame.lit(f);
        let lh = frame.lit(h);
        let miter = Lit::pos(s.new_var());
        // miter <-> lf xor lh
        s.add_clause(&[!miter, lf, lh]);
        s.add_clause(&[!miter, !lf, !lh]);
        // Only need one direction for the check: assume miter and f!=h clauses.
        s.add_clause(&[miter, !lf, lh]);
        s.add_clause(&[miter, lf, !lh]);
        assert_eq!(s.solve_with(&[miter]), SolveResult::Sat);
    }

    #[test]
    fn constant_literal_is_pinned() {
        let mut g = Aig::new();
        let a = g.add_input();
        let f = g.and(a, AigLit::TRUE); // folds to a
        assert_eq!(f, a);
        let mut s = Solver::new();
        let enc = FrameEncoder::new(&g, &mut s);
        let frame = enc.encode_frame(&mut s, &[]);
        // FALSE literal must be unsatisfiable to assert.
        assert_eq!(s.solve_with(&[frame.lit(AigLit::FALSE)]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[frame.lit(AigLit::TRUE)]), SolveResult::Sat);
    }

    #[test]
    fn two_frame_unrolling_tracks_latch() {
        // Latch q with next = !q, init 0. After one step q must be 1.
        let mut g = Aig::new();
        let q = g.add_latch(false);
        g.set_latch_next(q, !q);
        let mut s = Solver::new();
        let enc = FrameEncoder::new(&g, &mut s);
        let f0 = enc.encode_frame(&mut s, &enc.initial_state());
        let f1 = enc.encode_frame(&mut s, &f0.next_state);
        // In frame 1, q == 1 must hold: asserting q==0 is unsat.
        assert_eq!(s.solve_with(&[!f1.lit(q)]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[f1.lit(q)]), SolveResult::Sat);
    }

    #[test]
    fn cone_encoder_agrees_with_frame_encoder_on_two_frames() {
        // q' = q ^ a; the cone encoder must give the same verdicts as the
        // eager two-frame unrolling for queries over both frames.
        let mut g = Aig::new();
        let a = g.add_input();
        let q = g.add_latch(false);
        let x = g.xor(q, a);
        g.set_latch_next(q, x);

        let mut s = Solver::new();
        let mut enc = ConeEncoder::new(&g, &mut s);
        let q0 = enc.lit(&mut s, 0, q);
        let q1 = enc.lit(&mut s, 1, q);
        let a0 = enc.lit(&mut s, 0, a);
        // With q0=0, a0=1 forced, frame-1 q must be 1.
        assert_eq!(s.solve_with(&[!q0, a0, !q1]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!q0, a0, q1]), SolveResult::Sat);
        // One free frame-0 state var was created for the latch.
        assert_eq!(enc.state_vars().len(), 1);
    }

    #[test]
    fn cone_encoder_skips_logic_outside_the_cone() {
        // Two independent output cones: requesting one must not encode the
        // other's AND gates.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let d = g.add_input();
        let small = g.and(a, b);
        let ac = g.and(a, c);
        let bd = g.and(b, d);
        let big = g.and(ac, bd);
        let mut s = Solver::new();
        let mut enc = ConeEncoder::new(&g, &mut s);
        let _ = enc.lit(&mut s, 0, small);
        assert_eq!(enc.cone_ands(0), 1);
        let _ = enc.lit(&mut s, 1, small);
        assert_eq!(enc.cone_ands(1), 1);
        // Now pull in the big cone: its three ANDs get added, the shared
        // `small` gate is not re-encoded.
        let _ = enc.lit(&mut s, 0, big);
        assert_eq!(enc.cone_ands(0), 4);
        let _ = enc.lit(&mut s, 0, small);
        assert_eq!(enc.cone_ands(0), 4);
    }

    #[test]
    fn cone_encoder_shares_next_state_cone_between_frames() {
        // Frame-1 latch literal resolves into the frame-0 cone of `next`;
        // asking for the next-state literal directly afterwards must not
        // add any gates.
        let mut g = Aig::new();
        let a = g.add_input();
        let q = g.add_latch(false);
        let nxt = g.and(q, a);
        g.set_latch_next(q, nxt);
        let mut s = Solver::new();
        let mut enc = ConeEncoder::new(&g, &mut s);
        let q1 = enc.lit(&mut s, 1, q);
        let ands_after_q1 = enc.cone_ands(0);
        assert_eq!(ands_after_q1, 1);
        let n0 = enc.lit(&mut s, 0, nxt);
        assert_eq!(enc.cone_ands(0), ands_after_q1);
        assert_eq!(q1, n0);
    }

    #[test]
    fn cone_encoder_constants_are_pinned() {
        let g = Aig::new();
        let mut s = Solver::new();
        let mut enc = ConeEncoder::new(&g, &mut s);
        let t = enc.lit(&mut s, 0, AigLit::TRUE);
        let f = enc.lit(&mut s, 1, AigLit::FALSE);
        assert_eq!(s.solve_with(&[t]), SolveResult::Sat);
        assert_eq!(s.solve_with(&[f]), SolveResult::Unsat);
    }

    #[test]
    fn frame_inputs_are_free() {
        let mut g = Aig::new();
        let a = g.add_input();
        let mut s = Solver::new();
        let enc = FrameEncoder::new(&g, &mut s);
        let f = enc.encode_frame(&mut s, &[]);
        assert_eq!(s.solve_with(&[f.lit(a)]), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!f.lit(a)]), SolveResult::Sat);
    }
}
