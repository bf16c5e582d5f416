//! Bit-parallel simulation of sequential AIGs.
//!
//! Each `u64` word carries 64 independent simulation runs; one forward pass
//! evaluates all AND nodes, and [`AigSimulator::step`] clocks every latch in
//! all runs at once. This is the workhorse behind PDAT's candidate-invariant
//! falsification stage.
//!
//! Both simulators compile the AIG into a flat evaluation schedule at
//! construction time: input/latch node indices for the splat phase, a packed
//! `(out, lit_a, lit_b)` array for the AND phase, and the next-state literal
//! codes for the clock edge. Nodes are created in topological order (every
//! AND references lower-indexed nodes), so the schedule is a single linear
//! sweep with no per-node dispatch, and complements resolve branch-free via
//! `word ^ (code & 1).wrapping_neg()`. The borrow of the [`Aig`] guarantees
//! the graph cannot change while a schedule exists.
//!
//! [`AigSimulator`] carries one word per node. [`AigSimulatorWide`] carries
//! [`SIM_WIDTH`] words per node — [`SIM_WIDTH`]` * 64` lanes per pass —
//! which amortizes the schedule stream over the words and lets the word
//! operations vectorize; each word position is a fully independent
//! trajectory (own state, own reset), bit-identical to running it alone in
//! an [`AigSimulator`].

use crate::aig::{Aig, AigLit, AigNode};

/// Words per node in [`AigSimulatorWide`] (64 lanes each).
pub const SIM_WIDTH: usize = 4;

/// Branch-free value of literal `code` given the positive-polarity words.
#[inline(always)]
fn lit_value(values: &[u64], code: u32) -> u64 {
    values[(code >> 1) as usize] ^ ((code & 1) as u64).wrapping_neg()
}

/// Branch-free wide value of literal `code`.
#[inline(always)]
fn lit_value_wide(values: &[[u64; SIM_WIDTH]], code: u32) -> [u64; SIM_WIDTH] {
    let v = values[(code >> 1) as usize];
    let m = ((code & 1) as u64).wrapping_neg();
    let mut out = [0u64; SIM_WIDTH];
    let mut w = 0;
    while w < SIM_WIDTH {
        out[w] = v[w] ^ m;
        w += 1;
    }
    out
}

/// One AND sweep over the wide value words. `#[inline(always)]` so the
/// AVX2 wrapper below recompiles the same loop with wider vectors — the
/// operations are pure bitwise logic, so both paths are bit-identical.
#[inline(always)]
fn sweep_ands_wide(values: &mut [[u64; SIM_WIDTH]], ands: &[(u32, u32, u32)]) {
    for &(out, a, b) in ands {
        let va = lit_value_wide(values, a);
        let vb = lit_value_wide(values, b);
        let mut o = [0u64; SIM_WIDTH];
        let mut w = 0;
        while w < SIM_WIDTH {
            o[w] = va[w] & vb[w];
            w += 1;
        }
        values[out as usize] = o;
    }
}

/// AVX2 instantiation of the sweep (the default x86-64 target only assumes
/// SSE2, which splits each wide word pair into two ops).
///
/// # Safety
///
/// Caller must have verified AVX2 support (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_ands_wide_avx2(values: &mut [[u64; SIM_WIDTH]], ands: &[(u32, u32, u32)]) {
    sweep_ands_wide(values, ands)
}

/// Flat evaluation schedule compiled from an [`Aig`].
#[derive(Debug, Clone)]
struct Schedule {
    /// Node index per input, in `aig.inputs()` order.
    input_nodes: Vec<u32>,
    /// Node index per latch, in `aig.latches()` order.
    latch_nodes: Vec<u32>,
    /// Reset word per latch.
    latch_init: Vec<u64>,
    /// Next-state literal code per latch.
    latch_next: Vec<u32>,
    /// AND schedule: `(out_node, lit_a_code, lit_b_code)` in topological order.
    ands: Vec<(u32, u32, u32)>,
}

impl Schedule {
    fn compile(aig: &Aig) -> Schedule {
        let input_nodes: Vec<u32> = aig.inputs().iter().map(|&id| id.0).collect();
        let latch_nodes: Vec<u32> = aig.latches().iter().map(|&id| id.0).collect();
        let mut latch_init = Vec::with_capacity(latch_nodes.len());
        let mut latch_next = Vec::with_capacity(latch_nodes.len());
        for &l in aig.latches() {
            match aig.node(l) {
                AigNode::Latch { init, next } => {
                    latch_init.push(if init { u64::MAX } else { 0 });
                    latch_next.push(next.code());
                }
                _ => unreachable!(),
            }
        }
        let mut ands = Vec::with_capacity(aig.num_ands());
        for i in 0..aig.num_nodes() {
            if let AigNode::And(a, b) = aig.node(crate::aig::AigNodeId(i as u32)) {
                ands.push((i as u32, a.code(), b.code()));
            }
        }
        Schedule {
            input_nodes,
            latch_nodes,
            latch_init,
            latch_next,
            ands,
        }
    }
}

/// Bit-parallel simulator over an [`Aig`].
#[derive(Debug, Clone)]
pub struct AigSimulator<'a> {
    aig: &'a Aig,
    sched: Schedule,
    /// Value word per node (positive polarity).
    values: Vec<u64>,
    /// State word per latch (indexed like `aig.latches()`).
    state: Vec<u64>,
    /// Persistent buffer for [`AigSimulator::step`] (swapped with `state`).
    next_buf: Vec<u64>,
}

impl<'a> AigSimulator<'a> {
    /// Create a simulator with all latches at their reset values (replicated
    /// across all 64 lanes), compiling the evaluation schedule.
    pub fn new(aig: &'a Aig) -> AigSimulator<'a> {
        let sched = Schedule::compile(aig);
        let state = sched.latch_init.clone();
        let next_buf = vec![0; sched.latch_nodes.len()];
        AigSimulator {
            aig,
            values: vec![0; aig.num_nodes()],
            state,
            sched,
            next_buf,
        }
    }

    /// Reset all lanes to the latch init values.
    pub fn reset(&mut self) {
        self.state.copy_from_slice(&self.sched.latch_init);
    }

    /// Evaluate the combinational logic for the given input words
    /// (`inputs[i]` drives `aig.inputs()[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != aig.inputs().len()`.
    pub fn eval(&mut self, inputs: &[u64]) {
        assert_eq!(inputs.len(), self.sched.input_nodes.len(), "input arity");
        let values = &mut self.values;
        for (&node, &w) in self.sched.input_nodes.iter().zip(inputs) {
            values[node as usize] = w;
        }
        for (&node, &w) in self.sched.latch_nodes.iter().zip(&self.state) {
            values[node as usize] = w;
        }
        for &(out, a, b) in &self.sched.ands {
            values[out as usize] = lit_value(values, a) & lit_value(values, b);
        }
    }

    /// Word value of a literal after the last [`AigSimulator::eval`].
    #[inline]
    pub fn lit_word(&self, l: AigLit) -> u64 {
        lit_value(&self.values, l.code())
    }

    /// Clock edge: latch all next-state functions (uses the values from the
    /// last `eval`). Allocation-free: writes into a persistent buffer and
    /// swaps it with the state words.
    pub fn step(&mut self) {
        let values = &self.values;
        for (dst, &code) in self.next_buf.iter_mut().zip(&self.sched.latch_next) {
            *dst = lit_value(values, code);
        }
        std::mem::swap(&mut self.state, &mut self.next_buf);
    }

    /// Direct access to latch state words (indexed like `aig.latches()`).
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// The simulated graph.
    pub fn aig(&self) -> &'a Aig {
        self.aig
    }
}

/// [`SIM_WIDTH`]-word bit-parallel simulator: evaluates `SIM_WIDTH`
/// independent 64-lane trajectories in one schedule sweep.
///
/// Word position `w` of every node/state array is one self-contained
/// trajectory; [`AigSimulatorWide::reset_word`] resets it alone. Running a
/// trajectory in word `w` here is bit-identical to running it in a scalar
/// [`AigSimulator`] — the width only changes throughput, never values.
#[derive(Debug, Clone)]
pub struct AigSimulatorWide<'a> {
    aig: &'a Aig,
    sched: Schedule,
    values: Vec<[u64; SIM_WIDTH]>,
    state: Vec<[u64; SIM_WIDTH]>,
    next_buf: Vec<[u64; SIM_WIDTH]>,
    /// Host supports AVX2 (checked once; both sweep paths are bit-identical).
    use_avx2: bool,
}

impl<'a> AigSimulatorWide<'a> {
    /// Create a wide simulator with all latches at their reset values in
    /// every word.
    pub fn new(aig: &'a Aig) -> AigSimulatorWide<'a> {
        let sched = Schedule::compile(aig);
        let state: Vec<[u64; SIM_WIDTH]> =
            sched.latch_init.iter().map(|&i| [i; SIM_WIDTH]).collect();
        let next_buf = vec![[0u64; SIM_WIDTH]; sched.latch_nodes.len()];
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx2 = false;
        AigSimulatorWide {
            aig,
            values: vec![[0u64; SIM_WIDTH]; aig.num_nodes()],
            state,
            sched,
            next_buf,
            use_avx2,
        }
    }

    /// Reset every trajectory to the latch init values.
    pub fn reset(&mut self) {
        for (s, &i) in self.state.iter_mut().zip(&self.sched.latch_init) {
            *s = [i; SIM_WIDTH];
        }
    }

    /// Reset only trajectory `w` to the latch init values.
    pub fn reset_word(&mut self, w: usize) {
        for (s, &i) in self.state.iter_mut().zip(&self.sched.latch_init) {
            s[w] = i;
        }
    }

    /// Evaluate the combinational logic; `inputs[i][w]` drives
    /// `aig.inputs()[i]` in trajectory `w`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != aig.inputs().len()`.
    pub fn eval(&mut self, inputs: &[[u64; SIM_WIDTH]]) {
        assert_eq!(inputs.len(), self.sched.input_nodes.len(), "input arity");
        let values = &mut self.values;
        for (&node, &w) in self.sched.input_nodes.iter().zip(inputs) {
            values[node as usize] = w;
        }
        for (&node, &w) in self.sched.latch_nodes.iter().zip(&self.state) {
            values[node as usize] = w;
        }
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: `use_avx2` was set from `is_x86_feature_detected!`.
            unsafe { sweep_ands_wide_avx2(values, &self.sched.ands) };
            return;
        }
        let _ = self.use_avx2;
        sweep_ands_wide(values, &self.sched.ands);
    }

    /// Wide word value of a literal after the last eval.
    #[inline]
    pub fn lit_words(&self, l: AigLit) -> [u64; SIM_WIDTH] {
        lit_value_wide(&self.values, l.code())
    }

    /// Clock edge for all trajectories at once. Allocation-free.
    pub fn step(&mut self) {
        let values = &self.values;
        for (dst, &code) in self.next_buf.iter_mut().zip(&self.sched.latch_next) {
            *dst = lit_value_wide(values, code);
        }
        std::mem::swap(&mut self.state, &mut self.next_buf);
    }

    /// The simulated graph.
    pub fn aig(&self) -> &'a Aig {
        self.aig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    #[test]
    fn and_or_xor_words() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        let mut sim = AigSimulator::new(&g);
        let wa = 0b1100;
        let wb = 0b1010;
        sim.eval(&[wa, wb]);
        assert_eq!(sim.lit_word(and) & 0xF, 0b1000);
        assert_eq!(sim.lit_word(or) & 0xF, 0b1110);
        assert_eq!(sim.lit_word(xor) & 0xF, 0b0110);
        assert_eq!(sim.lit_word(!and) & 0xF, 0b0111);
    }

    #[test]
    fn latch_toggler() {
        let mut g = Aig::new();
        let q = g.add_latch(false);
        g.set_latch_next(q, !q);
        let mut sim = AigSimulator::new(&g);
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q), 0);
        sim.step();
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q), u64::MAX);
        sim.step();
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q), 0);
    }

    #[test]
    fn init_one_latch() {
        let mut g = Aig::new();
        let q = g.add_latch(true);
        g.set_latch_next(q, q);
        let mut sim = AigSimulator::new(&g);
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q), u64::MAX);
        sim.step();
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q), u64::MAX);
    }

    #[test]
    fn reset_restores_init_words() {
        let mut g = Aig::new();
        let q0 = g.add_latch(false);
        let q1 = g.add_latch(true);
        g.set_latch_next(q0, !q0);
        g.set_latch_next(q1, !q1);
        let mut sim = AigSimulator::new(&g);
        sim.eval(&[]);
        sim.step();
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q0), u64::MAX);
        assert_eq!(sim.lit_word(q1), 0);
        sim.reset();
        sim.eval(&[]);
        assert_eq!(sim.lit_word(q0), 0);
        assert_eq!(sim.lit_word(q1), u64::MAX);
    }

    #[test]
    fn deep_and_chain_matches_scalar_reference() {
        // Cross-check the flat schedule against a per-node scalar
        // evaluation on a mixed combinational/sequential graph.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let q = g.add_latch(false);
        let t1 = g.xor(a, b);
        let t2 = g.mux(c, t1, !a);
        let t3 = g.or(t2, q);
        let nxt = g.and(t3, !b);
        g.set_latch_next(q, nxt);
        let mut sim = AigSimulator::new(&g);
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_F0F0_5555_AAAA, !0u64 / 3];
        let mut q_ref = 0u64;
        for cycle in 0..8 {
            let w = [
                words[0].rotate_left(cycle),
                words[1].rotate_right(cycle),
                words[2] ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ];
            sim.eval(&w);
            let t1_ref = w[0] ^ w[1];
            let t2_ref = (w[2] & t1_ref) | (!w[2] & !w[0]);
            let t3_ref = t2_ref | q_ref;
            assert_eq!(sim.lit_word(t3), t3_ref, "cycle {cycle}");
            sim.step();
            q_ref = t3_ref & !w[1];
        }
    }

    #[test]
    fn wide_words_match_scalar_trajectories() {
        // Each word of the wide simulator must evolve exactly like a scalar
        // simulator fed that word's inputs, including per-word resets.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let q = g.add_latch(true);
        let t = g.xor(a, q);
        let nxt = g.and(t, !b);
        g.set_latch_next(q, nxt);
        let probe = g.or(t, b);

        let mut wide = AigSimulatorWide::new(&g);
        let mut scalars: Vec<AigSimulator> = (0..SIM_WIDTH).map(|_| AigSimulator::new(&g)).collect();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            // Small xorshift so the test owns its stimulus.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for cycle in 0..12 {
            let mut inputs = [[0u64; SIM_WIDTH]; 2];
            for input in inputs.iter_mut() {
                for word in input.iter_mut() {
                    *word = next();
                }
            }
            wide.eval(&inputs);
            let got = wide.lit_words(probe);
            for w in 0..SIM_WIDTH {
                scalars[w].eval(&[inputs[0][w], inputs[1][w]]);
                assert_eq!(got[w], scalars[w].lit_word(probe), "cycle {cycle} word {w}");
            }
            // Reset a rotating word mid-run to exercise reset_word.
            if cycle == 5 {
                wide.reset_word(2);
                scalars[2].reset();
            }
            wide.step();
            for s in &mut scalars {
                s.step();
            }
        }
    }
}
