//! Standard-cell kinds and the cell library (areas, pin counts, functions).
//!
//! The library is modeled on the NANGATE 45 nm open cell library used by the
//! paper's synthesis flow (Synopsys DC, `-ungroup_all`). Areas are the X1
//! drive-strength footprints in square micrometres; absolute values only
//! matter in so far as *relative* areas between variants are reported, which
//! is what the paper's figures show.

use std::fmt;

/// The kind of a cell instance in a [`crate::Netlist`].
///
/// Combinational kinds compute a boolean function of their input pins.
/// [`CellKind::Dff`] is the single sequential kind: a positive-edge D
/// flip-flop with a synchronous reset value carried by the instance (see
/// [`crate::Cell::init`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer: output = S ? B : A, pin order `[A, B, S]`.
    Mux2,
    /// AND-OR-invert: `!((A & B) | C)`, pin order `[A, B, C]`.
    Aoi21,
    /// OR-AND-invert: `!((A | B) & C)`, pin order `[A, B, C]`.
    Oai21,
    /// Majority-of-three (full-adder carry), pin order `[A, B, C]`.
    Maj3,
    /// Positive-edge D flip-flop, pin order `[D]`.
    Dff,
    /// Constant-0 tie cell (no input pins).
    Tie0,
    /// Constant-1 tie cell (no input pins).
    Tie1,
}

impl CellKind {
    /// All kinds, in a stable order (useful for iteration in tests/stats).
    pub const ALL: [CellKind; 23] = [
        CellKind::Buf,
        CellKind::Inv,
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Nor4,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Maj3,
        CellKind::Dff,
        CellKind::Tie0,
        CellKind::Tie1,
    ];

    /// Number of input pins this kind expects.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Buf | CellKind::Inv | CellKind::Dff => 1,
            CellKind::And2
            | CellKind::Nand2
            | CellKind::Or2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::And3
            | CellKind::Nand3
            | CellKind::Or3
            | CellKind::Nor3
            | CellKind::Mux2
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Maj3 => 3,
            CellKind::And4 | CellKind::Nand4 | CellKind::Or4 | CellKind::Nor4 => 4,
        }
    }

    /// True for the sequential kind ([`CellKind::Dff`]).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// True for tie cells (constant drivers with no inputs).
    pub fn is_tie(self) -> bool {
        matches!(self, CellKind::Tie0 | CellKind::Tie1)
    }

    /// Evaluate the combinational function on input pin values.
    ///
    /// For [`CellKind::Dff`] this returns the D input (the *next*-state
    /// value); sequential behaviour is the simulator's concern.
    ///
    /// # Panics
    ///
    /// Panics if `ins.len() != self.num_inputs()`.
    pub fn eval(self, ins: &[bool]) -> bool {
        assert_eq!(
            ins.len(),
            self.num_inputs(),
            "pin count mismatch for {self:?}"
        );
        match self {
            CellKind::Buf | CellKind::Dff => ins[0],
            CellKind::Inv => !ins[0],
            CellKind::And2 | CellKind::And3 | CellKind::And4 => ins.iter().all(|&b| b),
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !ins.iter().all(|&b| b),
            CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => ins.iter().any(|&b| b),
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => !ins.iter().any(|&b| b),
            CellKind::Xor2 => ins[0] ^ ins[1],
            CellKind::Xnor2 => !(ins[0] ^ ins[1]),
            CellKind::Mux2 => {
                if ins[2] {
                    ins[1]
                } else {
                    ins[0]
                }
            }
            CellKind::Aoi21 => !((ins[0] && ins[1]) || ins[2]),
            CellKind::Oai21 => !((ins[0] || ins[1]) && ins[2]),
            CellKind::Maj3 => {
                if ins[0] {
                    ins[1] || ins[2]
                } else {
                    ins[1] && ins[2]
                }
            }
            CellKind::Tie0 => false,
            CellKind::Tie1 => true,
        }
    }

    /// Word-parallel evaluation: each `u64` carries 64 independent samples.
    ///
    /// # Panics
    ///
    /// Panics if `ins.len() != self.num_inputs()`.
    pub fn eval_word(self, ins: &[u64]) -> u64 {
        assert_eq!(
            ins.len(),
            self.num_inputs(),
            "pin count mismatch for {self:?}"
        );
        match self {
            CellKind::Buf | CellKind::Dff => ins[0],
            CellKind::Inv => !ins[0],
            CellKind::And2 | CellKind::And3 | CellKind::And4 => {
                ins.iter().fold(u64::MAX, |a, &b| a & b)
            }
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
                !ins.iter().fold(u64::MAX, |a, &b| a & b)
            }
            CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => ins.iter().fold(0, |a, &b| a | b),
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => !ins.iter().fold(0, |a, &b| a | b),
            CellKind::Xor2 => ins[0] ^ ins[1],
            CellKind::Xnor2 => !(ins[0] ^ ins[1]),
            CellKind::Mux2 => (ins[1] & ins[2]) | (ins[0] & !ins[2]),
            CellKind::Aoi21 => !((ins[0] & ins[1]) | ins[2]),
            CellKind::Oai21 => !((ins[0] | ins[1]) & ins[2]),
            CellKind::Maj3 => (ins[0] & ins[1]) | (ins[0] & ins[2]) | (ins[1] & ins[2]),
            CellKind::Tie0 => 0,
            CellKind::Tie1 => u64::MAX,
        }
    }

    /// Library cell name (NANGATE-style, without drive suffix).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And2 => "AND2",
            CellKind::And3 => "AND3",
            CellKind::And4 => "AND4",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nand4 => "NAND4",
            CellKind::Or2 => "OR2",
            CellKind::Or3 => "OR3",
            CellKind::Or4 => "OR4",
            CellKind::Nor2 => "NOR2",
            CellKind::Nor3 => "NOR3",
            CellKind::Nor4 => "NOR4",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Maj3 => "MAJ3",
            CellKind::Dff => "DFF",
            CellKind::Tie0 => "TIE0",
            CellKind::Tie1 => "TIE1",
        }
    }

    /// Parse a library cell name produced by [`CellKind::name`].
    pub fn from_name(name: &str) -> Option<CellKind> {
        CellKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A standard-cell library: per-kind areas.
///
/// The default [`CELL_LIBRARY`] mirrors the NANGATE 45 nm X1 cells the paper
/// synthesizes to.
#[derive(Debug, Clone)]
pub struct CellLibrary {
    name: &'static str,
    areas: [f64; CellKind::ALL.len()],
}

impl CellLibrary {
    /// Library name (informational).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Area in square micrometres of one instance of `kind`.
    pub fn area(&self, kind: CellKind) -> f64 {
        self.areas[kind as usize]
    }
}

/// NANGATE-45-like standard cell library (X1 drive areas, um^2).
pub static CELL_LIBRARY: CellLibrary = CellLibrary {
    name: "nangate45-like",
    areas: [
        0.798, // BUF
        0.532, // INV
        1.064, // AND2
        1.330, // AND3
        1.596, // AND4
        0.798, // NAND2
        1.064, // NAND3
        1.330, // NAND4
        1.064, // OR2
        1.330, // OR3
        1.596, // OR4
        0.798, // NOR2
        1.064, // NOR3
        1.330, // NOR4
        1.596, // XOR2
        1.596, // XNOR2
        1.862, // MUX2
        1.064, // AOI21
        1.064, // OAI21
        1.596, // MAJ3
        4.522, // DFF
        0.266, // TIE0
        0.266, // TIE1
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts_match_eval_expectations() {
        for kind in CellKind::ALL {
            let n = kind.num_inputs();
            let ins = vec![false; n];
            // Must not panic.
            let _ = kind.eval(&ins);
            let insw = vec![0u64; n];
            let _ = kind.eval_word(&insw);
        }
    }

    #[test]
    fn eval_and_eval_word_agree_exhaustively() {
        for kind in CellKind::ALL {
            let n = kind.num_inputs();
            for pattern in 0u32..(1 << n) {
                let bits: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
                let words: Vec<u64> = bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
                let scalar = kind.eval(&bits);
                let word = kind.eval_word(&words);
                assert_eq!(
                    word,
                    if scalar { u64::MAX } else { 0 },
                    "{kind:?} pattern {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn gate_functions_spot_checks() {
        use CellKind::*;
        assert!(And2.eval(&[true, true]));
        assert!(!And2.eval(&[true, false]));
        assert!(Nand2.eval(&[true, false]));
        assert!(Or3.eval(&[false, false, true]));
        assert!(!Nor2.eval(&[false, true]));
        assert!(Xor2.eval(&[true, false]));
        assert!(Xnor2.eval(&[true, true]));
        assert!(Mux2.eval(&[false, true, true]), "S=1 selects B");
        assert!(!Mux2.eval(&[false, true, false]), "S=0 selects A");
        assert!(!Aoi21.eval(&[true, true, false]));
        assert!(Aoi21.eval(&[true, false, false]));
        assert!(!Oai21.eval(&[true, false, true]));
        assert!(Oai21.eval(&[false, false, true]));
        assert!(Maj3.eval(&[true, true, false]));
        assert!(!Maj3.eval(&[true, false, false]));
        assert!(!Tie0.eval(&[]));
        assert!(Tie1.eval(&[]));
    }

    #[test]
    fn name_round_trips() {
        for kind in CellKind::ALL {
            assert_eq!(CellKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CellKind::from_name("BOGUS"), None);
    }

    #[test]
    fn library_has_positive_areas() {
        for kind in CellKind::ALL {
            assert!(CELL_LIBRARY.area(kind) > 0.0, "{kind:?}");
        }
        // Sequential cells dominate combinational ones.
        assert!(CELL_LIBRARY.area(CellKind::Dff) > CELL_LIBRARY.area(CellKind::Mux2));
    }
}
