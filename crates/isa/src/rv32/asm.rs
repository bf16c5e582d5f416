//! A small label-aware RV32IMC assembler.
//!
//! Kernels in `pdat-workloads` are written against this API; the output is a
//! flat byte image executed by the instruction-set simulator and profiled
//! for Table I.

/// A forward- or backward-referenced code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum FixKind {
    /// B-type branch: patch a 32-bit word at `at` with target offset.
    Branch,
    /// J-type jump.
    Jal,
}

/// Program builder emitting a mixed 16/32-bit RV32IMC instruction stream.
///
/// # Example
///
/// ```
/// use pdat_isa::rv32::{addi, Assembler};
///
/// let mut a = Assembler::new();
/// let done = a.new_label();
/// a.emit(addi(10, 0, 3));             // x10 = 3
/// let lp = a.here();
/// a.emit(addi(10, 10, -1));           // x10 -= 1
/// a.beq(10, 0, done);
/// a.jump_back(lp);
/// a.bind(done);
/// let image = a.finish();
/// assert!(image.len() >= 16);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    bytes: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label, FixKind, u32, u32, u32)>, // (at, label, kind, rs1, rs2/rd, funct3)
}

impl Assembler {
    /// Start an empty program at address 0.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Current program counter (byte address).
    pub fn here(&self) -> usize {
        self.bytes.len()
    }

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current address.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.bytes.len());
    }

    /// Emit a 32-bit instruction.
    pub fn emit(&mut self, word: u32) {
        self.bytes.extend_from_slice(&word.to_le_bytes());
    }

    /// Emit a 16-bit compressed instruction.
    pub fn emit_c(&mut self, half: u16) {
        self.bytes.extend_from_slice(&half.to_le_bytes());
    }

    fn emit_fix(&mut self, label: Label, kind: FixKind, a: u32, b: u32, f3: u32) {
        let at = self.bytes.len();
        self.fixups.push((at, label, kind, a, b, f3));
        self.emit(0); // placeholder
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 0);
    }
    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 1);
    }
    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 4);
    }
    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 5);
    }
    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 6);
    }
    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: u32, rs2: u32, l: Label) {
        self.emit_fix(l, FixKind::Branch, rs1, rs2, 7);
    }
    /// `jal rd, label`.
    pub fn jal(&mut self, rd: u32, l: Label) {
        self.emit_fix(l, FixKind::Jal, rd, 0, 0);
    }

    /// Unconditional backwards jump to a raw address returned by
    /// [`Assembler::here`] (emitted as `jal x0`).
    pub fn jump_back(&mut self, target: usize) {
        let off = target as i64 - self.bytes.len() as i64;
        self.emit(super::encode::jal(0, off as i32));
    }

    /// Resolve all fixups and return the program image.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound or an offset is out of
    /// range for its encoding.
    pub fn finish(mut self) -> Vec<u8> {
        let fixups = std::mem::take(&mut self.fixups);
        for (at, label, kind, a, b, f3) in fixups {
            let target = self.labels[label.0].expect("unbound label");
            let off = target as i64 - at as i64;
            let word = match kind {
                FixKind::Branch => {
                    let enc = match f3 {
                        0 => super::encode::beq,
                        1 => super::encode::bne,
                        4 => super::encode::blt,
                        5 => super::encode::bge,
                        6 => super::encode::bltu,
                        _ => super::encode::bgeu,
                    };
                    enc(a, b, off as i32)
                }
                FixKind::Jal => super::encode::jal(a, off as i32),
            };
            self.bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv32::{decode, encode as e};

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        let end = a.new_label();
        a.emit(e::addi(1, 0, 10));
        let top = a.here();
        a.emit(e::addi(1, 1, -1));
        a.beq(1, 0, end);
        a.jump_back(top);
        a.bind(end);
        a.emit(e::addi(2, 0, 1));
        let img = a.finish();
        // Check the branch at byte 8 targets byte 16 (offset +8).
        let w = u32::from_le_bytes(img[8..12].try_into().unwrap());
        let d = decode(w).unwrap();
        assert_eq!(d.instr, crate::rv32::RvInstr::Beq);
        assert_eq!(d.imm, 8);
        // Check the jump at byte 12 targets byte 4 (offset -8).
        let w = u32::from_le_bytes(img[12..16].try_into().unwrap());
        let d = decode(w).unwrap();
        assert_eq!(d.instr, crate::rv32::RvInstr::Jal);
        assert_eq!(d.imm, -8);
    }

    #[test]
    fn jal_links_forward() {
        let mut a = Assembler::new();
        let func = a.new_label();
        a.jal(1, func);
        a.emit(e::addi(0, 0, 0));
        a.bind(func);
        a.emit(e::add(3, 3, 3));
        let img = a.finish();
        let w = u32::from_le_bytes(img[0..4].try_into().unwrap());
        let d = decode(w).unwrap();
        assert_eq!((d.instr, d.rd, d.imm), (crate::rv32::RvInstr::Jal, 1, 8));
    }

    #[test]
    fn compressed_instructions_shift_alignment() {
        let mut a = Assembler::new();
        a.emit_c(e::c_addi(5, 1));
        a.emit(e::addi(6, 0, 2));
        let img = a.finish();
        assert_eq!(img.len(), 6);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.beq(0, 0, l);
        let _ = a.finish();
    }
}
