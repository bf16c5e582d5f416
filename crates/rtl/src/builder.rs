//! The elaborating builder: every method emits standard cells.

use crate::word::Word;
use pdat_netlist::{CellKind, NetId, Netlist};

/// Builds a [`Netlist`] from word-level operations.
///
/// Constants share one `TIE0`/`TIE1` cell each; everything else elaborates
/// structurally (ripple-carry adders, mux-tree register-file reads, barrel
/// shifters), the way a naive synthesis of behavioural RTL would — which is
/// exactly the kind of netlist PDAT consumes.
#[derive(Debug)]
pub struct RtlBuilder {
    nl: Netlist,
    zero: Option<NetId>,
    one: Option<NetId>,
}

impl RtlBuilder {
    /// Start a new design.
    pub fn new(name: impl Into<String>) -> RtlBuilder {
        RtlBuilder {
            nl: Netlist::new(name),
            zero: None,
            one: None,
        }
    }

    /// Finish and return the netlist.
    pub fn finish(self) -> Netlist {
        self.nl
    }

    /// Read access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The constant-0 net (single shared tie cell).
    pub fn zero(&mut self) -> NetId {
        if let Some(z) = self.zero {
            return z;
        }
        let z = self.nl.add_cell(CellKind::Tie0, &[], "const0");
        self.zero = Some(z);
        z
    }

    /// The constant-1 net.
    pub fn one(&mut self) -> NetId {
        if let Some(o) = self.one {
            return o;
        }
        let o = self.nl.add_cell(CellKind::Tie1, &[], "const1");
        self.one = Some(o);
        o
    }

    /// A `width`-bit constant word (bits beyond 63 are zero).
    pub fn constant(&mut self, value: u64, width: usize) -> Word {
        (0..width)
            .map(|i| {
                if i < 64 && value >> i & 1 == 1 {
                    self.one()
                } else {
                    self.zero()
                }
            })
            .collect()
    }

    /// A `width`-bit primary input (`name[i]` per bit).
    pub fn input_word(&mut self, name: &str, width: usize) -> Word {
        (0..width)
            .map(|i| self.nl.add_input(format!("{name}[{i}]")))
            .collect()
    }

    /// Expose a word as primary outputs (`name[i]` per bit).
    pub fn output_word(&mut self, name: &str, w: &Word) {
        for (i, &b) in w.bits().iter().enumerate() {
            self.nl.add_output(format!("{name}[{i}]"), b);
        }
    }

    /// Expose a single bit as a primary output.
    pub fn output_bit(&mut self, name: &str, b: NetId) {
        self.nl.add_output(name, b);
    }

    // --- bit-level primitives ---

    /// NOT.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.nl.add_cell(CellKind::Inv, &[a], "n")
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.nl.add_cell(CellKind::And2, &[a, b], "a")
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.nl.add_cell(CellKind::Or2, &[a, b], "o")
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.nl.add_cell(CellKind::Xor2, &[a, b], "x")
    }

    /// 2:1 mux: `s ? t : e`.
    pub fn mux(&mut self, s: NetId, t: NetId, e: NetId) -> NetId {
        self.nl.add_cell(CellKind::Mux2, &[e, t, s], "m")
    }

    /// Majority of three (adder carry).
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.nl.add_cell(CellKind::Maj3, &[a, b, c], "mj")
    }

    /// N-ary AND (balanced tree of AND2).
    pub fn and_many(&mut self, bits: &[NetId]) -> NetId {
        match bits {
            [] => self.one(),
            [b] => *b,
            _ => {
                let mid = bits.len() / 2;
                let l = self.and_many(&bits[..mid]);
                let r = self.and_many(&bits[mid..]);
                self.and2(l, r)
            }
        }
    }

    /// N-ary OR.
    pub fn or_many(&mut self, bits: &[NetId]) -> NetId {
        match bits {
            [] => self.zero(),
            [b] => *b,
            _ => {
                let mid = bits.len() / 2;
                let l = self.or_many(&bits[..mid]);
                let r = self.or_many(&bits[mid..]);
                self.or2(l, r)
            }
        }
    }

    /// A D flip-flop.
    pub fn dff(&mut self, d: NetId, init: bool, name: &str) -> NetId {
        self.nl.add_dff(d, init, name)
    }

    // --- word-level operations ---

    /// Bitwise NOT.
    pub fn not_word(&mut self, a: &Word) -> Word {
        a.bits().iter().map(|&b| self.not(b)).collect()
    }

    /// Bitwise AND.
    pub fn and_word(&mut self, a: &Word, b: &Word) -> Word {
        zip_check(a, b);
        a.bits()
            .iter()
            .zip(b.bits())
            .map(|(&x, &y)| self.and2(x, y))
            .collect()
    }

    /// Bitwise OR.
    pub fn or_word(&mut self, a: &Word, b: &Word) -> Word {
        zip_check(a, b);
        a.bits()
            .iter()
            .zip(b.bits())
            .map(|(&x, &y)| self.or2(x, y))
            .collect()
    }

    /// Bitwise XOR.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        zip_check(a, b);
        a.bits()
            .iter()
            .zip(b.bits())
            .map(|(&x, &y)| self.xor2(x, y))
            .collect()
    }

    /// Per-bit 2:1 mux: `s ? t : e`.
    pub fn mux_word(&mut self, s: NetId, t: &Word, e: &Word) -> Word {
        zip_check(t, e);
        t.bits()
            .iter()
            .zip(e.bits())
            .map(|(&x, &y)| self.mux(s, x, y))
            .collect()
    }

    /// Ripple-carry addition (wrapping).
    pub fn add(&mut self, a: &Word, b: &Word) -> Word {
        self.add_with_carry(a, b, None).0
    }

    /// Addition with explicit carry-in; returns `(sum, carry_out)`.
    pub fn add_with_carry(&mut self, a: &Word, b: &Word, cin: Option<NetId>) -> (Word, NetId) {
        zip_check(a, b);
        let mut carry = cin.unwrap_or_else(|| self.zero());
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits().iter().zip(b.bits()) {
            let xy = self.xor2(x, y);
            let s = self.xor2(xy, carry);
            let c = self.maj3(x, y, carry);
            bits.push(s);
            carry = c;
        }
        (Word::from_bits(bits), carry)
    }

    /// Wrapping subtraction `a - b`.
    pub fn sub(&mut self, a: &Word, b: &Word) -> Word {
        self.sub_with_borrow(a, b).0
    }

    /// Subtraction via two's complement; also returns the carry-out of the
    /// adder (`1` when no borrow, i.e. `a >= b` unsigned).
    pub fn sub_with_borrow(&mut self, a: &Word, b: &Word) -> (Word, NetId) {
        let nb = self.not_word(b);
        let one = self.one();
        self.add_with_carry(a, &nb, Some(one))
    }

    /// Equality of two words.
    pub fn eq(&mut self, a: &Word, b: &Word) -> NetId {
        let x = self.xor_word(a, b);
        let any = self.or_many(x.bits());
        self.not(any)
    }

    /// Is the word all-zero?
    pub fn is_zero(&mut self, a: &Word) -> NetId {
        let any = self.or_many(a.bits());
        self.not(any)
    }

    /// Unsigned less-than.
    pub fn lt_unsigned(&mut self, a: &Word, b: &Word) -> NetId {
        let (_, carry) = self.sub_with_borrow(a, b);
        self.not(carry)
    }

    /// Signed less-than.
    pub fn lt_signed(&mut self, a: &Word, b: &Word) -> NetId {
        let ltu = self.lt_unsigned(a, b);
        let diff_sign = self.xor2(a.msb(), b.msb());
        // If signs differ, a < b iff a is negative; else unsigned compare.
        self.mux(diff_sign, a.msb(), ltu)
    }

    /// Left shift by a variable amount (barrel shifter).
    pub fn shl(&mut self, a: &Word, amount: &Word) -> Word {
        let mut cur = a.clone();
        for (stage, &s) in amount.bits().iter().enumerate() {
            let k = 1usize << stage;
            let z = self.zero();
            let shifted: Word = (0..cur.width())
                .map(|i| if i >= k { cur.bit(i - k) } else { z })
                .collect();
            cur = self.mux_word(s, &shifted, &cur);
        }
        cur
    }

    /// Logical right shift by a variable amount.
    pub fn shr(&mut self, a: &Word, amount: &Word) -> Word {
        let z = self.zero();
        self.shift_right_fill(a, amount, z)
    }

    /// Arithmetic right shift by a variable amount.
    pub fn sar(&mut self, a: &Word, amount: &Word) -> Word {
        let fill = a.msb();
        self.shift_right_fill(a, amount, fill)
    }

    fn shift_right_fill(&mut self, a: &Word, amount: &Word, fill: NetId) -> Word {
        let mut cur = a.clone();
        for (stage, &s) in amount.bits().iter().enumerate() {
            let k = 1usize << stage;
            let shifted: Word = (0..cur.width())
                .map(|i| {
                    if i + k < cur.width() {
                        cur.bit(i + k)
                    } else {
                        fill
                    }
                })
                .collect();
            cur = self.mux_word(s, &shifted, &cur);
        }
        cur
    }

    /// Full-precision array multiplier: returns a `2n`-bit product.
    pub fn mul_full(&mut self, a: &Word, b: &Word) -> Word {
        zip_check(a, b);
        let n = a.width();
        let zero = self.zero();
        let mut acc: Word = (0..2 * n).map(|_| zero).collect();
        for (j, &bj) in b.bits().iter().enumerate() {
            // Partial product: (a & bj) << j, widened to 2n.
            let pp: Word = (0..2 * n)
                .map(|i| {
                    if i >= j && i - j < n {
                        // gate created lazily below
                        a.bit(i - j)
                    } else {
                        zero
                    }
                })
                .collect();
            let gated: Word = pp
                .bits()
                .iter()
                .map(|&x| if x == zero { zero } else { self.and2(x, bj) })
                .collect();
            acc = self.add(&acc, &gated);
        }
        acc
    }

    /// Restoring-array unsigned divider: returns `(quotient, remainder)`.
    ///
    /// The result for division by zero follows RISC-V: quotient all-ones,
    /// remainder = dividend.
    pub fn divrem_unsigned(&mut self, a: &Word, b: &Word) -> (Word, Word) {
        zip_check(a, b);
        let n = a.width();
        let zero = self.zero();
        // Working remainder, one bit wider to hold the compare.
        let mut rem: Word = (0..n).map(|_| zero).collect();
        let mut qbits = vec![zero; n];
        for i in (0..n).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted: Vec<NetId> = Vec::with_capacity(n);
            shifted.push(a.bit(i));
            shifted.extend_from_slice(&rem.bits()[..n - 1]);
            let shifted = Word::from_bits(shifted);
            // Compare/subtract.
            let (diff, no_borrow) = self.sub_with_borrow(&shifted, b);
            qbits[i] = no_borrow;
            rem = self.mux_word(no_borrow, &diff, &shifted);
        }
        let q = Word::from_bits(qbits);
        // Divide-by-zero fixup: q = all ones, rem = a.
        let bz = self.is_zero(b);
        let ones: Word = (0..n).map(|_| self.one()).collect();
        let q = self.mux_word(bz, &ones, &q);
        let rem = self.mux_word(bz, a, &rem);
        (q, rem)
    }

    /// `(a & mask) == value` over constant mask/value.
    pub fn match_pattern(&mut self, a: &Word, mask: u64, value: u64) -> NetId {
        let mut terms = Vec::new();
        for (i, &bit) in a.bits().iter().enumerate() {
            if mask >> i & 1 == 1 {
                if value >> i & 1 == 1 {
                    terms.push(bit);
                } else {
                    terms.push(self.not(bit));
                }
            }
        }
        self.and_many(&terms)
    }

    /// Sign- or zero-extend to `width`.
    pub fn extend(&mut self, a: &Word, width: usize, signed: bool) -> Word {
        assert!(width >= a.width());
        let fill = if signed { a.msb() } else { self.zero() };
        let mut bits = a.bits().to_vec();
        bits.resize(width, fill);
        Word::from_bits(bits)
    }

    /// A register (one DFF per bit) with synchronous enable.
    ///
    /// When `en` is low the register holds its value.
    pub fn reg_en(&mut self, d: &Word, en: NetId, init: u64, name: &str) -> Word {
        // Build with a feedback alias: q first as placeholder nets.
        let mut qbits = Vec::with_capacity(d.width());
        for (i, &db) in d.bits().iter().enumerate() {
            let fb = self.nl.add_net(format!("{name}_fb{i}"));
            let next = self.mux(en, db, fb);
            let bit = i < 64 && init >> i & 1 == 1;
            let q = self.nl.add_dff(next, bit, format!("{name}[{i}]"));
            self.nl.assign_alias(fb, q);
            qbits.push(q);
        }
        Word::from_bits(qbits)
    }

    /// A register without enable (captures every cycle).
    pub fn reg(&mut self, d: &Word, init: u64, name: &str) -> Word {
        d.bits()
            .iter()
            .enumerate()
            .map(|(i, &db)| {
                let bit = i < 64 && init >> i & 1 == 1;
                self.nl.add_dff(db, bit, format!("{name}[{i}]"))
            })
            .collect()
    }

    /// A register file: `count` registers of `width` bits with one write
    /// port. Returns the register words for reading via
    /// [`RtlBuilder::regfile_read`].
    ///
    /// Register 0 is writable here; RISC-V cores gate writes to x0 at the
    /// decoder level (or pass a doctored `wen`).
    pub fn regfile(
        &mut self,
        count: usize,
        width: usize,
        waddr: &Word,
        wdata: &Word,
        wen: NetId,
    ) -> Vec<Word> {
        assert_eq!(wdata.width(), width);
        (0..count)
            .map(|r| {
                let hit = self.decode_index(waddr, r);
                let we = self.and2(hit, wen);
                self.reg_en(wdata, we, 0, &format!("rf{r}"))
            })
            .collect()
    }

    /// Mux-tree read port over a register array.
    pub fn regfile_read(&mut self, regs: &[Word], raddr: &Word) -> Word {
        self.mux_tree(regs, raddr, 0)
    }

    fn mux_tree(&mut self, items: &[Word], addr: &Word, level: usize) -> Word {
        if items.len() == 1 {
            return items[0].clone();
        }
        let half = items.len().div_ceil(2);
        // Select on the *top* address bit of this level span.
        let bit = addr.bit(addr.width() - 1 - level);
        let lo = self.mux_tree(&items[..half], addr, level + 1);
        if items.len() <= half {
            return lo;
        }
        let hi = self.mux_tree(&items[half..], addr, level + 1);
        self.mux_word(bit, &hi, &lo)
    }

    /// Allocate a bare, undriven net for forward references; connect it
    /// later with [`RtlBuilder::bind_bit`] or [`RtlBuilder::bind`].
    pub fn raw_net(&mut self, name: &str) -> NetId {
        self.nl.add_net(name)
    }

    /// A named buffer — used to give a cuttable, stable name to a signal
    /// (e.g. the fetch-decode pipeline register inputs, the paper's
    /// cutpoint location).
    pub fn named_buf(&mut self, src: NetId, name: &str) -> NetId {
        self.nl.add_cell(pdat_netlist::CellKind::Buf, &[src], name)
    }

    /// Resolve a forward-reference net to its actual driver.
    pub fn bind_bit(&mut self, fwd: NetId, actual: NetId) {
        self.nl.assign_alias(fwd, actual);
    }

    /// Resolve a forward-reference word.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn bind(&mut self, fwd: &Word, actual: &Word) {
        assert_eq!(fwd.width(), actual.width(), "bind width mismatch");
        for (&f, &a) in fwd.bits().iter().zip(actual.bits()) {
            self.nl.assign_alias(f, a);
        }
    }

    /// One-hot decode: `addr == idx`.
    pub fn decode_index(&mut self, addr: &Word, idx: usize) -> NetId {
        let mut terms = Vec::with_capacity(addr.width());
        for (i, &bit) in addr.bits().iter().enumerate() {
            if idx >> i & 1 == 1 {
                terms.push(bit);
            } else {
                terms.push(self.not(bit));
            }
        }
        self.and_many(&terms)
    }
}

fn zip_check(a: &Word, b: &Word) {
    assert_eq!(a.width(), b.width(), "word width mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_share_tie_cells() {
        let mut b = RtlBuilder::new("t");
        let c1 = b.constant(0b1010, 4);
        let c2 = b.constant(0b0101, 4);
        assert_eq!(c1.bit(1), c2.bit(0));
        assert_eq!(b.netlist().num_cells(), 2, "one TIE0 + one TIE1");
    }

    #[test]
    fn extend_widths() {
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", 4);
        let z = b.extend(&a, 8, false);
        let s = b.extend(&a, 8, true);
        assert_eq!(z.width(), 8);
        assert_eq!(s.width(), 8);
        assert_eq!(s.bit(7), a.bit(3), "sign fill reuses msb net");
    }

    #[test]
    fn decode_index_shape() {
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", 3);
        let d0 = b.decode_index(&a, 0);
        let d7 = b.decode_index(&a, 7);
        assert_ne!(d0, d7);
    }
}
