//! A word-level hardware-construction DSL that elaborates directly to
//! gate-level [`pdat_netlist::Netlist`]s.
//!
//! The paper's inputs are synthesized netlists of real cores (Ibex,
//! RIDECORE, Cortex-M0). This reproduction builds those cores from scratch;
//! `pdat-rtl` is the mini-HDL the core generators in `pdat-cores` are
//! written in: multi-bit [`Word`]s, adders, shifters, comparators, register
//! files, and pattern matchers, all elaborated straight into standard
//! cells.
//!
//! # Example
//!
//! ```
//! use pdat_rtl::RtlBuilder;
//!
//! let mut b = RtlBuilder::new("adder8");
//! let a = b.input_word("a", 8);
//! let c = b.input_word("b", 8);
//! let sum = b.add(&a, &c);
//! b.output_word("sum", &sum);
//! let nl = b.finish();
//! assert!(nl.gate_count() > 8);
//! nl.validate().unwrap();
//! ```

mod builder;
mod word;

pub use builder::RtlBuilder;
pub use word::Word;

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_netlist::Simulator;

    /// Drive a netlist's inputs from a word-value map and read an output.
    fn eval2(b: RtlBuilder, a_val: u64, b_val: u64, a_w: &Word, b_w: &Word, out: &Word) -> u64 {
        let nl = b.finish();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl);
        let mut assigns = Vec::new();
        for (i, &bit) in a_w.bits().iter().enumerate() {
            assigns.push((bit, a_val >> i & 1 == 1));
        }
        for (i, &bit) in b_w.bits().iter().enumerate() {
            assigns.push((bit, b_val >> i & 1 == 1));
        }
        sim.set_inputs(&assigns);
        let mut v = 0u64;
        for (i, &bit) in out.bits().iter().enumerate() {
            if sim.value(bit) {
                v |= 1 << i;
            }
        }
        v
    }

    #[test]
    fn adder_is_correct_on_samples() {
        for (x, y) in [(0u64, 0u64), (1, 1), (255, 1), (170, 85), (200, 100)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let sum = b.add(&a, &c);
            assert_eq!(eval2(b, x, y, &a, &c, &sum), (x + y) & 0xFF, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_is_correct_on_samples() {
        for (x, y) in [(0u64, 0u64), (5, 3), (3, 5), (255, 255), (128, 1)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let d = b.sub(&a, &c);
            assert_eq!(eval2(b, x, y, &a, &c, &d), x.wrapping_sub(y) & 0xFF);
        }
    }

    #[test]
    fn comparisons() {
        for (x, y) in [(3u64, 5u64), (5, 3), (7, 7), (0, 255), (255, 0)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let eq = b.eq(&a, &c);
            let lt = b.lt_unsigned(&a, &c);
            let out = Word::from_bits(vec![eq, lt]);
            let v = eval2(b, x, y, &a, &c, &out);
            assert_eq!(v & 1 == 1, x == y, "{x} == {y}");
            assert_eq!(v >> 1 & 1 == 1, x < y, "{x} < {y}");
        }
    }

    #[test]
    fn signed_compare() {
        for (x, y) in [(0xFFu64, 0x01u64), (0x01, 0xFF), (0x80, 0x7F), (0x7F, 0x80)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let lt = b.lt_signed(&a, &c);
            let out = Word::from_bits(vec![lt]);
            let sx = x as u8 as i8;
            let sy = y as u8 as i8;
            assert_eq!(eval2(b, x, y, &a, &c, &out) == 1, sx < sy, "{sx} <s {sy}");
        }
    }

    #[test]
    fn barrel_shifter_left() {
        for (x, sh) in [(0x01u64, 0u64), (0x01, 7), (0xAB, 4), (0xFF, 1)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let s = b.input_word("s", 3);
            let out = b.shl(&a, &s);
            assert_eq!(eval2(b, x, sh, &a, &s, &out), (x << sh) & 0xFF);
        }
    }

    #[test]
    fn barrel_shifter_right_logical_and_arith() {
        for (x, sh) in [(0x80u64, 3u64), (0xFF, 7), (0x40, 2)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let s = b.input_word("s", 3);
            let srl = b.shr(&a, &s);
            assert_eq!(eval2(b, x, sh, &a, &s, &srl), x >> sh);

            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let s = b.input_word("s", 3);
            let sra = b.sar(&a, &s);
            let expect = ((x as u8 as i8) >> sh) as u8 as u64;
            assert_eq!(eval2(b, x, sh, &a, &s, &sra), expect);
        }
    }

    #[test]
    fn multiplier_low_bits() {
        for (x, y) in [(3u64, 5u64), (15, 15), (12, 0), (255, 255)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let p = b.mul_full(&a, &c);
            assert_eq!(eval2(b, x, y, &a, &c, &p), (x * y) & 0xFFFF);
        }
    }

    #[test]
    fn divider_quotient_remainder() {
        for (x, y) in [(17u64, 5u64), (255, 1), (8, 8), (7, 9), (100, 10)] {
            let mut b = RtlBuilder::new("t");
            let a = b.input_word("a", 8);
            let c = b.input_word("b", 8);
            let (q, r) = b.divrem_unsigned(&a, &c);
            let mut both = q.bits().to_vec();
            both.extend_from_slice(r.bits());
            let out = Word::from_bits(both);
            let v = eval2(b, x, y, &a, &c, &out);
            assert_eq!(v & 0xFF, x / y, "{x}/{y}");
            assert_eq!(v >> 8 & 0xFF, x % y, "{x}%{y}");
        }
    }

    #[test]
    fn pattern_matcher() {
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", 8);
        let hit = b.match_pattern(&a, 0xF0, 0xA0);
        let c = b.input_word("b", 1);
        let out = Word::from_bits(vec![hit]);
        // 0xA7 & 0xF0 == 0xA0 -> hit; 0xB7 -> miss.
        assert_eq!(eval2(b, 0xA7, 0, &a, &c, &out), 1);
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", 8);
        let hit = b.match_pattern(&a, 0xF0, 0xA0);
        let c = b.input_word("b", 1);
        let out = Word::from_bits(vec![hit]);
        assert_eq!(eval2(b, 0xB7, 0, &a, &c, &out), 0);
    }

    #[test]
    fn register_file_write_then_read() {
        use pdat_netlist::Simulator;
        let mut b = RtlBuilder::new("rf");
        let waddr = b.input_word("waddr", 2);
        let wdata = b.input_word("wdata", 4);
        let wen = b.input_word("wen", 1);
        let raddr = b.input_word("raddr", 2);
        let rf = b.regfile(4, 4, &waddr, &wdata, wen.bits()[0]);
        let rdata = b.regfile_read(&rf, &raddr);
        b.output_word("rdata", &rdata);
        let nl = b.finish();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl);
        let set_word = |sim: &mut Simulator, w: &Word, v: u64| {
            let assigns: Vec<_> = w
                .bits()
                .iter()
                .enumerate()
                .map(|(i, &b)| (b, v >> i & 1 == 1))
                .collect();
            sim.set_inputs(&assigns);
        };
        // Write 0b1010 to register 2.
        set_word(&mut sim, &waddr, 2);
        set_word(&mut sim, &wdata, 0b1010);
        set_word(&mut sim, &wen, 1);
        sim.step();
        set_word(&mut sim, &wen, 0);
        set_word(&mut sim, &raddr, 2);
        let v: u64 = rdata
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| (sim.value(b) as u64) << i)
            .sum();
        assert_eq!(v, 0b1010);
    }
}
