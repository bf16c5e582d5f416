//! Property-based tests: the RTL builder's arithmetic elaborations agree
//! with Rust's own integer semantics across random operands and widths.

use pdat_netlist::Simulator;
use pdat_rtl::{RtlBuilder, Word};
use proptest::prelude::*;

fn eval(nl: &pdat_netlist::Netlist, drive: &[(&Word, u64)], out: &Word) -> u64 {
    let mut sim = Simulator::new(nl);
    let mut assigns = Vec::new();
    for (w, v) in drive {
        for (i, &b) in w.bits().iter().enumerate() {
            assigns.push((b, v >> i & 1 == 1));
        }
    }
    sim.set_inputs(&assigns);
    out.bits()
        .iter()
        .enumerate()
        .map(|(i, &b)| (sim.value(b) as u64) << i)
        .sum()
}

fn mask(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn add_sub_match_integers(w in 2usize..17, x in any::<u64>(), y in any::<u64>()) {
        let x = x & mask(w);
        let y = y & mask(w);
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let c = b.input_word("b", w);
        let sum = b.add(&a, &c);
        let diff = b.sub(&a, &c);
        let nl = b.finish();
        prop_assert_eq!(eval(&nl, &[(&a, x), (&c, y)], &sum), x.wrapping_add(y) & mask(w));
        prop_assert_eq!(eval(&nl, &[(&a, x), (&c, y)], &diff), x.wrapping_sub(y) & mask(w));
    }

    #[test]
    fn compares_match_integers(w in 2usize..13, x in any::<u64>(), y in any::<u64>()) {
        let x = x & mask(w);
        let y = y & mask(w);
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let c = b.input_word("b", w);
        let eq = b.eq(&a, &c);
        let ltu = b.lt_unsigned(&a, &c);
        let lts = b.lt_signed(&a, &c);
        let out = Word::from_bits(vec![eq, ltu, lts]);
        let nl = b.finish();
        let v = eval(&nl, &[(&a, x), (&c, y)], &out);
        prop_assert_eq!(v & 1 == 1, x == y);
        prop_assert_eq!(v >> 1 & 1 == 1, x < y);
        let sx = ((x << (64 - w)) as i64) >> (64 - w);
        let sy = ((y << (64 - w)) as i64) >> (64 - w);
        prop_assert_eq!(v >> 2 & 1 == 1, sx < sy);
    }

    #[test]
    fn shifts_match_integers(w in 4usize..13, x in any::<u64>(), sh in 0u64..16) {
        let bits = w.next_power_of_two().trailing_zeros() as usize;
        let x = x & mask(w);
        let sh = sh % w as u64;
        prop_assume!(w.is_power_of_two());
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let s = b.input_word("s", bits);
        let shl = b.shl(&a, &s);
        let shr = b.shr(&a, &s);
        let sar = b.sar(&a, &s);
        let nl = b.finish();
        prop_assert_eq!(eval(&nl, &[(&a, x), (&s, sh)], &shl), (x << sh) & mask(w));
        prop_assert_eq!(eval(&nl, &[(&a, x), (&s, sh)], &shr), x >> sh);
        let sx = ((x << (64 - w)) as i64) >> (64 - w);
        prop_assert_eq!(
            eval(&nl, &[(&a, x), (&s, sh)], &sar),
            ((sx >> sh) as u64) & mask(w)
        );
    }

    #[test]
    fn multiplier_matches_integers(w in 2usize..9, x in any::<u64>(), y in any::<u64>()) {
        let x = x & mask(w);
        let y = y & mask(w);
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let c = b.input_word("b", w);
        let p = b.mul_full(&a, &c);
        let nl = b.finish();
        prop_assert_eq!(eval(&nl, &[(&a, x), (&c, y)], &p), x * y);
    }

    #[test]
    fn divider_matches_integers(w in 2usize..9, x in any::<u64>(), y in any::<u64>()) {
        let x = x & mask(w);
        let y = y & mask(w);
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let c = b.input_word("b", w);
        let (q, r) = b.divrem_unsigned(&a, &c);
        let nl = b.finish();
        let got_q = eval(&nl, &[(&a, x), (&c, y)], &q);
        let got_r = eval(&nl, &[(&a, x), (&c, y)], &r);
        // Division by zero: all-ones quotient, remainder = dividend.
        prop_assert_eq!(got_q, x.checked_div(y).unwrap_or(mask(w)));
        prop_assert_eq!(got_r, x.checked_rem(y).unwrap_or(x));
    }

    #[test]
    fn pattern_matcher_matches(w in 2usize..17, x in any::<u64>(), m in any::<u64>(), v in any::<u64>()) {
        let x = x & mask(w);
        let m = m & mask(w);
        let v = v & m;
        let mut b = RtlBuilder::new("t");
        let a = b.input_word("a", w);
        let hit = b.match_pattern(&a, m, v);
        let out = Word::from_bits(vec![hit]);
        let nl = b.finish();
        prop_assert_eq!(eval(&nl, &[(&a, x)], &out) == 1, x & m == v);
    }
}
