//! MiBench-like ARMv6-M (Thumb) kernels, hand-assembled.
//!
//! Smaller siblings of the RV32 kernels, used for the Cortex-M0 row of
//! Table I and the obfuscated-core experiment (Fig. 6). Exit convention:
//! `bkpt`.

use pdat_isa::armv6m::{encode::*, ThumbAssembler};

/// A named Thumb kernel.
#[derive(Debug, Clone)]
pub struct ThumbKernel {
    /// Benchmark-style name.
    pub name: &'static str,
    /// Program image (entry at 0, exits via `bkpt`).
    pub image: Vec<u8>,
    /// Step budget.
    pub fuel: u64,
}

fn bkpt(a: &mut ThumbAssembler) {
    a.emit(0xBE00);
}

/// networking/crc-like: byte-stream mix with shifts and xors; result r0.
pub fn t_crc() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(0, 0xFF)); // crc
    a.emit(t_mov_imm(1, 0)); // i
    a.emit(t_mov_imm(2, 16)); // len
    a.emit(t_mov_imm(4, 1));
    a.emit(t_lsl_imm(4, 4, 9)); // buffer base 512
                                // fill: mem[512+i] = i * 29 via muls (networking uses multiply on M0).
    let fill_top = a.here();
    a.emit(t_mov_imm(3, 29));
    a.emit(t_mov_reg(5, 1));
    a.emit(t_mul(5, 3));
    a.emit(t_strb_reg(5, 4, 1));
    a.emit(t_add_imm8(1, 1));
    a.emit(t_cmp_reg(1, 2));
    let off = fill_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // crc loop: crc = ((crc ^ byte) << 1) ^ (crc >> 3)
    a.emit(t_mov_imm(1, 0));
    let top = a.here();
    a.emit(t_ldrb_reg(5, 4, 1));
    a.emit(t_eor(0, 5));
    a.emit(t_lsl_imm(6, 0, 1));
    a.emit(t_lsr_imm(7, 0, 3));
    a.emit(t_eor(6, 7));
    a.emit(t_mov_reg(0, 6));
    a.emit(t_add_imm8(1, 1));
    a.emit(t_cmp_reg(1, 2));
    let off = top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_crc",
        image: a.finish(),
        fuel: 5_000,
    }
}

/// security/sha-like: rotate/xor/add rounds with loads/stores; no multiply.
pub fn t_sha() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(0, 0x67));
    a.emit(t_lsl_imm(0, 0, 8));
    a.emit(t_add_imm8(0, 0x45)); // s0
    a.emit(t_mov_imm(1, 0xEF));
    a.emit(t_lsl_imm(1, 1, 8));
    a.emit(t_add_imm8(1, 0xCD)); // s1
    a.emit(t_mov_imm(2, 0x98));
    a.emit(t_lsl_imm(2, 2, 4)); // s2
    a.emit(t_mov_imm(3, 16)); // rounds
    let top = a.here();
    // t = (s0 ^ s1) rotl 5 + s2 ; shift state.
    a.emit(t_mov_reg(4, 0));
    a.emit(t_eor(4, 1));
    a.emit(t_lsl_imm(5, 4, 5));
    a.emit(t_lsr_imm(4, 4, 27));
    a.emit(t_orr(4, 5));
    a.emit(t_add_reg(4, 4, 2));
    a.emit(t_mov_reg(2, 1));
    a.emit(t_mov_reg(1, 0));
    a.emit(t_mov_reg(0, 4));
    // extra base coverage: bic/mvn/sbcs.
    a.emit(t_mvn(5, 1));
    a.emit(t_bic(5, 2));
    a.emit(t_and(5, 0)); // keep it used
    a.emit(t_sub_imm8(3, 1));
    let off = top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // store digest to memory (sp-relative forms).
    a.emit(t_mov_imm(6, 2));
    a.emit(t_lsl_imm(6, 6, 8)); // 512
    a.emit(0x46B5); // mov sp, r6
    a.emit(t_push(0b0000_0111)); // push {r0,r1,r2}
    a.emit(t_pop(0b0000_0111));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_sha",
        image: a.finish(),
        fuel: 5_000,
    }
}

/// security/rijndael-like: table substitution + xor over bytes (ldrb/strb,
/// extends); no multiply.
pub fn t_subst() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(4, 2));
    a.emit(t_lsl_imm(4, 4, 8)); // 512: sbox
    a.emit(t_mov_imm(5, 3));
    a.emit(t_lsl_imm(5, 5, 8)); // 768: data
                                // build sbox[i] = (i*7 + 3) & 0xFF without muls: i*7 = (i<<3)-i.
    a.emit(t_mov_imm(0, 0));
    let top = a.here();
    a.emit(t_lsl_imm(1, 0, 3));
    a.emit(t_sub_reg(1, 1, 0));
    a.emit(t_add_imm8(1, 3));
    a.emit(t_uxtb(1, 1));
    a.emit(t_strb_reg(1, 4, 0));
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 64));
    let off = top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // substitute 16 data bytes: data[i] = sbox[data[i] & 63] ^ i.
    a.emit(t_mov_imm(0, 0));
    let top2 = a.here();
    a.emit(t_ldrb_reg(1, 5, 0));
    a.emit(t_mov_imm(2, 63));
    a.emit(t_and(1, 2));
    a.emit(t_ldrb_reg(3, 4, 1));
    a.emit(t_eor(3, 0));
    a.emit(t_strb_reg(3, 5, 0));
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 16));
    let off = top2 as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // checksum into r0 with halfword loads + revsh for coverage.
    a.emit(t_mov_imm(0, 0));
    a.emit(t_ldrh_imm(1, 5, 0));
    a.emit(t_revsh(1, 1));
    a.emit(t_add_reg(0, 0, 1));
    a.emit(t_sxth(0, 0));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_subst",
        image: a.finish(),
        fuel: 5_000,
    }
}

/// automotive/bitcount: popcount loops (shifts, adds, conditional adds).
pub fn t_bitcount() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(0, 0)); // total
    a.emit(t_mov_imm(1, 0xB5)); // seed-ish value
    a.emit(t_lsl_imm(1, 1, 8));
    a.emit(t_add_imm8(1, 0x7D));
    a.emit(t_mov_imm(2, 12)); // words
    let w_top = a.here();
    // xorshift-ish: v ^= v << 3; v ^= v >> 5.
    a.emit(t_lsl_imm(3, 1, 3));
    a.emit(t_eor(1, 3));
    a.emit(t_lsr_imm(3, 1, 5));
    a.emit(t_eor(1, 3));
    a.emit(t_mov_reg(4, 1));
    let b_done = a.new_label();
    let b_top = a.here();
    a.emit(t_cmp_imm(4, 0));
    a.b_cond(Cond::Eq, b_done);
    a.emit(t_mov_imm(5, 1));
    a.emit(t_and(5, 4));
    a.emit(t_add_reg(0, 0, 5));
    a.emit(t_lsr_imm(4, 4, 1));
    a.b_back(b_top);
    a.bind(b_done);
    a.emit(t_sub_imm8(2, 1));
    let off = w_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_bitcount",
        image: a.finish(),
        fuel: 20_000,
    }
}

/// automotive/qsort-like: insertion sort of 8 words with a BL'd compare
/// helper (uses stack, BL/BX, LDM/STM coverage).
pub fn t_sort() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    let helper = a.new_label();
    a.emit(t_mov_imm(7, 2));
    a.emit(t_lsl_imm(7, 7, 9)); // 1024: stack top
    a.emit(0x46BD); // mov sp, r7
    a.emit(t_mov_imm(4, 2));
    a.emit(t_lsl_imm(4, 4, 8)); // 512: array
                                // fill descending: a[i] = 32 - i (sorted output ascending).
    a.emit(t_mov_imm(0, 0));
    let fill_top = a.here();
    a.emit(t_mov_imm(1, 32));
    a.emit(t_sub_reg(1, 1, 0));
    a.emit(t_lsl_imm(2, 0, 2));
    a.emit(t_str_reg(1, 4, 2));
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 8));
    let off = fill_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // insertion sort; inner shift via helper(r1=key_addr) for BL coverage.
    a.emit(t_mov_imm(0, 1)); // i
    let sort_done = a.new_label();
    let sort_top = a.here();
    a.emit(t_cmp_imm(0, 8));
    a.b_cond(Cond::Eq, sort_done);
    a.emit(t_mov_reg(1, 0));
    a.bl(helper);
    a.emit(t_add_imm8(0, 1));
    a.b_back(sort_top);
    a.bind(sort_done);
    // checksum r0 = a[0] + 2*a[7].
    a.emit(t_ldr_imm(0, 4, 0));
    a.emit(t_ldr_imm(1, 4, 28));
    a.emit(t_add_reg(0, 0, 1));
    a.emit(t_add_reg(0, 0, 1));
    bkpt(&mut a);
    // helper: insert a[r1] into sorted prefix. Clobbers r1,r2,r3,r5,r6.
    a.bind(helper);
    a.emit(t_push(0b1_0000_0000)); // push {lr}
    a.emit(t_lsl_imm(2, 1, 2));
    a.emit(t_ldr_reg(3, 4, 2)); // key
    let shift_done = a.new_label();
    let shift_top = a.here();
    a.emit(t_cmp_imm(1, 0));
    a.b_cond(Cond::Eq, shift_done);
    a.emit(t_lsl_imm(2, 1, 2));
    a.emit(t_sub_imm8(2, 4));
    a.emit(t_ldr_reg(5, 4, 2)); // a[j-1]
    a.emit(t_cmp_reg(3, 5));
    a.b_cond(Cond::Ge, shift_done);
    a.emit(t_lsl_imm(6, 1, 2));
    a.emit(t_str_reg(5, 4, 6));
    a.emit(t_sub_imm8(1, 1));
    a.b_back(shift_top);
    a.bind(shift_done);
    a.emit(t_lsl_imm(2, 1, 2));
    a.emit(t_str_reg(3, 4, 2));
    a.emit(t_pop(0b1_0000_0000)); // pop {pc}
    ThumbKernel {
        name: "t_sort",
        image: a.finish(),
        fuel: 20_000,
    }
}

/// automotive/susan-like: weighted sums with muls + signed extends.
pub fn t_susan() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(4, 2));
    a.emit(t_lsl_imm(4, 4, 8)); // image at 512
                                // fill 32 bytes: (i*11) & 0xFF via muls.
    a.emit(t_mov_imm(0, 0));
    let f_top = a.here();
    a.emit(t_mov_imm(1, 11));
    a.emit(t_mov_reg(2, 0));
    a.emit(t_mul(2, 1));
    a.emit(t_strb_reg(2, 4, 0));
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 32));
    let off = f_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    // weighted sum of pixels above 96.
    a.emit(t_mov_imm(5, 0)); // acc
    a.emit(t_mov_imm(0, 0));
    let s_top = a.here();
    a.emit(t_ldrb_reg(1, 4, 0));
    a.emit(t_cmp_imm(1, 96));
    let skip = a.new_label();
    a.b_cond(Cond::Lt, skip);
    a.emit(t_mov_reg(2, 0));
    a.emit(t_sub_imm8(2, 16));
    a.emit(t_sxtb(2, 2)); // signed distance
    a.emit(t_mul(2, 1));
    a.emit(t_add_reg(5, 5, 2));
    a.bind(skip);
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 32));
    let off = s_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    a.emit(t_mov_reg(0, 5));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_susan",
        image: a.finish(),
        fuel: 10_000,
    }
}

/// The networking group.
pub fn t_networking_kernels() -> Vec<ThumbKernel> {
    vec![t_crc(), t_dijkstra(), t_patricia()]
}

/// The security group (no multiply usage).
pub fn t_security_kernels() -> Vec<ThumbKernel> {
    vec![t_sha(), t_subst()]
}

/// The automotive group.
pub fn t_automotive_kernels() -> Vec<ThumbKernel> {
    vec![t_bitcount(), t_sort(), t_susan()]
}

/// networking/dijkstra-like: repeated min-scan relaxation over a small
/// word array (loads/stores, unsigned compares, conditional moves via
/// branches).
pub fn t_dijkstra() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(4, 2));
    a.emit(t_lsl_imm(4, 4, 8)); // dist[] at 512 (8 words)
                                // init: dist[0] = 0, dist[i] = 200 + i*3 (via adds).
    a.emit(t_mov_imm(0, 0));
    a.emit(t_mov_imm(1, 200));
    let init_top = a.here();
    a.emit(t_lsl_imm(2, 0, 2));
    a.emit(t_str_reg(1, 4, 2));
    a.emit(t_add_imm8(1, 3));
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 8));
    let off = init_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    a.emit(t_mov_imm(1, 0));
    a.emit(t_str_imm(1, 4, 0)); // dist[0] = 0
                                // 8 relaxation sweeps: dist[i] = min(dist[i], dist[i-1] + 5).
    a.emit(t_mov_imm(5, 8)); // sweeps
    let sweep_top = a.here();
    a.emit(t_mov_imm(0, 1));
    let relax_top = a.here();
    a.emit(t_lsl_imm(2, 0, 2));
    a.emit(t_sub_imm8(2, 4));
    a.emit(t_ldr_reg(1, 4, 2)); // dist[i-1]
    a.emit(t_add_imm8(1, 5)); // + edge
    a.emit(t_lsl_imm(2, 0, 2));
    a.emit(t_ldr_reg(3, 4, 2)); // dist[i]
    a.emit(t_cmp_reg(1, 3));
    let no_up = a.new_label();
    a.b_cond(Cond::Cs, no_up); // unsigned >= (HS == CS): keep
    a.emit(t_str_reg(1, 4, 2));
    a.bind(no_up);
    a.emit(t_add_imm8(0, 1));
    a.emit(t_cmp_imm(0, 8));
    let off = relax_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    a.emit(t_sub_imm8(5, 1));
    let off = sweep_top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    a.emit(t_ldr_imm(0, 4, 28)); // dist[7] = 35
    bkpt(&mut a);
    ThumbKernel {
        name: "t_dijkstra",
        image: a.finish(),
        fuel: 10_000,
    }
}

/// networking/patricia-like: prefix matching with shifts and masked
/// compares (no memory tables — register-resident bit tests).
pub fn t_patricia() -> ThumbKernel {
    let mut a = ThumbAssembler::new();
    // key base in r1 = 0xC0A8 (built by shifts), match counter r0.
    a.emit(t_mov_imm(1, 0xC0));
    a.emit(t_lsl_imm(1, 1, 8));
    a.emit(t_add_imm8(1, 0xA8));
    a.emit(t_mov_imm(0, 0));
    a.emit(t_mov_imm(5, 8)); // 8 rotated keys
    let top = a.here();
    // prefix = 0xC0 masked at 8 bits: match if (key >> 8) & 0xFF == 0xC0.
    a.emit(t_lsr_imm(2, 1, 8));
    a.emit(t_uxtb(2, 2));
    a.emit(t_cmp_imm(2, 0xC0));
    let no_match = a.new_label();
    a.b_cond(Cond::Ne, no_match);
    a.emit(t_add_imm8(0, 1));
    a.bind(no_match);
    // rotate key left by 1: r1 = (r1 << 1) | (r1 >> 15) over 16 bits.
    a.emit(t_lsl_imm(2, 1, 1));
    a.emit(t_lsr_imm(3, 1, 15));
    a.emit(t_orr(2, 3));
    a.emit(t_mov_reg(1, 2));
    a.emit(t_uxth(1, 1));
    a.emit(t_sub_imm8(5, 1));
    let off = top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    bkpt(&mut a);
    ThumbKernel {
        name: "t_patricia",
        image: a.finish(),
        fuel: 5_000,
    }
}
