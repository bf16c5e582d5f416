//! MiBench-like RV32IMC kernels, hand-assembled.
//!
//! Each kernel mirrors the computational heart of a MiBench benchmark and
//! produces a result the tests verify against a Rust reference. Kernels mix
//! 32-bit and compressed encodings the way compiler output does; the
//! security group deliberately avoids the M extension (matching the paper's
//! Table I, where security benchmarks use 0 M-extension instructions).

use pdat_isa::rv32::{encode as e, Assembler};

/// Load a 32-bit constant via `lui`+`addi` (standard `li` expansion).
fn li(a: &mut Assembler, rd: u32, v: i32) {
    if (-2048..=2047).contains(&v) {
        a.emit(e::addi(rd, 0, v));
        return;
    }
    let hi = ((v as i64 + 0x800) >> 12) as i32;
    let lo = v - (hi << 12);
    a.emit(e::lui(rd, (hi as u32) & 0xF_FFFF));
    if lo != 0 {
        a.emit(e::addi(rd, rd, lo));
    }
}

/// A named kernel: program image plus the fuel it needs.
#[derive(Debug, Clone)]
pub struct RvKernel {
    /// Benchmark-style name.
    pub name: &'static str,
    /// Program image (entry at 0, exits via `ecall`).
    pub image: Vec<u8>,
    /// Step budget.
    pub fuel: u64,
}

/// networking/crc32: bitwise CRC-32 over a small buffer.
///
/// Buffer: 16 bytes at 512 filled in a prologue; result in x10.
pub fn crc32() -> RvKernel {
    let mut a = Assembler::new();
    // Fill buffer: mem[512+i] = 0x5A ^ (i * 7)  (uses MUL — networking's
    // M-extension usage).
    a.emit(e::addi(5, 0, 512)); // ptr
    a.emit(e::addi(6, 0, 0)); // i
    a.emit(e::addi(7, 0, 16)); // len
    let fill_done = a.new_label();
    let fill_top = a.here();
    a.bge(6, 7, fill_done);
    a.emit(e::addi(28, 0, 7));
    a.emit(e::mul(29, 6, 28)); // i*7
    a.emit(e::xori(29, 29, 0x5A));
    a.emit(e::add(30, 5, 6));
    a.emit(e::sb(29, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(fill_top);
    a.bind(fill_done);
    // CRC32 (poly 0xEDB88320), crc in x10.
    a.emit(e::addi(10, 0, -1)); // crc = 0xFFFFFFFF
    a.emit(e::lui(11, 0xEDB88)); // poly
    a.emit(e::addi(11, 11, 0x320));
    a.emit(e::addi(6, 0, 0)); // i = 0
    let outer_done = a.new_label();
    let outer_top = a.here();
    a.bge(6, 7, outer_done);
    a.emit(e::add(30, 5, 6));
    a.emit(e::lbu(12, 30, 0));
    a.emit(e::xor(10, 10, 12));
    a.emit_c(e::c_li(13, 8)); // bit counter
    let bit_top = a.here();
    a.emit(e::andi(14, 10, 1));
    let skip = a.new_label();
    a.beq(14, 0, skip);
    a.emit_c(e::c_srli(10, 1));
    a.emit_c(e::c_xor(10, 11)); // crc ^= poly  (x10, x11 both compressed regs)
    let join = a.new_label();
    a.jal(0, join);
    a.bind(skip);
    a.emit_c(e::c_srli(10, 1));
    a.bind(join);
    a.emit_c(e::c_addi(13, -1));
    let off = bit_top as i64 - a.here() as i64;
    a.emit(e::bne(13, 0, off as i32));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(outer_top);
    a.bind(outer_done);
    a.emit(e::xori(10, 10, -1));
    a.emit(e::ecall());
    RvKernel {
        name: "crc32",
        image: a.finish(),
        fuel: 20_000,
    }
}

/// networking/dijkstra: single-source shortest path over a tiny adjacency
/// matrix (5 nodes, O(n^2) relaxation). Distances at 768.., result x10 =
/// `dist[4]`.
pub fn dijkstra() -> RvKernel {
    let mut a = Assembler::new();
    let n = 5i32;
    // Adjacency matrix at 512 (row-major words), INF = 9999.
    // Graph: 0->1:7, 0->2:9, 0->4:14(? classic), 1->2:10, 1->3:15, 2->3:11,
    // 2->4:2, 3->4:6.
    let weights: [[i32; 5]; 5] = [
        [0, 7, 9, 9999, 14],
        [7, 0, 10, 15, 9999],
        [9, 10, 0, 11, 2],
        [9999, 15, 11, 0, 6],
        [14, 9999, 2, 6, 0],
    ];
    // Store the matrix with immediate stores.
    a.emit(e::addi(5, 0, 512));
    for (i, row) in weights.iter().enumerate() {
        for (j, &w) in row.iter().enumerate() {
            let off = ((i * 5 + j) * 4) as i32;
            li(&mut a, 6, w);
            if off < 2048 {
                a.emit(e::sw(6, 5, off));
            } else {
                a.emit(e::addi(7, 5, 1024));
                a.emit(e::sw(6, 7, off - 1024));
            }
        }
    }
    // dist[] at 768: dist[0]=0, others INF; visited[] at 800 (bytes).
    a.emit(e::addi(8, 0, 768));
    a.emit(e::sw(0, 8, 0));
    a.emit(e::lui(9, 3)); // 0x3000 = 12288 > 9999: INF marker
    for j in 1..n {
        a.emit(e::sw(9, 8, j * 4));
    }
    for j in 0..n {
        a.emit(e::sb(0, 8, 32 + j));
    }
    // n rounds: pick unvisited min, relax.
    a.emit(e::addi(15, 0, 0)); // round
    let rounds_done = a.new_label();
    let rounds_top = a.here();
    a.emit(e::addi(16, 0, n));
    a.bge(15, 16, rounds_done);
    // find min unvisited u: x17 = best idx, x18 = best dist.
    a.emit(e::addi(17, 0, -1));
    a.emit(e::lui(18, 16)); // big
    a.emit(e::addi(19, 0, 0)); // j
    let find_done = a.new_label();
    let find_top = a.here();
    a.bge(19, 16, find_done);
    a.emit(e::add(20, 8, 19));
    a.emit(e::lbu(21, 20, 32)); // visited[j]
    let next_j = a.new_label();
    a.bne(21, 0, next_j);
    a.emit(e::slli(22, 19, 2));
    a.emit(e::add(22, 8, 22));
    a.emit(e::lw(23, 22, 0)); // dist[j]
    a.bge(23, 18, next_j);
    a.emit_c(e::c_mv(18, 23));
    a.emit_c(e::c_mv(17, 19));
    a.bind(next_j);
    a.emit_c(e::c_addi(19, 1));
    a.jump_back(find_top);
    a.bind(find_done);
    // mark visited[u]
    a.emit(e::add(20, 8, 17));
    a.emit(e::addi(21, 0, 1));
    a.emit(e::sb(21, 20, 32));
    // relax all j: nd = dist[u] + w[u][j]
    a.emit(e::addi(19, 0, 0));
    let relax_done = a.new_label();
    let relax_top = a.here();
    a.bge(19, 16, relax_done);
    // w[u][j] = mem[512 + (u*5+j)*4]
    a.emit(e::slli(24, 17, 2)); // u*4
    a.emit(e::add(24, 24, 17)); // u*5
    a.emit(e::add(24, 24, 19)); // u*5+j
    a.emit(e::slli(24, 24, 2));
    a.emit(e::add(24, 24, 5));
    a.emit(e::lw(25, 24, 0)); // w
    a.emit(e::add(26, 18, 25)); // nd = bestdist + w
    a.emit(e::slli(27, 19, 2));
    a.emit(e::add(27, 8, 27));
    a.emit(e::lw(28, 27, 0)); // dist[j]
    let no_update = a.new_label();
    a.bge(26, 28, no_update);
    a.emit(e::sw(26, 27, 0));
    a.bind(no_update);
    a.emit_c(e::c_addi(19, 1));
    a.jump_back(relax_top);
    a.bind(relax_done);
    a.emit_c(e::c_addi(15, 1));
    a.jump_back(rounds_top);
    a.bind(rounds_done);
    a.emit(e::lw(10, 8, 16)); // dist[4]
    a.emit(e::ecall());
    RvKernel {
        name: "dijkstra",
        image: a.finish(),
        fuel: 200_000,
    }
}

/// networking/patricia-like: longest-prefix match via bit tests.
///
/// Tests 8 keys against 4 prefixes; result x10 = match count.
pub fn patricia() -> RvKernel {
    let mut a = Assembler::new();
    // prefixes (value, mask-bits) encoded as value|len pairs at 512.
    let prefixes: [(u32, u32); 4] = [
        (0xC0A8_0000, 16),
        (0xC0A8_0100, 24),
        (0x0A00_0000, 8),
        (0xAC10_0000, 12),
    ];
    a.emit(e::addi(5, 0, 512));
    for (i, &(v, l)) in prefixes.iter().enumerate() {
        li(&mut a, 6, v as i32);
        a.emit(e::sw(6, 5, (i * 8) as i32));
        a.emit(e::addi(6, 0, l as i32));
        a.emit(e::sw(6, 5, (i * 8 + 4) as i32));
    }
    // keys: derived in-register: k = 0xC0A80137 rotated variants.
    li(&mut a, 11, 0xC0A8_0137u32 as i32);
    a.emit(e::addi(10, 0, 0)); // matches
    a.emit(e::addi(12, 0, 0)); // key index
    a.emit(e::addi(13, 0, 8)); // num keys
    let keys_done = a.new_label();
    let keys_top = a.here();
    a.bge(12, 13, keys_done);
    // key = rotl(base, i) = (b << i) | (b >> (32-i)) — i=0 handled since
    // shifts use i%32 and or of b|b = b.
    a.emit(e::sll(14, 11, 12));
    a.emit(e::addi(15, 0, 32));
    a.emit(e::sub(15, 15, 12));
    a.emit(e::andi(15, 15, 31));
    a.emit(e::srl(15, 11, 15));
    a.emit(e::or(14, 14, 15)); // key
                               // check against each prefix.
    a.emit(e::addi(16, 0, 0)); // p
    a.emit(e::addi(17, 0, 4));
    let pfx_done = a.new_label();
    let pfx_top = a.here();
    a.bge(16, 17, pfx_done);
    a.emit(e::slli(18, 16, 3));
    a.emit(e::add(18, 5, 18));
    a.emit(e::lw(19, 18, 0)); // prefix value
    a.emit(e::lw(20, 18, 4)); // prefix len
                              // mask = ~(0xFFFFFFFF >> len)  (len in 1..=31)
    a.emit(e::addi(21, 0, -1));
    a.emit(e::srl(21, 21, 20));
    a.emit(e::xori(21, 21, -1));
    a.emit(e::and(22, 14, 21));
    a.emit(e::and(23, 19, 21));
    let no_match = a.new_label();
    a.bne(22, 23, no_match);
    a.emit_c(e::c_addi(10, 1));
    a.bind(no_match);
    a.emit_c(e::c_addi(16, 1));
    a.jump_back(pfx_top);
    a.bind(pfx_done);
    a.emit_c(e::c_addi(12, 1));
    a.jump_back(keys_top);
    a.bind(keys_done);
    a.emit(e::ecall());
    RvKernel {
        name: "patricia",
        image: a.finish(),
        fuel: 50_000,
    }
}

/// security/sha-like: 16 rounds of rotate/xor/add mixing over 4 state
/// words (no multiplies, heavy compressed usage). State at 512..528;
/// result x10 = s0 after mixing.
pub fn sha_mix() -> RvKernel {
    let mut a = Assembler::new();
    // Initialize state s0..s3 in x8..x11 (compressed registers).
    li(&mut a, 8, 0x6745_2301u32 as i32);
    li(&mut a, 9, 0xEFCD_AB89u32 as i32);
    li(&mut a, 10, 0x98BA_DCFEu32 as i32);
    li(&mut a, 11, 0x1032_5476u32 as i32);
    a.emit_c(e::c_li(12, 16)); // rounds
    let top = a.here();
    // t = rotl(s0 ^ s1, 5) + s3
    a.emit_c(e::c_mv(13, 8));
    a.emit_c(e::c_xor(13, 9));
    a.emit(e::slli(14, 13, 5));
    a.emit(e::srli(13, 13, 27));
    a.emit_c(e::c_or(13, 14));
    a.emit_c(e::c_add(13, 11));
    // rotate state: s3 = s2, s2 = s1, s1 = s0, s0 = t
    a.emit_c(e::c_mv(11, 10));
    a.emit_c(e::c_mv(10, 9));
    a.emit_c(e::c_mv(9, 8));
    a.emit_c(e::c_mv(8, 13));
    // mix in an AND/sub for base-ISA coverage.
    a.emit(e::and(15, 9, 10));
    a.emit(e::sub(8, 8, 15));
    a.emit_c(e::c_addi(12, -1));
    // bne x12, x0, top
    let off = top as i64 - a.here() as i64;
    a.emit(e::bne(12, 0, off as i32));
    // store state and return s0.
    a.emit(e::addi(5, 0, 512));
    a.emit(e::sw(8, 5, 0));
    a.emit(e::sw(9, 5, 4));
    a.emit(e::sw(10, 5, 8));
    a.emit(e::sw(11, 5, 12));
    a.emit_c(e::c_mv(10, 8));
    a.emit(e::ecall());
    RvKernel {
        name: "sha_mix",
        image: a.finish(),
        fuel: 20_000,
    }
}

/// security/blowfish-like: a 8-round Feistel with a tiny S-box (loads,
/// xors, shifts; no multiplies). Result x10 = left half.
pub fn feistel() -> RvKernel {
    let mut a = Assembler::new();
    // S-box: 16 words at 512: sbox[i] = (i*0x9E37 + 0x79B9) & 0xFFFF  —
    // computed with shifts/adds only (security avoids M).
    a.emit(e::addi(5, 0, 512));
    a.emit(e::addi(6, 0, 0)); // i
    a.emit(e::addi(7, 0, 16));
    let fill_done = a.new_label();
    let fill_top = a.here();
    a.bge(6, 7, fill_done);
    // i*0x9E37 = i*(0x8000+0x1E37)… build with shifts: i<<15 + i<<12 + i<<9 + i<<5 + i*7
    a.emit(e::slli(28, 6, 15));
    a.emit(e::slli(29, 6, 12));
    a.emit_c(e::c_add(28, 29));
    a.emit(e::slli(29, 6, 9));
    a.emit_c(e::c_add(28, 29));
    a.emit(e::slli(29, 6, 5));
    a.emit_c(e::c_add(28, 29));
    a.emit(e::slli(29, 6, 3));
    a.emit(e::sub(29, 29, 6));
    a.emit_c(e::c_add(28, 29));
    li(&mut a, 29, 0x79B9);
    a.emit_c(e::c_add(28, 29));
    li(&mut a, 29, 0xFFFF);
    a.emit(e::and(28, 28, 29));
    a.emit(e::slli(30, 6, 2));
    a.emit(e::add(30, 5, 30));
    a.emit(e::sw(28, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(fill_top);
    a.bind(fill_done);
    // Feistel: L=x8, R=x9.
    li(&mut a, 8, 0x0123_4567);
    li(&mut a, 9, 0x89AB_CDEFu32 as i32);
    a.emit_c(e::c_li(12, 8)); // rounds
    let f_top = a.here();
    // f = sbox[R & 15] ^ (R >> 4)
    a.emit(e::andi(13, 9, 15));
    a.emit(e::slli(13, 13, 2));
    a.emit(e::add(13, 5, 13));
    a.emit(e::lw(13, 13, 0));
    a.emit(e::srli(14, 9, 4));
    a.emit_c(e::c_xor(13, 14));
    // (L, R) = (R, L ^ f)
    a.emit_c(e::c_mv(15, 8));
    a.emit_c(e::c_mv(8, 9));
    a.emit_c(e::c_xor(15, 13));
    a.emit_c(e::c_mv(9, 15));
    a.emit_c(e::c_addi(12, -1));
    let off = f_top as i64 - a.here() as i64;
    a.emit(e::bne(12, 0, off as i32));
    a.emit_c(e::c_mv(10, 8));
    a.emit(e::ecall());
    RvKernel {
        name: "feistel",
        image: a.finish(),
        fuel: 20_000,
    }
}

/// automotive/basicmath: isqrt + gcd (uses div/rem/mul). x10 =
/// isqrt(1234567) * 1000 + gcd(3528, 3780).
pub fn basicmath() -> RvKernel {
    let mut a = Assembler::new();
    // isqrt by Newton iterations with division.
    li(&mut a, 8, 1_234_567);
    a.emit(e::addi(9, 0, 1234)); // x0 guess
    a.emit_c(e::c_li(12, 12)); // iterations
    let n_top = a.here();
    a.emit(e::div(13, 8, 9)); // n / x
    a.emit(e::add(13, 13, 9));
    a.emit(e::srli(9, 13, 1)); // x = (x + n/x)/2
    a.emit_c(e::c_addi(12, -1));
    let off = n_top as i64 - a.here() as i64;
    a.emit(e::bne(12, 0, off as i32));
    // gcd(3528, 3780) via remainder loop.
    a.emit(e::addi(14, 0, 1764));
    a.emit(e::slli(14, 14, 1)); // 3528
    a.emit(e::addi(15, 0, 1890));
    a.emit(e::slli(15, 15, 1)); // 3780
    let g_done = a.new_label();
    let g_top = a.here();
    a.beq(15, 0, g_done);
    a.emit(e::rem(16, 14, 15));
    a.emit_c(e::c_mv(14, 15));
    a.emit_c(e::c_mv(15, 16));
    a.jump_back(g_top);
    a.bind(g_done);
    // x10 = isqrt*1000 + gcd
    a.emit(e::addi(17, 0, 1000));
    a.emit(e::mul(10, 9, 17));
    a.emit(e::add(10, 10, 14));
    a.emit(e::ecall());
    RvKernel {
        name: "basicmath",
        image: a.finish(),
        fuel: 10_000,
    }
}

/// automotive/bitcount: several popcount strategies over a PRNG stream.
/// x10 = total bits.
pub fn bitcount() -> RvKernel {
    let mut a = Assembler::new();
    li(&mut a, 8, 0x2545_F491);
    a.emit(e::addi(10, 0, 0)); // total
    a.emit_c(e::c_li(12, 24)); // words
    let w_top = a.here();
    // xorshift32
    a.emit(e::slli(13, 8, 13));
    a.emit(e::xor(8, 8, 13));
    a.emit(e::srli(13, 8, 17));
    a.emit(e::xor(8, 8, 13));
    a.emit(e::slli(13, 8, 5));
    a.emit(e::xor(8, 8, 13));
    // naive bit loop popcount
    a.emit_c(e::c_mv(14, 8));
    let b_done = a.new_label();
    let b_top = a.here();
    a.beq(14, 0, b_done);
    a.emit(e::andi(15, 14, 1));
    a.emit_c(e::c_add(10, 15)); // hmm x15 not compressed-pair valid for c.add? c.add allows any regs
    a.emit_c(e::c_srli(14, 1));
    a.jump_back(b_top);
    a.bind(b_done);
    a.emit_c(e::c_addi(12, -1));
    let off = w_top as i64 - a.here() as i64;
    a.emit(e::bne(12, 0, off as i32));
    a.emit(e::ecall());
    RvKernel {
        name: "bitcount",
        image: a.finish(),
        fuel: 100_000,
    }
}

/// automotive/qsort-like: insertion sort of 16 words (loads/stores,
/// signed compares). x10 = checksum of sorted array.
pub fn qsort() -> RvKernel {
    let mut a = Assembler::new();
    // Fill array at 512 with xorshift values.
    a.emit(e::addi(5, 0, 512));
    li(&mut a, 8, 0x1337_F001);
    a.emit(e::addi(6, 0, 0));
    a.emit(e::addi(7, 0, 16));
    let fill_done = a.new_label();
    let fill_top = a.here();
    a.bge(6, 7, fill_done);
    a.emit(e::slli(13, 8, 13));
    a.emit(e::xor(8, 8, 13));
    a.emit(e::srli(13, 8, 17));
    a.emit(e::xor(8, 8, 13));
    a.emit(e::slli(13, 8, 5));
    a.emit(e::xor(8, 8, 13));
    a.emit(e::slli(14, 6, 2));
    a.emit(e::add(14, 5, 14));
    a.emit(e::sw(8, 14, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(fill_top);
    a.bind(fill_done);
    // Insertion sort.
    a.emit(e::addi(6, 0, 1)); // i
    let sort_done = a.new_label();
    let sort_top = a.here();
    a.bge(6, 7, sort_done);
    a.emit(e::slli(14, 6, 2));
    a.emit(e::add(14, 5, 14));
    a.emit(e::lw(15, 14, 0)); // key
    a.emit_c(e::c_mv(16, 6)); // j = i
    let shift_done = a.new_label();
    let shift_top = a.here();
    a.beq(16, 0, shift_done);
    a.emit(e::slli(17, 16, 2));
    a.emit(e::add(17, 5, 17));
    a.emit(e::lw(18, 17, -4));
    a.bge(15, 18, shift_done);
    a.emit(e::sw(18, 17, 0));
    a.emit_c(e::c_addi(16, -1));
    a.jump_back(shift_top);
    a.bind(shift_done);
    a.emit(e::slli(17, 16, 2));
    a.emit(e::add(17, 5, 17));
    a.emit(e::sw(15, 17, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(sort_top);
    a.bind(sort_done);
    // Checksum: sum of a[i] ^ i.
    a.emit(e::addi(10, 0, 0));
    a.emit(e::addi(6, 0, 0));
    let ck_done = a.new_label();
    let ck_top = a.here();
    a.bge(6, 7, ck_done);
    a.emit(e::slli(14, 6, 2));
    a.emit(e::add(14, 5, 14));
    a.emit(e::lw(15, 14, 0));
    a.emit(e::xor(15, 15, 6));
    a.emit(e::add(10, 10, 15));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(ck_top);
    a.bind(ck_done);
    a.emit(e::ecall());
    RvKernel {
        name: "qsort",
        image: a.finish(),
        fuel: 50_000,
    }
}

/// automotive/susan-like: brightness thresholding with multiply-accumulate
/// over an 8x8 synthetic image. x10 = weighted count.
pub fn susan() -> RvKernel {
    let mut a = Assembler::new();
    // image[i] = (i*37 + 11) & 0xFF at 512 (64 bytes).
    a.emit(e::addi(5, 0, 512));
    a.emit(e::addi(6, 0, 0));
    a.emit(e::addi(7, 0, 64));
    let f_done = a.new_label();
    let f_top = a.here();
    a.bge(6, 7, f_done);
    a.emit(e::addi(28, 0, 37));
    a.emit(e::mul(29, 6, 28));
    a.emit(e::addi(29, 29, 11));
    a.emit(e::andi(29, 29, 0xFF));
    a.emit(e::add(30, 5, 6));
    a.emit(e::sb(29, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(f_top);
    a.bind(f_done);
    // count pixels above threshold 128, weighted by distance to center.
    a.emit(e::addi(10, 0, 0));
    a.emit(e::addi(6, 0, 0));
    let s_done = a.new_label();
    let s_top = a.here();
    a.bge(6, 7, s_done);
    a.emit(e::add(30, 5, 6));
    a.emit(e::lbu(13, 30, 0));
    a.emit(e::addi(14, 0, 128));
    let below = a.new_label();
    a.blt(13, 14, below);
    a.emit(e::addi(15, 6, -32)); // dist to center
                                 // abs
    a.emit(e::srai(16, 15, 31));
    a.emit(e::xor(15, 15, 16));
    a.emit(e::sub(15, 15, 16));
    a.emit(e::mul(17, 15, 13));
    a.emit(e::add(10, 10, 17));
    a.bind(below);
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(s_top);
    a.bind(s_done);
    a.emit(e::ecall());
    RvKernel {
        name: "susan",
        image: a.finish(),
        fuel: 50_000,
    }
}

/// The networking group.
pub fn networking_kernels() -> Vec<RvKernel> {
    vec![crc32(), dijkstra(), patricia()]
}

/// The security group (no M-extension usage, by construction).
pub fn security_kernels() -> Vec<RvKernel> {
    vec![sha_mix(), feistel(), rijndael()]
}

/// The automotive group.
pub fn automotive_kernels() -> Vec<RvKernel> {
    vec![basicmath(), bitcount(), qsort(), susan()]
}

/// security/rijndael-like: byte substitution + row-rotate + column-xor
/// rounds over a 16-byte state (loads/stores/logic only, no multiplies).
/// Result x10 = xor-fold of the final state.
pub fn rijndael() -> RvKernel {
    let mut a = Assembler::new();
    // S-box at 512 (64 entries): sbox[i] = (i*31 + 7) & 63 — multiplicative
    // permutation built from shifts/subs (31*i = (i<<5) - i).
    a.emit(e::addi(5, 0, 512));
    a.emit(e::addi(6, 0, 0));
    a.emit(e::addi(7, 0, 64));
    let f_done = a.new_label();
    let f_top = a.here();
    a.bge(6, 7, f_done);
    a.emit(e::slli(28, 6, 5));
    a.emit(e::sub(28, 28, 6));
    a.emit(e::addi(28, 28, 7));
    a.emit(e::andi(28, 28, 63));
    a.emit(e::add(30, 5, 6));
    a.emit(e::sb(28, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(f_top);
    a.bind(f_done);
    // State at 640: s[i] = (i*17 + 1) & 63.
    a.emit(e::addi(8, 0, 640));
    a.emit(e::addi(6, 0, 0));
    a.emit(e::addi(7, 0, 16));
    let s_done = a.new_label();
    let s_top = a.here();
    a.bge(6, 7, s_done);
    a.emit(e::slli(28, 6, 4));
    a.emit(e::add(28, 28, 6));
    a.emit(e::addi(28, 28, 1));
    a.emit(e::andi(28, 28, 63));
    a.emit(e::add(30, 8, 6));
    a.emit(e::sb(28, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(s_top);
    a.bind(s_done);
    // 4 rounds: sub-bytes through the sbox, then xor neighbours.
    a.emit_c(e::c_li(12, 4));
    let r_top = a.here();
    a.emit(e::addi(6, 0, 0));
    let sub_done = a.new_label();
    let sub_top = a.here();
    a.emit(e::addi(7, 0, 16));
    a.bge(6, 7, sub_done);
    a.emit(e::add(30, 8, 6));
    a.emit(e::lbu(13, 30, 0));
    a.emit(e::add(14, 5, 13));
    a.emit(e::lbu(15, 14, 0)); // sbox[s[i]]
                               // xor with the next byte (wrap via andi 15).
    a.emit(e::addi(16, 6, 1));
    a.emit(e::andi(16, 16, 15));
    a.emit(e::add(17, 8, 16));
    a.emit(e::lbu(18, 17, 0));
    a.emit(e::xor(15, 15, 18));
    a.emit(e::sb(15, 30, 0));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(sub_top);
    a.bind(sub_done);
    a.emit_c(e::c_addi(12, -1));
    let off = r_top as i64 - a.here() as i64;
    a.emit(e::bne(12, 0, off as i32));
    // Fold: x10 = xor of all state bytes shifted by index.
    a.emit(e::addi(10, 0, 0));
    a.emit(e::addi(6, 0, 0));
    a.emit(e::addi(7, 0, 16));
    let k_done = a.new_label();
    let k_top = a.here();
    a.bge(6, 7, k_done);
    a.emit(e::add(30, 8, 6));
    a.emit(e::lbu(13, 30, 0));
    a.emit(e::andi(14, 6, 3));
    a.emit(e::sll(13, 13, 14));
    a.emit(e::xor(10, 10, 13));
    a.emit_c(e::c_addi(6, 1));
    a.jump_back(k_top);
    a.bind(k_done);
    a.emit(e::ecall());
    RvKernel {
        name: "rijndael",
        image: a.finish(),
        fuel: 50_000,
    }
}
