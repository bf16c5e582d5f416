//! Instruction-usage profiling: the machinery behind the paper's Table I
//! and the MiBench-derived ISA subsets of Figures 5 and 6.

use crate::kernels_rv::{automotive_kernels, networking_kernels, security_kernels, RvKernel};
use crate::kernels_thumb::{
    t_automotive_kernels, t_networking_kernels, t_security_kernels, ThumbKernel,
};
use crate::rv32_iss::{Rv32Iss, RvStop};
use crate::thumb_iss::{ThumbIss, ThumbStop};
use pdat_isa::armv6m::ThumbInstr;
use pdat_isa::rv32::{RvExtension, RvInstr};
use pdat_isa::{RvSubset, ThumbSubset};
use std::collections::BTreeSet;

/// MiBench benchmark groups evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchGroup {
    /// crc32 / dijkstra / patricia.
    Networking,
    /// sha / blowfish / rijndael.
    Security,
    /// basicmath / bitcount / qsort / susan.
    Automotive,
}

impl BenchGroup {
    /// All groups in Table I order.
    pub const ALL: [BenchGroup; 3] = [
        BenchGroup::Networking,
        BenchGroup::Security,
        BenchGroup::Automotive,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchGroup::Networking => "Networking",
            BenchGroup::Security => "Security",
            BenchGroup::Automotive => "Automotive",
        }
    }

    /// RV32 kernels of the group.
    pub fn rv_kernels(self) -> Vec<RvKernel> {
        match self {
            BenchGroup::Networking => networking_kernels(),
            BenchGroup::Security => security_kernels(),
            BenchGroup::Automotive => automotive_kernels(),
        }
    }

    /// Thumb kernels of the group.
    pub fn thumb_kernels(self) -> Vec<ThumbKernel> {
        match self {
            BenchGroup::Networking => t_networking_kernels(),
            BenchGroup::Security => t_security_kernels(),
            BenchGroup::Automotive => t_automotive_kernels(),
        }
    }
}

/// Run one RV32 kernel to completion; returns the ISS for inspection.
///
/// # Panics
///
/// Panics if the kernel doesn't exit via `ecall` (kernels are trusted
/// fixtures; a non-`ecall` stop is a bug).
pub fn run_rv_kernel(k: &RvKernel) -> Rv32Iss {
    let mut iss = Rv32Iss::new(&k.image, 4096);
    let stop = iss.run(k.fuel);
    assert_eq!(
        stop,
        RvStop::Ecall,
        "kernel {} stopped with {stop:?} at pc={:#x}",
        k.name,
        iss.pc
    );
    iss
}

/// Run one Thumb kernel to completion.
///
/// # Panics
///
/// Panics if the kernel doesn't exit via `bkpt`.
pub fn run_thumb_kernel(k: &ThumbKernel) -> ThumbIss {
    let mut iss = ThumbIss::new(&k.image, 4096);
    let stop = iss.run(k.fuel);
    assert_eq!(
        stop,
        ThumbStop::Bkpt,
        "kernel {} stopped with {stop:?} at pc={:#x}",
        k.name,
        iss.pc
    );
    iss
}

/// The distinct RV32 instruction forms used by a benchmark group.
pub fn rv_group_usage(group: BenchGroup) -> BTreeSet<RvInstr> {
    let mut used = BTreeSet::new();
    for k in group.rv_kernels() {
        let iss = run_rv_kernel(&k);
        used.extend(iss.used_forms());
    }
    used
}

/// The distinct Thumb forms used by a benchmark group.
pub fn thumb_group_usage(group: BenchGroup) -> BTreeSet<ThumbInstr> {
    let mut used = BTreeSet::new();
    for k in group.thumb_kernels() {
        let iss = run_thumb_kernel(&k);
        used.extend(iss.used_forms());
    }
    used
}

/// One row of the paper's Table I (Ibex half): instructions used per
/// extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Column label.
    pub label: String,
    /// `(extension, used, supported)` triples.
    pub counts: Vec<(RvExtension, usize, usize)>,
    /// Total used.
    pub total: usize,
    /// Total supported.
    pub supported: usize,
}

/// Compute the Ibex half of Table I from actual kernel execution.
pub fn table1_rv() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let mut union: BTreeSet<RvInstr> = BTreeSet::new();
    let per_group: Vec<(BenchGroup, BTreeSet<RvInstr>)> = BenchGroup::ALL
        .iter()
        .map(|&g| (g, rv_group_usage(g)))
        .collect();
    for (g, used) in &per_group {
        union.extend(used.iter().copied());
        rows.push(make_row(g.name(), used));
    }
    rows.push(make_row("Total", &union));
    rows
}

fn make_row(label: &str, used: &BTreeSet<RvInstr>) -> Table1Row {
    use RvExtension::*;
    let counts = [I, M, C, Zicsr]
        .into_iter()
        .map(|ext| {
            let supported = RvInstr::ALL.iter().filter(|i| i.extension() == ext).count();
            let u = used.iter().filter(|i| i.extension() == ext).count();
            (ext, u, supported)
        })
        .collect::<Vec<_>>();
    Table1Row {
        label: label.to_string(),
        counts,
        total: used.len(),
        supported: RvInstr::ALL.len(),
    }
}

/// The Cortex-M0 half of Table I: `(group name, used, supported)` rows.
pub fn table1_thumb() -> Vec<(String, usize, usize)> {
    let mut rows = Vec::new();
    let mut union: BTreeSet<ThumbInstr> = BTreeSet::new();
    for g in BenchGroup::ALL {
        let used = thumb_group_usage(g);
        union.extend(used.iter().copied());
        rows.push((g.name().to_string(), used.len(), ThumbInstr::ALL.len()));
    }
    rows.push(("Total".to_string(), union.len(), ThumbInstr::ALL.len()));
    rows
}

/// The MiBench-derived RV32 ISA subset for a group (Fig. 5, middle panel).
pub fn mibench_rv_subset(group: BenchGroup) -> RvSubset {
    RvSubset::new(format!("MiBench {}", group.name()), rv_group_usage(group))
}

/// The union subset over all groups ("MiBench All").
pub fn mibench_rv_all() -> RvSubset {
    let mut all: BTreeSet<RvInstr> = BTreeSet::new();
    for g in BenchGroup::ALL {
        all.extend(rv_group_usage(g));
    }
    RvSubset::new("MiBench All", all)
}

/// The MiBench-derived Thumb subset for a group (Fig. 6).
pub fn mibench_thumb_subset(group: BenchGroup) -> ThumbSubset {
    ThumbSubset::new(
        format!("MiBench {}", group.name()),
        thumb_group_usage(group),
    )
}

/// The union Thumb subset over all groups.
pub fn mibench_thumb_all() -> ThumbSubset {
    let mut all: BTreeSet<ThumbInstr> = BTreeSet::new();
    for g in BenchGroup::ALL {
        all.extend(thumb_group_usage(g));
    }
    ThumbSubset::new("MiBench All", all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rv_kernels_run_and_produce_expected_results() {
        // crc32 of the synthetic buffer, cross-checked in Rust.
        let iss = run_rv_kernel(&crate::kernels_rv::crc32());
        let buf: Vec<u8> = (0..16u32).map(|i| (0x5A ^ (i * 7)) as u8).collect();
        let mut crc = u32::MAX;
        for &b in &buf {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^= u32::MAX;
        assert_eq!(iss.regs[10], crc, "gate-checked CRC32");

        // dijkstra: shortest 0 -> 4 in the classic graph = 11 (0->2->4).
        let iss = run_rv_kernel(&crate::kernels_rv::dijkstra());
        assert_eq!(iss.regs[10], 11);

        // patricia: count matches computed in Rust.
        let iss = run_rv_kernel(&crate::kernels_rv::patricia());
        let prefixes: [(u32, u32); 4] = [
            (0xC0A8_0000, 16),
            (0xC0A8_0100, 24),
            (0x0A00_0000, 8),
            (0xAC10_0000, 12),
        ];
        let base = 0xC0A8_0137u32;
        let mut matches = 0;
        for i in 0..8u32 {
            let key = base.rotate_left(i);
            for &(v, l) in &prefixes {
                let mask = !(u32::MAX >> l);
                if key & mask == v & mask {
                    matches += 1;
                }
            }
        }
        assert_eq!(iss.regs[10], matches);

        // basicmath: isqrt(1234567) = 1111, gcd(3528,3780) = 252.
        let iss = run_rv_kernel(&crate::kernels_rv::basicmath());
        assert_eq!(iss.regs[10], 1111 * 1000 + 252);

        // bitcount: cross-check against Rust popcounts of the same PRNG.
        let iss = run_rv_kernel(&crate::kernels_rv::bitcount());
        let mut s = 0x2545_F491u32;
        let mut total = 0;
        for _ in 0..24 {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            total += s.count_ones();
        }
        assert_eq!(iss.regs[10], total);

        // qsort: checksum of the sorted array.
        let iss = run_rv_kernel(&crate::kernels_rv::qsort());
        let mut s = 0x1337_F001u32;
        let mut arr: Vec<u32> = (0..16)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                s
            })
            .collect();
        arr.sort_by_key(|&x| x as i32);
        let ck: u32 = arr
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &x)| acc.wrapping_add(x ^ i as u32));
        assert_eq!(iss.regs[10], ck);

        // susan: weighted above-threshold count.
        let iss = run_rv_kernel(&crate::kernels_rv::susan());
        let mut expect = 0u32;
        for i in 0..64u32 {
            let px = (i * 37 + 11) & 0xFF;
            if px >= 128 {
                let d = (i as i32 - 32).unsigned_abs();
                expect = expect.wrapping_add(d * px);
            }
        }
        assert_eq!(iss.regs[10], expect);

        // The remaining kernels at least terminate correctly.
        run_rv_kernel(&crate::kernels_rv::sha_mix());
        run_rv_kernel(&crate::kernels_rv::feistel());
        run_rv_kernel(&crate::kernels_rv::rijndael());
    }

    #[test]
    fn rijndael_matches_rust_reference() {
        let iss = run_rv_kernel(&crate::kernels_rv::rijndael());
        // Reference implementation of the same rounds.
        let sbox: Vec<u8> = (0..64u32).map(|i| ((i * 31 + 7) & 63) as u8).collect();
        let mut state: Vec<u8> = (0..16u32).map(|i| ((i * 17 + 1) & 63) as u8).collect();
        for _ in 0..4 {
            for i in 0..16 {
                let sub = sbox[state[i] as usize & 63];
                let next = state[(i + 1) & 15];
                state[i] = sub ^ next;
            }
        }
        let mut fold = 0u32;
        for (i, &b) in state.iter().enumerate() {
            fold ^= (b as u32) << (i & 3);
        }
        assert_eq!(iss.regs[10], fold);
    }

    #[test]
    fn thumb_dijkstra_converges() {
        let iss = run_thumb_kernel(&crate::kernels_thumb::t_dijkstra());
        // dist[7] after full relaxation = 7 edges * 5 = 35.
        assert_eq!(iss.regs[0], 35);
    }

    #[test]
    fn thumb_patricia_counts_matches() {
        let iss = run_thumb_kernel(&crate::kernels_thumb::t_patricia());
        // Reference: rotate 0xC0A8 left over 16 bits, count (k>>8)&0xFF == 0xC0.
        let mut key = 0xC0A8u16;
        let mut matches = 0;
        for _ in 0..8 {
            if key >> 8 == 0xC0 {
                matches += 1;
            }
            key = key.rotate_left(1);
        }
        assert_eq!(iss.regs[0], matches);
    }

    #[test]
    fn all_thumb_kernels_run() {
        for g in BenchGroup::ALL {
            for k in g.thumb_kernels() {
                run_thumb_kernel(&k);
            }
        }
    }

    #[test]
    fn thumb_sort_sorts() {
        let iss = run_thumb_kernel(&crate::kernels_thumb::t_sort());
        // a = [32,31,...,25] sorted ascending = [25..=32]; r0 = a[0]+2*a[7].
        assert_eq!(iss.regs[0], 25 + 2 * 32);
    }

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1_rv();
        assert_eq!(rows.len(), 4);
        // Security uses no M-extension instructions (paper: 0).
        let security = &rows[1];
        assert_eq!(security.label, "Security");
        let m = security
            .counts
            .iter()
            .find(|(e, _, _)| *e == RvExtension::M)
            .unwrap();
        assert_eq!(m.1, 0, "security group must avoid M");
        // No group uses Zicsr (paper: 0 everywhere).
        for row in &rows {
            let z = row
                .counts
                .iter()
                .find(|(e, _, _)| *e == RvExtension::Zicsr)
                .unwrap();
            assert_eq!(z.1, 0, "{}: kernels never touch CSRs", row.label);
        }
        // Automotive uses the M extension; each group uses a strict subset
        // of the base ISA; the total row dominates each group.
        let automotive = &rows[2];
        let m = automotive
            .counts
            .iter()
            .find(|(e, _, _)| *e == RvExtension::M)
            .unwrap();
        assert!(m.1 >= 2, "automotive uses mul/div/rem");
        let total = &rows[3];
        for row in &rows[..3] {
            assert!(row.total <= total.total);
            assert!(row.total < row.supported);
        }
        // Every group uses some compressed instructions.
        for row in &rows[..3] {
            let c = row
                .counts
                .iter()
                .find(|(e, _, _)| *e == RvExtension::C)
                .unwrap();
            assert!(c.1 > 0, "{} uses compressed forms", row.label);
        }
    }

    #[test]
    fn thumb_table_shape() {
        let rows = table1_thumb();
        assert_eq!(rows.len(), 4);
        let total = rows[3].1;
        for (label, used, supported) in &rows[..3] {
            assert!(*used > 0, "{label} uses instructions");
            assert!(used <= &total);
            assert!(used < supported);
        }
        // Security avoids multiply on the M0 too.
        let sec = thumb_group_usage(BenchGroup::Security);
        assert!(!sec.contains(&ThumbInstr::Muls));
    }

    #[test]
    fn mibench_subsets_are_consistent() {
        let all = mibench_rv_all();
        for g in BenchGroup::ALL {
            let sub = mibench_rv_subset(g);
            assert!(sub.instrs.is_subset(&all.instrs));
        }
        let t_all = mibench_thumb_all();
        for g in BenchGroup::ALL {
            let sub = mibench_thumb_subset(g);
            assert!(sub.instrs.is_subset(&t_all.instrs));
        }
    }
}
