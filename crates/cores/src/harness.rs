//! A gate-level execution harness: drives a generated core netlist with
//! byte-addressable instruction/data memories ("magic" single-cycle
//! memories, matching the cores' combinational memory ports).

use crate::ibex::IbexCore;
use pdat_netlist::{NetId, Simulator};

/// Runs an [`IbexCore`] netlist against in-memory program and data images.
#[derive(Debug)]
pub struct CoreHarness<'a> {
    core: &'a IbexCore,
    sim: Simulator<'a>,
    /// Instruction memory image (byte addressed from 0).
    pub imem: Vec<u8>,
    /// Data memory image (byte addressed from 0).
    pub dmem: Vec<u8>,
    /// Retire trace: `(pc, cycle)` per retired instruction.
    pub retires: Vec<(u32, u64)>,
    cycle: u64,
}

impl<'a> CoreHarness<'a> {
    /// Create a harness with the given program image and data memory size.
    pub fn new(core: &'a IbexCore, program: &[u8], dmem_size: usize) -> CoreHarness<'a> {
        CoreHarness {
            core,
            sim: Simulator::new(&core.netlist),
            imem: program.to_vec(),
            dmem: vec![0; dmem_size],
            retires: Vec::new(),
            cycle: 0,
        }
    }

    fn read_word(&self, nets: &[NetId]) -> u32 {
        nets.iter()
            .enumerate()
            .map(|(i, &n)| (self.sim.value(n) as u32) << i)
            .sum()
    }

    fn fetch(&self, addr: u32) -> u32 {
        let mut w = 0u32;
        for i in 0..4 {
            let a = addr.wrapping_add(i) as usize;
            let byte = if a < self.imem.len() { self.imem[a] } else { 0 };
            w |= (byte as u32) << (8 * i);
        }
        w
    }

    /// Architectural register value (x0..x31).
    pub fn reg(&self, r: usize) -> u32 {
        if r == 0 {
            return 0;
        }
        self.read_word(&self.core.regs[r])
    }

    /// Read a little-endian word from data memory.
    pub fn dmem_word(&self, addr: usize) -> u32 {
        u32::from_le_bytes(self.dmem[addr..addr + 4].try_into().unwrap())
    }

    /// Advance one clock cycle; services instruction fetch, load data, and
    /// store commits.
    pub fn step(&mut self) {
        // 1. Present the instruction at the current fetch address.
        let pc = self.read_word(&self.core.instr_addr_out);
        let word = self.fetch(pc);
        let assigns: Vec<(NetId, bool)> = self
            .core
            .instr_in
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, word >> i & 1 == 1))
            .collect();
        self.sim.set_inputs(&assigns);

        // 2. Service a load: present the addressed word on data_rdata.
        let daddr = self.read_word(&self.core.data_addr_out) as usize;
        let rdata = if daddr + 4 <= self.dmem.len() {
            self.dmem_word(daddr)
        } else {
            0
        };
        let assigns: Vec<(NetId, bool)> = self
            .core
            .data_rdata_in
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, rdata >> i & 1 == 1))
            .collect();
        self.sim.set_inputs(&assigns);

        // 3. Commit a store if strobed.
        if self.sim.value(self.core.data_we_out) {
            let wdata = self.read_word(&self.core.data_wdata_out);
            for (i, &ben) in self.core.data_be_out.iter().enumerate() {
                if self.sim.value(ben) {
                    let a = daddr + i;
                    if a < self.dmem.len() {
                        self.dmem[a] = (wdata >> (8 * i)) as u8;
                    }
                }
            }
        }

        // 4. Record retirement.
        if self.sim.value(self.core.retire_out) {
            let rpc = self.read_word(&self.core.retire_pc_out);
            self.retires.push((rpc, self.cycle));
        }

        // 5. Clock edge.
        self.sim.step();
        self.cycle += 1;
    }

    /// Run until `n` instructions have retired (or `max_cycles` elapse).
    ///
    /// Returns the number of retired instructions.
    pub fn run_until_retires(&mut self, n: usize, max_cycles: u64) -> usize {
        while self.retires.len() < n && self.cycle < max_cycles {
            self.step();
        }
        self.retires.len()
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibex::build_ibex;
    use pdat_isa::rv32::{encode as e, Assembler};

    fn run(program: Vec<u8>, retires: usize, max_cycles: u64) -> (IbexCoreBox, usize) {
        let core = build_ibex();
        core.netlist.validate().expect("core netlist valid");
        let mut h = CoreHarness::new(&core, &program, 4096);
        let done = h.run_until_retires(retires, max_cycles);
        // Collect registers before dropping the borrow.
        let regs: Vec<u32> = (0..32).map(|r| h.reg(r)).collect();
        let dmem = h.dmem.clone();
        let cycles = h.cycles();
        (IbexCoreBox { regs, dmem, cycles }, done)
    }

    struct IbexCoreBox {
        regs: Vec<u32>,
        dmem: Vec<u8>,
        cycles: u64,
    }

    #[test]
    fn arithmetic_and_logic() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 100)); // x1 = 100
        a.emit(e::addi(2, 0, -3)); // x2 = -3
        a.emit(e::add(3, 1, 2)); // x3 = 97
        a.emit(e::sub(4, 1, 2)); // x4 = 103
        a.emit(e::xori(5, 1, 0xFF)); // x5 = 100 ^ 255
        a.emit(e::or(6, 1, 2)); // x6 = 100 | -3
        a.emit(e::and(7, 1, 2)); // x7 = 100 & -3
        a.emit(e::slli(8, 1, 4)); // x8 = 1600
        a.emit(e::srai(9, 2, 1)); // x9 = -2
        a.emit(e::slt(10, 2, 1)); // x10 = 1
        a.emit(e::sltu(11, 2, 1)); // x11 = 0 (-3 as unsigned is huge)
        let (s, n) = run(a.finish(), 11, 100);
        assert_eq!(n, 11);
        assert_eq!(s.regs[1], 100);
        assert_eq!(s.regs[2] as i32, -3);
        assert_eq!(s.regs[3], 97);
        assert_eq!(s.regs[4], 103);
        assert_eq!(s.regs[5], 100 ^ 255);
        assert_eq!(s.regs[6] as i32, 100 | -3);
        assert_eq!(s.regs[7] as i32, 100 & -3);
        assert_eq!(s.regs[8], 1600);
        assert_eq!(s.regs[9] as i32, -2);
        assert_eq!(s.regs[10], 1);
        assert_eq!(s.regs[11], 0);
    }

    #[test]
    fn lui_auipc_and_jumps() {
        let mut a = Assembler::new();
        a.emit(e::lui(1, 0x12345)); // x1 = 0x12345000
        a.emit(e::auipc(2, 1)); // x2 = 4 + 0x1000
        let skip = a.new_label();
        a.jal(3, skip); // x3 = pc+4 = 12
        a.emit(e::addi(4, 0, 99)); // skipped
        a.bind(skip);
        a.emit(e::addi(5, 0, 7));
        let (s, n) = run(a.finish(), 4, 100);
        assert_eq!(n, 4);
        assert_eq!(s.regs[1], 0x12345000);
        assert_eq!(s.regs[2], 0x1004);
        assert_eq!(s.regs[3], 12);
        assert_eq!(s.regs[4], 0, "skipped instruction must not retire");
        assert_eq!(s.regs[5], 7);
    }

    #[test]
    fn countdown_loop() {
        // x1 = 5; x2 = 0; while (x1 != 0) { x2 += x1; x1 -= 1 }
        let mut a = Assembler::new();
        let done = a.new_label();
        a.emit(e::addi(1, 0, 5));
        a.emit(e::addi(2, 0, 0));
        let top = a.here();
        a.beq(1, 0, done);
        a.emit(e::add(2, 2, 1));
        a.emit(e::addi(1, 1, -1));
        a.jump_back(top);
        a.bind(done);
        a.emit(e::addi(3, 0, 1));
        let (s, _) = run(a.finish(), 2 + 5 * 4 + 1 + 1, 300);
        assert_eq!(s.regs[2], 15);
        assert_eq!(s.regs[1], 0);
        assert_eq!(s.regs[3], 1);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 64)); // base
        a.emit(e::lui(2, 0xDEADC)); // x2 = 0xDEADC000
        a.emit(e::addi(2, 2, -0x201)); // x2 = 0xDEADBDFF
        a.emit(e::sw(2, 1, 0));
        a.emit(e::lw(3, 1, 0));
        a.emit(e::lb(4, 1, 0)); // 0xFF -> -1
        a.emit(e::lbu(5, 1, 0)); // 0xFF
        a.emit(e::lh(6, 1, 0)); // 0xBDFF -> sign-extended
        a.emit(e::lhu(7, 1, 2)); // 0xDEAD
        a.emit(e::sb(2, 1, 8)); // store byte 0xFF at 72
        a.emit(e::sh(2, 1, 12)); // store half 0xBDFF at 76
        a.emit(e::lw(8, 1, 8));
        a.emit(e::lw(9, 1, 12));
        let (s, n) = run(a.finish(), 13, 200);
        assert_eq!(n, 13);
        assert_eq!(s.regs[2], 0xDEADBDFF);
        assert_eq!(s.regs[3], 0xDEADBDFF);
        assert_eq!(s.regs[4] as i32, -1);
        assert_eq!(s.regs[5], 0xFF);
        assert_eq!(s.regs[6] as i32, 0xBDFFu32 as u16 as i16 as i32);
        assert_eq!(s.regs[7], 0xDEAD);
        assert_eq!(s.regs[8], 0xFF);
        assert_eq!(s.regs[9], 0xBDFF);
        assert_eq!(
            u32::from_le_bytes(s.dmem[64..68].try_into().unwrap()),
            0xDEADBDFF
        );
    }

    #[test]
    fn multiply_divide_with_stalls() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, -7)); // x1 = -7
        a.emit(e::addi(2, 0, 3)); // x2 = 3
        a.emit(e::mul(3, 1, 2)); // -21
        a.emit(e::mulh(4, 1, 2)); // high of -21 = -1
        a.emit(e::mulhu(5, 1, 2)); // high of (2^32-7)*3
        a.emit(e::mulhsu(6, 1, 2)); // high of -7 * 3 (b unsigned) = -1
        a.emit(e::div(7, 1, 2)); // -2 (round toward zero)
        a.emit(e::rem(8, 1, 2)); // -1
        a.emit(e::divu(9, 1, 2)); // (2^32-7)/3
        a.emit(e::remu(10, 1, 2)); // (2^32-7)%3
        a.emit(e::div(11, 1, 0)); // div by zero -> -1
        a.emit(e::rem(12, 1, 0)); // rem by zero -> dividend
        let (s, n) = run(a.finish(), 12, 1000);
        assert_eq!(n, 12);
        assert_eq!(s.regs[3] as i32, -21);
        assert_eq!(s.regs[4] as i32, -1);
        let au = (-7i32 as u32) as u64;
        assert_eq!(s.regs[5], ((au * 3) >> 32) as u32);
        assert_eq!(s.regs[6] as i32, ((-7i64 * 3) >> 32) as i32);
        assert_eq!(s.regs[7] as i32, -2);
        assert_eq!(s.regs[8] as i32, -1);
        assert_eq!(s.regs[9], ((-7i32 as u32) / 3));
        assert_eq!(s.regs[10], ((-7i32 as u32) % 3));
        assert_eq!(s.regs[11], u32::MAX);
        assert_eq!(s.regs[12] as i32, -7);
        // 8 mul/div at ~33 cycles each dominate: sanity-check stalling.
        assert!(
            s.cycles > 8 * 30,
            "expected stalls, got {} cycles",
            s.cycles
        );
    }

    #[test]
    fn signed_overflow_division() {
        let mut a = Assembler::new();
        a.emit(e::lui(1, 0x80000)); // x1 = INT_MIN
        a.emit(e::addi(2, 0, -1)); // x2 = -1
        a.emit(e::div(3, 1, 2)); // INT_MIN
        a.emit(e::rem(4, 1, 2)); // 0
        let (s, n) = run(a.finish(), 4, 200);
        assert_eq!(n, 4);
        assert_eq!(s.regs[3], 0x8000_0000);
        assert_eq!(s.regs[4], 0);
    }

    #[test]
    fn compressed_instructions_execute() {
        let mut a = Assembler::new();
        a.emit_c(e::c_li(8, 21)); // x8 = 21
        a.emit_c(e::c_addi(8, 10)); // x8 = 31
        a.emit_c(e::c_mv(9, 8)); // x9 = 31
        a.emit_c(e::c_add(9, 8)); // x9 = 62
        a.emit_c(e::c_slli(9, 1)); // x9 = 124
        a.emit_c(e::c_srli(9, 2)); // x9 = 31
        a.emit(e::addi(10, 9, 1)); // x10 = 32 (32-bit after odd count)
        let (s, n) = run(a.finish(), 7, 100);
        assert_eq!(n, 7);
        assert_eq!(s.regs[8], 31);
        assert_eq!(s.regs[9], 31);
        assert_eq!(s.regs[10], 32);
    }

    #[test]
    fn compressed_branches_and_jumps() {
        let mut a = Assembler::new();
        a.emit_c(e::c_li(8, 0)); // x8 = 0
                                 // c.bnez x8 forward +6 (should NOT branch)
        a.emit_c(e::c_bnez(8, 6));
        a.emit_c(e::c_addi(8, 1)); // executed: x8 = 1
                                   // c.beqz x9 (x9==0) forward +4: skip next
        a.emit_c(e::c_beqz(9, 4));
        a.emit_c(e::c_addi(8, 8)); // skipped
        a.emit_c(e::c_li(10, 5)); // x10 = 5
        let (s, n) = run(a.finish(), 5, 100);
        assert_eq!(n, 5);
        assert_eq!(s.regs[8], 1);
        assert_eq!(s.regs[10], 5);
    }

    #[test]
    fn csr_read_write_and_cycle_counter() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 0x55));
        a.emit(e::csrrw(0, 0x340, 1)); // mscratch = 0x55
        a.emit(e::csrrs(2, 0x340, 0)); // x2 = mscratch
        a.emit(e::csrrwi(3, 0x340, 0xA)); // x3 = 0x55, mscratch = 0xA
        a.emit(e::csrrs(4, 0x340, 0)); // x4 = 0xA
        a.emit(e::csrrs(5, 0xB00, 0)); // x5 = mcycle (nonzero by now)
        let (s, n) = run(a.finish(), 6, 100);
        assert_eq!(n, 6);
        assert_eq!(s.regs[2], 0x55);
        assert_eq!(s.regs[3], 0x55);
        assert_eq!(s.regs[4], 0xA);
        assert!(s.regs[5] > 0, "mcycle should count");
    }

    #[test]
    fn ecall_traps_to_mtvec() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 0x40)); // handler address
        a.emit(e::csrrw(0, 0x305, 1)); // mtvec = 0x40
        a.emit(e::ecall());
        // Pad until 0x40.
        while a.here() < 0x40 {
            a.emit(e::addi(0, 0, 0));
        }
        // Handler:
        a.emit(e::csrrs(2, 0x341, 0)); // x2 = mepc (= 8)
        a.emit(e::csrrs(3, 0x342, 0)); // x3 = mcause (= 11)
        let (s, _) = run(a.finish(), 5, 200);
        assert_eq!(s.regs[2], 8, "mepc records the ecall pc");
        assert_eq!(s.regs[3], 11, "mcause = ecall from M-mode");
    }

    #[test]
    fn fence_is_a_nop() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 1));
        a.emit(e::fence());
        a.emit(e::fence_i());
        a.emit(e::addi(2, 0, 2));
        let (s, n) = run(a.finish(), 4, 50);
        assert_eq!(n, 4);
        assert_eq!(s.regs[1], 1);
        assert_eq!(s.regs[2], 2);
    }
}

/// Runs a [`crate::CortexM0Core`] netlist against program/data images.
#[derive(Debug)]
pub struct ThumbHarness<'a> {
    core: &'a crate::cortexm0::CortexM0Core,
    sim: Simulator<'a>,
    /// Instruction memory (byte addressed from 0).
    pub imem: Vec<u8>,
    /// Data memory (byte addressed from 0).
    pub dmem: Vec<u8>,
    /// Retired-instruction count.
    pub retired: usize,
    cycle: u64,
}

impl<'a> ThumbHarness<'a> {
    /// Create a harness over the core.
    pub fn new(
        core: &'a crate::cortexm0::CortexM0Core,
        program: &[u8],
        dmem_size: usize,
    ) -> ThumbHarness<'a> {
        ThumbHarness {
            core,
            sim: Simulator::new(&core.netlist),
            imem: program.to_vec(),
            dmem: vec![0; dmem_size],
            retired: 0,
            cycle: 0,
        }
    }

    fn read_word(&self, nets: &[NetId]) -> u32 {
        nets.iter()
            .enumerate()
            .map(|(i, &n)| (self.sim.value(n) as u32) << i)
            .sum()
    }

    /// Architectural register r0..r14.
    pub fn reg(&self, r: usize) -> u32 {
        self.read_word(&self.core.regs[r])
    }

    /// Little-endian data memory word.
    pub fn dmem_word(&self, addr: usize) -> u32 {
        u32::from_le_bytes(self.dmem[addr..addr + 4].try_into().unwrap())
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let pc = self.read_word(&self.core.instr_addr_out);
        let mut hw = 0u16;
        for i in 0..2 {
            let a = pc.wrapping_add(i) as usize;
            if a < self.imem.len() {
                hw |= (self.imem[a] as u16) << (8 * i);
            }
        }
        let assigns: Vec<(NetId, bool)> = self
            .core
            .instr_in
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, hw >> i & 1 == 1))
            .collect();
        self.sim.set_inputs(&assigns);

        let daddr = self.read_word(&self.core.data_addr_out) as usize;
        let rdata = if daddr + 4 <= self.dmem.len() {
            self.dmem_word(daddr)
        } else {
            0
        };
        let assigns: Vec<(NetId, bool)> = self
            .core
            .data_rdata_in
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, rdata >> i & 1 == 1))
            .collect();
        self.sim.set_inputs(&assigns);

        if self.sim.value(self.core.data_we_out) {
            let wdata = self.read_word(&self.core.data_wdata_out);
            for (i, &ben) in self.core.data_be_out.iter().enumerate() {
                if self.sim.value(ben) {
                    let a = daddr + i;
                    if a < self.dmem.len() {
                        self.dmem[a] = (wdata >> (8 * i)) as u8;
                    }
                }
            }
        }

        if self.sim.value(self.core.retire_out) {
            self.retired += 1;
        }
        self.sim.step();
        self.cycle += 1;
    }

    /// Run until `n` retires or `max_cycles`.
    pub fn run_until_retires(&mut self, n: usize, max_cycles: u64) -> usize {
        while self.retired < n && self.cycle < max_cycles {
            self.step();
        }
        self.retired
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod m0_tests {
    use super::*;
    use crate::cortexm0::build_cortexm0;
    use pdat_isa::armv6m::{encode::*, ThumbAssembler};

    struct M0State {
        regs: Vec<u32>,
        dmem: Vec<u8>,
        cycles: u64,
    }

    fn run(program: Vec<u8>, retires: usize, max_cycles: u64) -> (M0State, usize) {
        let core = build_cortexm0();
        core.netlist.validate().expect("m0 netlist valid");
        let mut h = ThumbHarness::new(&core, &program, 4096);
        let n = h.run_until_retires(retires, max_cycles);
        let regs = (0..15).map(|r| h.reg(r)).collect();
        (
            M0State {
                regs,
                dmem: h.dmem.clone(),
                cycles: h.cycles(),
            },
            n,
        )
    }

    #[test]
    fn mov_add_sub_flags() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 10)); // r0 = 10
        a.emit(t_mov_imm(1, 3)); // r1 = 3
        a.emit(t_add_reg(2, 0, 1)); // r2 = 13
        a.emit(t_sub_reg(3, 0, 1)); // r3 = 7
        a.emit(t_add_imm3(4, 3, 7)); // r4 = 14
        a.emit(t_sub_imm8(4, 10)); // r4 = 4
        a.emit(t_rsb(5, 1)); // r5 = -3
        let (s, n) = run(a.finish(), 7, 100);
        assert_eq!(n, 7);
        assert_eq!(s.regs[2], 13);
        assert_eq!(s.regs[3], 7);
        assert_eq!(s.regs[4], 4);
        assert_eq!(s.regs[5] as i32, -3);
    }

    #[test]
    fn logic_and_shifts() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 0xF0));
        a.emit(t_mov_imm(1, 0x3C));
        a.emit(t_mov_reg(2, 0));
        a.emit(t_and(2, 1)); // r2 = 0x30
        a.emit(t_mov_reg(3, 0));
        a.emit(t_orr(3, 1)); // r3 = 0xFC
        a.emit(t_mov_reg(4, 0));
        a.emit(t_eor(4, 1)); // r4 = 0xCC
        a.emit(t_mvn(5, 0)); // r5 = !0xF0
        a.emit(t_lsl_imm(6, 0, 4)); // r6 = 0xF00
        a.emit(t_lsr_imm(7, 0, 4)); // r7 = 0x0F
        let (s, n) = run(a.finish(), 11, 100);
        assert_eq!(n, 11);
        assert_eq!(s.regs[2], 0x30);
        assert_eq!(s.regs[3], 0xFC);
        assert_eq!(s.regs[4], 0xCC);
        assert_eq!(s.regs[5], !0xF0u32);
        assert_eq!(s.regs[6], 0xF00);
        assert_eq!(s.regs[7], 0x0F);
    }

    #[test]
    fn compare_and_conditional_branches() {
        let mut a = ThumbAssembler::new();
        let is_less = a.new_label();
        let done = a.new_label();
        a.emit(t_mov_imm(0, 3));
        a.emit(t_mov_imm(1, 5));
        a.emit(t_cmp_reg(0, 1)); // 3 < 5
        a.b_cond(Cond::Lt, is_less);
        a.emit(t_mov_imm(2, 0)); // skipped
        a.b(done);
        a.bind(is_less);
        a.emit(t_mov_imm(2, 1)); // r2 = 1
        a.bind(done);
        a.emit(t_mov_imm(3, 9));
        let (s, n) = run(a.finish(), 6, 100);
        assert_eq!(n, 6);
        assert_eq!(s.regs[2], 1);
        assert_eq!(s.regs[3], 9);
    }

    #[test]
    fn loop_with_subs_and_bne() {
        // r0 = 5; r1 = 0; do { r1 += r0; r0 -= 1 } while (r0 != 0)
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 5));
        a.emit(t_mov_imm(1, 0));
        let top = a.here();
        a.emit(t_add_reg(1, 1, 0));
        a.emit(t_sub_imm8(0, 1)); // sets flags
                                  // bne top
        let off = top as i64 - (a.here() as i64 + 4);
        a.emit(t_b_cond(Cond::Ne, off as i32));
        a.emit(t_mov_imm(2, 1));
        let (s, _) = run(a.finish(), 2 + 5 * 3 + 1, 200);
        assert_eq!(s.regs[1], 15);
        assert_eq!(s.regs[0], 0);
        assert_eq!(s.regs[2], 1);
    }

    #[test]
    fn memory_word_byte_half() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 64)); // base
        a.emit(t_mov_imm(1, 0xAB));
        a.emit(t_lsl_imm(1, 1, 8)); // r1 = 0xAB00
        a.emit(t_add_imm8(1, 0xCD)); // r1 = 0xABCD
        a.emit(t_str_imm(1, 0, 0)); // [64] = 0xABCD
        a.emit(t_ldr_imm(2, 0, 0)); // r2 = 0xABCD
        a.emit(t_ldrb_imm(3, 0, 0)); // r3 = 0xCD
        a.emit(t_ldrh_imm(4, 0, 0)); // r4 = 0xABCD
        a.emit(t_strb_imm(1, 0, 8)); // [72] = 0xCD
        a.emit(t_ldr_imm(5, 0, 8)); // r5 = 0xCD
        let (s, n) = run(a.finish(), 10, 100);
        assert_eq!(n, 10);
        assert_eq!(s.regs[2], 0xABCD);
        assert_eq!(s.regs[3], 0xCD);
        assert_eq!(s.regs[4], 0xABCD);
        assert_eq!(s.regs[5], 0xCD);
        assert_eq!(
            u32::from_le_bytes(s.dmem[64..68].try_into().unwrap()),
            0xABCD
        );
    }

    #[test]
    fn muls_stalls_and_multiplies() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 7));
        a.emit(t_mov_imm(1, 6));
        a.emit(t_mul(0, 1)); // r0 = 42
        a.emit(t_mov_imm(2, 1));
        let (s, n) = run(a.finish(), 4, 200);
        assert_eq!(n, 4);
        assert_eq!(s.regs[0], 42);
        assert!(s.cycles > 32, "muls must stall, took {} cycles", s.cycles);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 0x80)); // sp value
                                    // mov sp, r0 : hi-reg MOV with Rd=SP (encoding 0x4685)
        a.emit(0x4685);
        a.emit(t_mov_imm(1, 11));
        a.emit(t_mov_imm(2, 22));
        a.emit(t_push(0b0000_0110)); // push {r1, r2}
        a.emit(t_mov_imm(1, 0));
        a.emit(t_mov_imm(2, 0));
        a.emit(t_pop(0b0000_0110)); // pop {r1, r2}
        let (s, n) = run(a.finish(), 8, 200);
        assert_eq!(n, 8);
        assert_eq!(s.regs[1], 11);
        assert_eq!(s.regs[2], 22);
        assert_eq!(s.regs[13], 0x80, "sp restored");
    }

    #[test]
    fn bl_and_bx_lr() {
        let mut a = ThumbAssembler::new();
        let func = a.new_label();
        a.emit(t_mov_imm(0, 1));
        a.bl(func);
        a.emit(t_mov_imm(2, 3)); // after return
        a.emit(t_nop());
        a.bind(func);
        a.emit(t_mov_imm(1, 2));
        a.emit(t_bx(14)); // return via LR
                          // retires: mov, bl(pair counts 2 retire strobes), mov r1, bx, mov r2
        let (s, _) = run(a.finish(), 6, 100);
        assert_eq!(s.regs[0], 1);
        assert_eq!(s.regs[1], 2);
        assert_eq!(s.regs[2], 3);
        assert_eq!(s.regs[14] & 1, 1, "LR has thumb bit");
    }

    #[test]
    fn extends_and_reverses() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 0xFF));
        a.emit(t_sxtb(1, 0)); // -1
        a.emit(t_uxtb(2, 0)); // 0xFF
        a.emit(t_lsl_imm(3, 0, 8)); // 0xFF00
        a.emit(t_sxth(4, 3)); // 0xFFFFFF00
        a.emit(t_rev(5, 3)); // 0x00FF0000
        let (s, n) = run(a.finish(), 6, 100);
        assert_eq!(n, 6);
        assert_eq!(s.regs[1], u32::MAX);
        assert_eq!(s.regs[2], 0xFF);
        assert_eq!(s.regs[4], 0xFFFF_FF00);
        assert_eq!(s.regs[5], 0x00FF_0000);
    }

    #[test]
    fn hints_and_barriers_are_nops() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 1));
        a.emit(t_nop());
        a.emit(0xBF20); // wfe
        a.emit(0xBF40); // sev
        a.emit(t_mov_imm(1, 2));
        let (s, n) = run(a.finish(), 5, 100);
        assert_eq!(n, 5);
        assert_eq!(s.regs[0], 1);
        assert_eq!(s.regs[1], 2);
    }
}
