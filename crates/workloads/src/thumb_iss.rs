//! An ARMv6-M (Thumb) instruction-set simulator with form profiling.
//!
//! Covers the forms the MiBench-like Thumb kernels use (data processing
//! with flags, shifts, compares, branches, loads/stores, push/pop, BL/BX,
//! MULS, extends/reverses). System forms stop the run.

use pdat_isa::armv6m::{thumb_decode_form, ThumbInstr};
use std::collections::BTreeMap;

/// Halt conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThumbStop {
    /// `bkpt` executed (the kernels' exit convention).
    Bkpt,
    /// `svc`/`udf` executed.
    System,
    /// Unknown or unsupported encoding at `pc`.
    Unsupported(u32),
    /// Step budget exhausted.
    Fuel,
}

/// ARMv6-M ISS.
#[derive(Debug, Clone)]
pub struct ThumbIss {
    /// r0..r15 (r13 = SP, r14 = LR, r15 unused; pc tracked separately).
    pub regs: [u32; 16],
    /// Program counter (halfword aligned).
    pub pc: u32,
    /// N, Z, C, V flags.
    pub flags: (bool, bool, bool, bool),
    /// Flat memory.
    pub mem: Vec<u8>,
    /// Executed-form histogram.
    pub profile: BTreeMap<ThumbInstr, u64>,
    /// Instructions retired.
    pub retired: u64,
}

impl ThumbIss {
    /// Create an ISS with the program loaded at 0.
    ///
    /// # Panics
    ///
    /// Panics if the program doesn't fit.
    pub fn new(program: &[u8], mem_size: usize) -> ThumbIss {
        assert!(program.len() <= mem_size);
        let mut mem = vec![0; mem_size];
        mem[..program.len()].copy_from_slice(program);
        ThumbIss {
            regs: [0; 16],
            pc: 0,
            flags: (false, false, false, false),
            mem,
            profile: BTreeMap::new(),
            retired: 0,
        }
    }

    fn load(&self, addr: u32, bytes: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..bytes {
            let a = addr.wrapping_add(i) as usize;
            if a < self.mem.len() {
                v |= (self.mem[a] as u32) << (8 * i);
            }
        }
        v
    }

    fn store(&mut self, addr: u32, v: u32, bytes: u32) {
        for i in 0..bytes {
            let a = addr.wrapping_add(i) as usize;
            if a < self.mem.len() {
                self.mem[a] = (v >> (8 * i)) as u8;
            }
        }
    }

    fn nz(&mut self, v: u32) {
        self.flags.0 = v >> 31 & 1 == 1;
        self.flags.1 = v == 0;
    }

    fn add_with_flags(&mut self, a: u32, b: u32, cin: u32) -> u32 {
        let wide = a as u64 + b as u64 + cin as u64;
        let r = wide as u32;
        self.nz(r);
        self.flags.2 = wide >> 32 != 0;
        self.flags.3 = ((a ^ r) & (b ^ r)) >> 31 & 1 == 1;
        r
    }

    /// Run until a stop condition or `fuel` instructions.
    pub fn run(&mut self, fuel: u64) -> ThumbStop {
        for _ in 0..fuel {
            if let Some(stop) = self.step() {
                return stop;
            }
        }
        ThumbStop::Fuel
    }

    /// Distinct executed forms.
    pub fn used_forms(&self) -> Vec<ThumbInstr> {
        self.profile.keys().copied().collect()
    }

    /// Execute one instruction.
    pub fn step(&mut self) -> Option<ThumbStop> {
        use ThumbInstr::*;
        let hw = self.load(self.pc, 2) as u16;
        let wide = pdat_isa::armv6m::is_32bit_prefix(hw);
        let (word, size) = if wide {
            let hw2 = self.load(self.pc + 2, 2);
            ((hw as u32) << 16 | hw2, 4)
        } else {
            (hw as u32, 2)
        };
        let Some(form) = thumb_decode_form(word) else {
            return Some(ThumbStop::Unsupported(self.pc));
        };
        *self.profile.entry(form).or_insert(0) += 1;
        self.retired += 1;
        let next = self.pc.wrapping_add(size);
        let pc4 = self.pc.wrapping_add(4);
        let h = hw as u32;
        let rd = (h & 7) as usize;
        let rn = (h >> 3 & 7) as usize;
        let rm = (h >> 6 & 7) as usize;
        let rdn8 = (h >> 8 & 7) as usize;
        let imm8 = h & 0xFF;
        let imm5 = h >> 6 & 0x1F;
        let imm3 = h >> 6 & 0x7;
        let rd_hi = ((h >> 7 & 1) << 3 | (h & 7)) as usize;
        let rm_hi = (h >> 3 & 0xF) as usize;
        let mut pc = next;
        let (n, z, c, v) = self.flags;
        match form {
            MovImm => {
                self.regs[rdn8] = imm8;
                self.nz(imm8);
            }
            MovsReg => {
                let val = self.regs[rn];
                self.regs[rd] = val;
                self.nz(val);
            }
            MovRegHigh => {
                let val = self.reg_or_pc(rm_hi, pc4);
                if rd_hi == 15 {
                    pc = val & !1;
                } else {
                    self.regs[rd_hi] = val;
                }
            }
            CmpImm => {
                self.add_with_flags(self.regs[rdn8], !imm8, 1);
            }
            CmpReg => {
                self.add_with_flags(self.regs[rd], !self.regs[rn], 1);
            }
            CmpRegHigh => {
                let a = self.reg_or_pc(rd_hi, pc4);
                let b = self.reg_or_pc(rm_hi, pc4);
                self.add_with_flags(a, !b, 1);
            }
            Cmn => {
                self.add_with_flags(self.regs[rd], self.regs[rn], 0);
            }
            Tst => {
                let r = self.regs[rd] & self.regs[rn];
                self.nz(r);
            }
            AddsReg => self.regs[rd] = self.add_with_flags(self.regs[rn], self.regs[rm], 0),
            SubsReg => self.regs[rd] = self.add_with_flags(self.regs[rn], !self.regs[rm], 1),
            AddsImm3 => self.regs[rd] = self.add_with_flags(self.regs[rn], imm3, 0),
            SubsImm3 => self.regs[rd] = self.add_with_flags(self.regs[rn], !imm3, 1),
            AddsImm8 => self.regs[rdn8] = self.add_with_flags(self.regs[rdn8], imm8, 0),
            SubsImm8 => self.regs[rdn8] = self.add_with_flags(self.regs[rdn8], !imm8, 1),
            AddRegHigh => {
                let a = self.reg_or_pc(rd_hi, pc4);
                let b = self.reg_or_pc(rm_hi, pc4);
                let r = a.wrapping_add(b);
                if rd_hi == 15 {
                    pc = r & !1;
                } else {
                    self.regs[rd_hi] = r;
                }
            }
            AddSpReg => {
                let r = self.regs[13].wrapping_add(self.reg_or_pc(rd_hi, pc4));
                self.regs[rd_hi] = r;
            }
            AddSpImmT1 => self.regs[rdn8] = self.regs[13].wrapping_add(imm8 << 2),
            AddSpImmT2 => self.regs[13] = self.regs[13].wrapping_add((h & 0x7F) << 2),
            SubSpImm => self.regs[13] = self.regs[13].wrapping_sub((h & 0x7F) << 2),
            Adr => self.regs[rdn8] = (pc4 & !3).wrapping_add(imm8 << 2),
            Adcs => self.regs[rd] = self.add_with_flags(self.regs[rd], self.regs[rn], c as u32),
            Sbcs => self.regs[rd] = self.add_with_flags(self.regs[rd], !self.regs[rn], c as u32),
            Rsbs => self.regs[rd] = self.add_with_flags(0, !self.regs[rn], 1),
            Ands => {
                let r = self.regs[rd] & self.regs[rn];
                self.regs[rd] = r;
                self.nz(r);
            }
            Eors => {
                let r = self.regs[rd] ^ self.regs[rn];
                self.regs[rd] = r;
                self.nz(r);
            }
            Orrs => {
                let r = self.regs[rd] | self.regs[rn];
                self.regs[rd] = r;
                self.nz(r);
            }
            Bics => {
                let r = self.regs[rd] & !self.regs[rn];
                self.regs[rd] = r;
                self.nz(r);
            }
            Mvns => {
                let r = !self.regs[rn];
                self.regs[rd] = r;
                self.nz(r);
            }
            Muls => {
                let r = self.regs[rd].wrapping_mul(self.regs[rn]);
                self.regs[rd] = r;
                self.nz(r);
            }
            LslsImm => {
                let val = self.regs[rn];
                let r = val << imm5;
                if imm5 > 0 {
                    self.flags.2 = val >> (32 - imm5) & 1 == 1;
                }
                self.regs[rd] = r;
                self.nz(r);
            }
            LsrsImm => {
                let val = self.regs[rn];
                let sh = if imm5 == 0 { 32 } else { imm5 };
                let (r, carry) = if sh == 32 {
                    (0, val >> 31 & 1 == 1)
                } else {
                    (val >> sh, val >> (sh - 1) & 1 == 1)
                };
                self.flags.2 = carry;
                self.regs[rd] = r;
                self.nz(r);
            }
            AsrsImm => {
                let val = self.regs[rn] as i32;
                let sh = if imm5 == 0 { 32 } else { imm5 };
                let (r, carry) = if sh == 32 {
                    ((val >> 31) as u32, val as u32 >> 31 & 1 == 1)
                } else {
                    ((val >> sh) as u32, (val as u32) >> (sh - 1) & 1 == 1)
                };
                self.flags.2 = carry;
                self.regs[rd] = r;
                self.nz(r);
            }
            LslsReg | LsrsReg | AsrsReg | Rors => {
                let s = self.regs[rn] & 0xFF;
                let val = self.regs[rd];
                let (r, carry) = match (form, s) {
                    (_, 0) => (val, c),
                    (LslsReg, s) if s < 32 => (val << s, val >> (32 - s) & 1 == 1),
                    (LslsReg, 32) => (0, val & 1 == 1),
                    (LslsReg, _) => (0, false),
                    (LsrsReg, s) if s < 32 => (val >> s, val >> (s - 1) & 1 == 1),
                    (LsrsReg, 32) => (0, val >> 31 & 1 == 1),
                    (LsrsReg, _) => (0, false),
                    (AsrsReg, s) if s < 32 => (((val as i32) >> s) as u32, val >> (s - 1) & 1 == 1),
                    (AsrsReg, _) => {
                        let sign = ((val as i32) >> 31) as u32;
                        (sign, sign & 1 == 1)
                    }
                    (Rors, s) => {
                        let sh = s % 32;
                        let r = val.rotate_right(sh);
                        (r, r >> 31 & 1 == 1)
                    }
                    _ => unreachable!(),
                };
                self.flags.2 = carry;
                self.regs[rd] = r;
                self.nz(r);
            }
            Sxtb => self.regs[rd] = self.regs[rn] as u8 as i8 as i32 as u32,
            Sxth => self.regs[rd] = self.regs[rn] as u16 as i16 as i32 as u32,
            Uxtb => self.regs[rd] = self.regs[rn] & 0xFF,
            Uxth => self.regs[rd] = self.regs[rn] & 0xFFFF,
            Rev => self.regs[rd] = self.regs[rn].swap_bytes(),
            Rev16 => {
                let x = self.regs[rn];
                self.regs[rd] = (x & 0xFF00_FF00) >> 8 | (x & 0x00FF_00FF) << 8;
            }
            Revsh => {
                let x = self.regs[rn];
                let h16 = ((x & 0xFF) << 8 | (x >> 8 & 0xFF)) as u16;
                self.regs[rd] = h16 as i16 as i32 as u32;
            }
            LdrImm => self.regs[rd] = self.load(self.regs[rn] + (imm5 << 2), 4),
            StrImm => self.store(self.regs[rn] + (imm5 << 2), self.regs[rd], 4),
            LdrbImm => self.regs[rd] = self.load(self.regs[rn] + imm5, 1),
            StrbImm => self.store(self.regs[rn] + imm5, self.regs[rd], 1),
            LdrhImm => self.regs[rd] = self.load(self.regs[rn] + (imm5 << 1), 2),
            StrhImm => self.store(self.regs[rn] + (imm5 << 1), self.regs[rd], 2),
            LdrReg => self.regs[rd] = self.load(self.regs[rn].wrapping_add(self.regs[rm]), 4),
            StrReg => self.store(self.regs[rn].wrapping_add(self.regs[rm]), self.regs[rd], 4),
            LdrbReg => self.regs[rd] = self.load(self.regs[rn].wrapping_add(self.regs[rm]), 1),
            StrbReg => self.store(self.regs[rn].wrapping_add(self.regs[rm]), self.regs[rd], 1),
            LdrhReg => self.regs[rd] = self.load(self.regs[rn].wrapping_add(self.regs[rm]), 2),
            StrhReg => self.store(self.regs[rn].wrapping_add(self.regs[rm]), self.regs[rd], 2),
            LdrsbReg => {
                let x = self.load(self.regs[rn].wrapping_add(self.regs[rm]), 1);
                self.regs[rd] = x as u8 as i8 as i32 as u32;
            }
            LdrshReg => {
                let x = self.load(self.regs[rn].wrapping_add(self.regs[rm]), 2);
                self.regs[rd] = x as u16 as i16 as i32 as u32;
            }
            LdrSp => self.regs[rdn8] = self.load(self.regs[13] + (imm8 << 2), 4),
            StrSp => self.store(self.regs[13] + (imm8 << 2), self.regs[rdn8], 4),
            LdrLit => self.regs[rdn8] = self.load((pc4 & !3) + (imm8 << 2), 4),
            Push => {
                let list = h & 0x1FF;
                let count = list.count_ones();
                let mut addr = self.regs[13] - 4 * count;
                self.regs[13] = addr;
                for i in 0..9 {
                    if list >> i & 1 == 1 {
                        let r = if i == 8 { 14 } else { i };
                        self.store(addr, self.regs[r], 4);
                        addr += 4;
                    }
                }
            }
            Pop => {
                let list = h & 0x1FF;
                let mut addr = self.regs[13];
                for i in 0..9 {
                    if list >> i & 1 == 1 {
                        let val = self.load(addr, 4);
                        if i == 8 {
                            pc = val & !1;
                        } else {
                            self.regs[i] = val;
                        }
                        addr += 4;
                    }
                }
                self.regs[13] = addr;
            }
            Ldm => {
                let list = h & 0xFF;
                let mut addr = self.regs[rdn8];
                for i in 0..8 {
                    if list >> i & 1 == 1 {
                        self.regs[i] = self.load(addr, 4);
                        addr += 4;
                    }
                }
                if list >> rdn8 & 1 == 0 {
                    self.regs[rdn8] = addr;
                }
            }
            Stm => {
                let list = h & 0xFF;
                let mut addr = self.regs[rdn8];
                for i in 0..8 {
                    if list >> i & 1 == 1 {
                        self.store(addr, self.regs[i], 4);
                        addr += 4;
                    }
                }
                self.regs[rdn8] = addr;
            }
            BCond => {
                let cond = h >> 8 & 0xF;
                let pass = match cond {
                    0 => z,
                    1 => !z,
                    2 => c,
                    3 => !c,
                    4 => n,
                    5 => !n,
                    6 => v,
                    7 => !v,
                    8 => c && !z,
                    9 => !c || z,
                    10 => n == v,
                    11 => n != v,
                    12 => !z && n == v,
                    _ => z || n != v,
                };
                if pass {
                    let off = (imm8 as i8 as i32) << 1;
                    pc = pc4.wrapping_add(off as u32);
                }
            }
            B => {
                let imm11 = h & 0x7FF;
                let off = ((imm11 << 21) as i32 >> 21) << 1;
                pc = pc4.wrapping_add(off as u32);
            }
            Bx => pc = self.reg_or_pc(rm_hi, pc4) & !1,
            BlxReg => {
                self.regs[14] = next | 1;
                pc = self.regs[rm_hi] & !1;
            }
            Bl => {
                let hw1 = word >> 16;
                let hw2 = word & 0xFFFF;
                let s = hw1 >> 10 & 1;
                let j1 = hw2 >> 13 & 1;
                let j2 = hw2 >> 11 & 1;
                let i1 = !(j1 ^ s) & 1;
                let i2 = !(j2 ^ s) & 1;
                let imm10 = hw1 & 0x3FF;
                let imm11 = hw2 & 0x7FF;
                let raw = s << 24 | i1 << 23 | i2 << 22 | imm10 << 12 | imm11 << 1;
                let off = ((raw << 7) as i32) >> 7;
                self.regs[14] = next | 1;
                pc = pc4.wrapping_add(off as u32);
            }
            Nop | Yield | Wfe | Wfi | Sev | Dmb | Dsb | Isb | Cps | Mrs | Msr => {}
            Bkpt => return Some(ThumbStop::Bkpt),
            Svc | Udf => return Some(ThumbStop::System),
        }
        self.pc = pc;
        None
    }

    fn reg_or_pc(&self, r: usize, pc4: u32) -> u32 {
        if r == 15 {
            pc4
        } else {
            self.regs[r]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_isa::armv6m::{encode::*, ThumbAssembler};

    #[test]
    fn arithmetic_and_flags() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 200));
        a.emit(t_mov_imm(1, 100));
        a.emit(t_add_reg(2, 0, 1)); // 300
        a.emit(t_sub_reg(3, 1, 0)); // -100
        a.emit(t_cmp_reg(0, 1)); // 200-100: C=1 (no borrow)
        a.emit(0xBE00); // bkpt
        let mut iss = ThumbIss::new(&a.finish(), 1024);
        assert_eq!(iss.run(100), ThumbStop::Bkpt);
        assert_eq!(iss.regs[2], 300);
        assert_eq!(iss.regs[3] as i32, -100);
        assert!(iss.flags.2, "carry set on no-borrow compare");
    }

    #[test]
    fn loop_memory_and_bl() {
        // Store 1..=5 at 256.., sum via a helper function.
        let mut a = ThumbAssembler::new();
        let f_sum = a.new_label();
        a.emit(t_mov_imm(0, 1)); // value
        a.emit(t_mov_imm(1, 0)); // offset counter
        a.emit(t_mov_imm(4, 1));
        a.emit(t_lsl_imm(4, 4, 8)); // base = 256
        let top = a.here();
        a.emit(t_add_reg(2, 4, 1));
        a.emit(t_str_reg(0, 2, 1)); // hmm: str r0, [r2, r1] double-add; use imm instead
        a.emit(t_add_imm8(0, 1));
        a.emit(t_add_imm8(1, 4));
        a.emit(t_cmp_imm(1, 20));
        let off = top as i64 - (a.here() as i64 + 4);
        a.emit(t_b_cond(Cond::Ne, off as i32));
        a.bl(f_sum);
        a.emit(0xBE00); // bkpt
        a.bind(f_sum);
        // r5 = mem[256] + mem[260]
        a.emit(t_ldr_imm(5, 4, 0));
        a.emit(t_ldr_imm(6, 4, 4));
        a.emit(t_add_reg(5, 5, 6));
        a.emit(t_bx(14));
        let mut iss = ThumbIss::new(&a.finish(), 1024);
        assert_eq!(iss.run(1000), ThumbStop::Bkpt);
        assert_eq!(iss.regs[5], iss.load(256, 4) + iss.load(260, 4));
        assert!(iss.used_forms().contains(&ThumbInstr::Bl));
        assert!(iss.used_forms().contains(&ThumbInstr::Bx));
    }

    #[test]
    fn push_pop_symmetry() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 2));
        a.emit(t_lsl_imm(0, 0, 8)); // r0 = 512
        a.emit(0x4685); // mov sp, r0
        a.emit(t_mov_imm(1, 7));
        a.emit(t_mov_imm(2, 9));
        a.emit(t_push(0b110));
        a.emit(t_mov_imm(1, 0));
        a.emit(t_mov_imm(2, 0));
        a.emit(t_pop(0b110));
        a.emit(0xBE00);
        let mut iss = ThumbIss::new(&a.finish(), 1024);
        assert_eq!(iss.run(100), ThumbStop::Bkpt);
        assert_eq!(iss.regs[1], 7);
        assert_eq!(iss.regs[2], 9);
        assert_eq!(iss.regs[13], 512);
    }

    #[test]
    fn muls_and_shifts() {
        let mut a = ThumbAssembler::new();
        a.emit(t_mov_imm(0, 12));
        a.emit(t_mov_imm(1, 11));
        a.emit(t_mul(0, 1)); // 132
        a.emit(t_lsr_imm(2, 0, 2)); // 33
        a.emit(t_asr_imm(3, 0, 1)); // 66
        a.emit(0xBE00);
        let mut iss = ThumbIss::new(&a.finish(), 1024);
        iss.run(100);
        assert_eq!(iss.regs[0], 132);
        assert_eq!(iss.regs[2], 33);
        assert_eq!(iss.regs[3], 66);
    }
}
