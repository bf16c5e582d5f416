//! An RV32IMC instruction-set simulator with instruction-usage profiling.
//!
//! This is the reproduction's profiling substrate: the paper compiles
//! MiBench with gcc and counts the distinct instructions each benchmark
//! group uses (Table I); here the MiBench-like kernels are hand-assembled,
//! *executed* on this ISS, and the executed instruction forms recorded.

use pdat_isa::rv32::{decode, decode_form, expand_compressed, DecodedRv, RvInstr};
use std::collections::BTreeMap;

/// Simulator halt/trap conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvStop {
    /// `ecall` executed (the kernels' exit convention).
    Ecall,
    /// `ebreak` executed.
    Ebreak,
    /// Unknown or illegal encoding at `pc`.
    Illegal(u32),
    /// Step budget exhausted.
    Fuel,
}

/// RV32IMC ISS.
#[derive(Debug, Clone)]
pub struct Rv32Iss {
    /// Architectural registers.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Flat byte-addressable memory (code + data).
    pub mem: Vec<u8>,
    /// Executed-form histogram.
    pub profile: BTreeMap<RvInstr, u64>,
    /// Instructions retired.
    pub retired: u64,
}

impl Rv32Iss {
    /// Create an ISS with `mem_size` bytes, the program loaded at 0.
    ///
    /// # Panics
    ///
    /// Panics if the program doesn't fit.
    pub fn new(program: &[u8], mem_size: usize) -> Rv32Iss {
        assert!(program.len() <= mem_size, "program larger than memory");
        let mut mem = vec![0; mem_size];
        mem[..program.len()].copy_from_slice(program);
        Rv32Iss {
            regs: [0; 32],
            pc: 0,
            mem,
            profile: BTreeMap::new(),
            retired: 0,
        }
    }

    fn r(&self, i: u32) -> u32 {
        self.regs[i as usize]
    }

    fn w(&mut self, i: u32, v: u32) {
        if i != 0 {
            self.regs[i as usize] = v;
        }
    }

    fn load(&self, addr: u32, bytes: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..bytes {
            let a = addr.wrapping_add(i) as usize;
            let byte = if a < self.mem.len() { self.mem[a] } else { 0 };
            v |= (byte as u32) << (8 * i);
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

    /// Execute until `ecall`/`ebreak`, an illegal encoding, or `fuel`
    /// retired instructions.
    pub fn run(&mut self, fuel: u64) -> RvStop {
        for _ in 0..fuel {
            match self.step() {
                None => {}
                Some(stop) => return stop,
            }
        }
        RvStop::Fuel
    }

    /// Execute one instruction; `Some(stop)` ends the run.
    pub fn step(&mut self) -> Option<RvStop> {
        let half = self.load(self.pc, 2) as u16;
        let (word, size, form) = if half & 0b11 != 0b11 {
            let Some(form) = decode_form(half as u32) else {
                return Some(RvStop::Illegal(self.pc));
            };
            let Some(expanded) = expand_compressed(half) else {
                return Some(RvStop::Illegal(self.pc));
            };
            (expanded, 2u32, Some(form))
        } else {
            let w = self.load(self.pc, 4);
            (w, 4, decode_form(w))
        };
        let Some(form) = form else {
            return Some(RvStop::Illegal(self.pc));
        };
        *self.profile.entry(form).or_insert(0) += 1;
        let Some(d) = decode(word) else {
            return Some(RvStop::Illegal(self.pc));
        };
        self.retired += 1;
        let next = self.pc.wrapping_add(size);
        self.execute(&d, next)
    }

    fn execute(&mut self, d: &DecodedRv, next: u32) -> Option<RvStop> {
        use RvInstr::*;
        let rs1 = self.r(d.rs1);
        let rs2 = self.r(d.rs2);
        let imm = d.imm;
        let mut pc = next;
        match d.instr {
            Lui => self.w(d.rd, imm as u32),
            Auipc => self.w(d.rd, self.pc.wrapping_add(imm as u32)),
            Jal => {
                self.w(d.rd, next);
                pc = self.pc.wrapping_add(imm as u32);
            }
            Jalr => {
                self.w(d.rd, next);
                pc = rs1.wrapping_add(imm as u32) & !1;
            }
            Beq => {
                if rs1 == rs2 {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bne => {
                if rs1 != rs2 {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Blt => {
                if (rs1 as i32) < (rs2 as i32) {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bge => {
                if (rs1 as i32) >= (rs2 as i32) {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bltu => {
                if rs1 < rs2 {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bgeu => {
                if rs1 >= rs2 {
                    pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Lb => {
                let v = self.load(rs1.wrapping_add(imm as u32), 1);
                self.w(d.rd, v as u8 as i8 as i32 as u32);
            }
            Lbu => {
                let v = self.load(rs1.wrapping_add(imm as u32), 1);
                self.w(d.rd, v);
            }
            Lh => {
                let v = self.load(rs1.wrapping_add(imm as u32), 2);
                self.w(d.rd, v as u16 as i16 as i32 as u32);
            }
            Lhu => {
                let v = self.load(rs1.wrapping_add(imm as u32), 2);
                self.w(d.rd, v);
            }
            Lw => {
                let v = self.load(rs1.wrapping_add(imm as u32), 4);
                self.w(d.rd, v);
            }
            Sb => self.store(rs1.wrapping_add(imm as u32), rs2, 1),
            Sh => self.store(rs1.wrapping_add(imm as u32), rs2, 2),
            Sw => self.store(rs1.wrapping_add(imm as u32), rs2, 4),
            Addi => self.w(d.rd, rs1.wrapping_add(imm as u32)),
            Slti => self.w(d.rd, ((rs1 as i32) < imm) as u32),
            Sltiu => self.w(d.rd, (rs1 < imm as u32) as u32),
            Xori => self.w(d.rd, rs1 ^ imm as u32),
            Ori => self.w(d.rd, rs1 | imm as u32),
            Andi => self.w(d.rd, rs1 & imm as u32),
            Slli => self.w(d.rd, rs1 << (imm & 31)),
            Srli => self.w(d.rd, rs1 >> (imm & 31)),
            Srai => self.w(d.rd, ((rs1 as i32) >> (imm & 31)) as u32),
            Add => self.w(d.rd, rs1.wrapping_add(rs2)),
            Sub => self.w(d.rd, rs1.wrapping_sub(rs2)),
            Sll => self.w(d.rd, rs1 << (rs2 & 31)),
            Slt => self.w(d.rd, ((rs1 as i32) < rs2 as i32) as u32),
            Sltu => self.w(d.rd, (rs1 < rs2) as u32),
            Xor => self.w(d.rd, rs1 ^ rs2),
            Srl => self.w(d.rd, rs1 >> (rs2 & 31)),
            Sra => self.w(d.rd, ((rs1 as i32) >> (rs2 & 31)) as u32),
            Or => self.w(d.rd, rs1 | rs2),
            And => self.w(d.rd, rs1 & rs2),
            Fence | FenceI => {}
            Ecall => return Some(RvStop::Ecall),
            Ebreak => return Some(RvStop::Ebreak),
            Mul => self.w(d.rd, rs1.wrapping_mul(rs2)),
            Mulh => {
                let p = (rs1 as i32 as i64) * (rs2 as i32 as i64);
                self.w(d.rd, (p >> 32) as u32);
            }
            Mulhsu => {
                let p = (rs1 as i32 as i64) * (rs2 as u64 as i64);
                self.w(d.rd, (p >> 32) as u32);
            }
            Mulhu => {
                let p = (rs1 as u64) * (rs2 as u64);
                self.w(d.rd, (p >> 32) as u32);
            }
            Div => {
                let v = if rs2 == 0 {
                    u32::MAX
                } else if rs1 == 0x8000_0000 && rs2 == u32::MAX {
                    rs1
                } else {
                    ((rs1 as i32) / (rs2 as i32)) as u32
                };
                self.w(d.rd, v);
            }
            Divu => {
                let v = rs1.checked_div(rs2).unwrap_or(u32::MAX);
                self.w(d.rd, v);
            }
            Rem => {
                let v = if rs2 == 0 {
                    rs1
                } else if rs1 == 0x8000_0000 && rs2 == u32::MAX {
                    0
                } else {
                    ((rs1 as i32) % (rs2 as i32)) as u32
                };
                self.w(d.rd, v);
            }
            Remu => {
                let v = if rs2 == 0 { rs1 } else { rs1 % rs2 };
                self.w(d.rd, v);
            }
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => {
                // Kernels never use CSRs; modeled as reading 0.
                self.w(d.rd, 0);
            }
            _ => unreachable!("compressed forms are expanded before execute"),
        }
        self.pc = pc;
        None
    }

    /// Distinct executed forms.
    pub fn used_forms(&self) -> Vec<RvInstr> {
        self.profile.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_isa::rv32::{encode as e, Assembler};

    #[test]
    fn runs_arithmetic_and_profiles_forms() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 21));
        a.emit(e::slli(2, 1, 1)); // 42
        a.emit_c(e::c_addi(2, -2)); // 40 (compressed form recorded)
        a.emit(e::ecall());
        let mut iss = Rv32Iss::new(&a.finish(), 1024);
        assert_eq!(iss.run(100), RvStop::Ecall);
        assert_eq!(iss.regs[2], 40);
        let forms = iss.used_forms();
        assert!(forms.contains(&RvInstr::Addi));
        assert!(forms.contains(&RvInstr::Slli));
        assert!(forms.contains(&RvInstr::CAddi), "compressed form counted");
        assert!(forms.contains(&RvInstr::Ecall));
    }

    #[test]
    fn loop_and_memory() {
        // Sum bytes 0..10 stored at 512.
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 512)); // ptr
        a.emit(e::addi(2, 0, 10)); // n
        a.emit(e::addi(3, 0, 0)); // i
        a.emit(e::addi(4, 0, 0)); // sum
                                  // fill: mem[ptr+i] = i
        let fill_done = a.new_label();
        let fill_top = a.here();
        a.bge(3, 2, fill_done);
        a.emit(e::add(5, 1, 3));
        a.emit(e::sb(3, 5, 0));
        a.emit(e::addi(3, 3, 1));
        a.jump_back(fill_top);
        a.bind(fill_done);
        a.emit(e::addi(3, 0, 0));
        let sum_done = a.new_label();
        let sum_top = a.here();
        a.bge(3, 2, sum_done);
        a.emit(e::add(5, 1, 3));
        a.emit(e::lbu(6, 5, 0));
        a.emit(e::add(4, 4, 6));
        a.emit(e::addi(3, 3, 1));
        a.jump_back(sum_top);
        a.bind(sum_done);
        a.emit(e::ecall());
        let mut iss = Rv32Iss::new(&a.finish(), 1024);
        assert_eq!(iss.run(10_000), RvStop::Ecall);
        assert_eq!(iss.regs[4], 45);
    }

    #[test]
    fn division_edge_cases_match_spec() {
        let mut a = Assembler::new();
        a.emit(e::addi(1, 0, 7));
        a.emit(e::addi(2, 0, 0));
        a.emit(e::div(3, 1, 2)); // -1
        a.emit(e::rem(4, 1, 2)); // 7
        a.emit(e::lui(5, 0x80000));
        a.emit(e::addi(6, 0, -1));
        a.emit(e::div(7, 5, 6)); // INT_MIN
        a.emit(e::rem(8, 5, 6)); // 0
        a.emit(e::ecall());
        let mut iss = Rv32Iss::new(&a.finish(), 1024);
        iss.run(100);
        assert_eq!(iss.regs[3], u32::MAX);
        assert_eq!(iss.regs[4], 7);
        assert_eq!(iss.regs[7], 0x8000_0000);
        assert_eq!(iss.regs[8], 0);
    }

    #[test]
    fn illegal_encoding_stops() {
        let program = 0xFFFF_FFFFu32.to_le_bytes().to_vec();
        let mut iss = Rv32Iss::new(&program, 64);
        assert!(matches!(iss.run(10), RvStop::Illegal(0)));
    }
}
