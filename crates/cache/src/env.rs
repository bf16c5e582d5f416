//! Canonical environment descriptions and the subset-lattice order.
//!
//! Two environment restrictions are comparable only when they constrain
//! the *same analysis model*: cutpoint-based attachment rewrites the AIG
//! (the cut nets become free inputs), so a cached run is reusable only
//! for requests with the identical mode and port/cut net lists. Within a
//! comparable pair, `E ⊇ E'` (every `E'`-execution is an `E`-execution)
//! holds when `E`'s form list covers `E'`'s and `E` imposes no extra
//! restriction that `E'` lacks — then everything proved under `E` is an
//! invariant under `E'` too (monotonicity: shrinking the execution set
//! can never falsify an invariant).

use crate::fingerprint::Fnv;

/// One allowed instruction form, normalized: a word is allowed when
/// `word & mask == value` and `word & forbidden == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalForm {
    /// Halfword (16-bit) encoding — upper bits unconstrained.
    pub half: bool,
    /// Fixed-bit mask.
    pub mask: u32,
    /// Fixed-bit values (always `⊆ mask` after canonicalization).
    pub value: u32,
    /// Bits that must be zero (field restrictions, e.g. RV32E register
    /// ceilings; always disjoint from `mask` after canonicalization).
    pub forbidden: u32,
}

impl CanonicalForm {
    /// Normalize field overlaps: truncate to the encoding width, clamp
    /// `value` inside `mask`, and fold `forbidden` (bits that must be 0)
    /// into the fixed pattern — `mask |= forbidden` with those value
    /// bits 0 means exactly the same allowed set, and folding keeps
    /// semantically equal constraints textually equal. Returns `None`
    /// for a contradictory form (a bit both fixed to 1 and forbidden):
    /// its allowed set is empty, so it contributes nothing.
    pub fn normalized(mut self) -> Option<CanonicalForm> {
        if self.half {
            self.mask &= 0xFFFF;
            self.value &= 0xFFFF;
            self.forbidden &= 0xFFFF;
        }
        self.value &= self.mask;
        if self.value & self.forbidden != 0 {
            return None; // fixed-1 bit also forbidden: empty form
        }
        self.mask |= self.forbidden;
        self.forbidden = 0;
        Some(self)
    }

    /// Whether this form allows every word `other` allows.
    fn covers(&self, other: &CanonicalForm) -> bool {
        self.half == other.half
            && self.mask & other.mask == self.mask
            && other.value & self.mask == self.value
            && self.forbidden & other.forbidden == self.forbidden
    }
}

/// A canonicalized extra restriction (mirrors the pipeline's
/// `ExtraRestriction`, with nets as raw indices).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CanonicalExtra {
    /// The listed input nets always carry `value`.
    PinnedInput {
        /// Net indices, LSB first.
        nets: Vec<u32>,
        /// Pinned value.
        value: u64,
    },
    /// When `addr` equals `address`, `data` carries `word`.
    CodeAt {
        /// Address-source net indices, LSB first.
        addr: Vec<u32>,
        /// Constrained data net indices, LSB first.
        data: Vec<u32>,
        /// Matched address.
        address: u32,
        /// Pinned instruction word.
        word: u32,
    },
}

/// How (and whether) the ISA restriction attaches to the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnvMode {
    /// No ISA restriction; the analysis AIG is the uncut netlist.
    Unconstrained,
    /// RV32 subset on instruction-port primary inputs (uncut AIG).
    RvPort,
    /// RV32 subset on cutpoint nets (AIG cut at the port nets).
    RvCut,
    /// Thumb subset on fetch-port primary inputs (uncut AIG).
    ThumbPort,
    /// Thumb subset on cutpoint nets.
    ThumbCut,
}

impl EnvMode {
    fn tag(self) -> u8 {
        match self {
            EnvMode::Unconstrained => 0,
            EnvMode::RvPort => 1,
            EnvMode::RvCut => 2,
            EnvMode::ThumbPort => 3,
            EnvMode::ThumbCut => 4,
        }
    }

    /// Whether the analysis AIG is the plain, uncut netlist AIG.
    pub fn uncut(self) -> bool {
        matches!(
            self,
            EnvMode::Unconstrained | EnvMode::RvPort | EnvMode::ThumbPort
        )
    }

    pub(crate) fn from_tag(t: u8) -> Option<EnvMode> {
        Some(match t {
            0 => EnvMode::Unconstrained,
            1 => EnvMode::RvPort,
            2 => EnvMode::RvCut,
            3 => EnvMode::ThumbPort,
            4 => EnvMode::ThumbCut,
            _ => return None,
        })
    }
}

/// A fully canonicalized environment restriction — the cache key's
/// constraint half, and the object lattice comparisons run on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalEnv {
    /// Attachment mode.
    pub mode: EnvMode,
    /// Instruction-word net groups (net indices, LSB first), one per
    /// fetch port. Order is part of the identity only across ports with
    /// different nets; the canonical form sorts the groups.
    pub ports: Vec<Vec<u32>>,
    /// Allowed instruction forms, normalized, sorted, deduplicated, and
    /// dominance-pruned.
    pub forms: Vec<CanonicalForm>,
    /// Extra restrictions, sorted and deduplicated.
    pub extras: Vec<CanonicalExtra>,
}

impl CanonicalEnv {
    /// The unconstrained environment (top of every uncut lattice chain).
    pub fn unconstrained() -> CanonicalEnv {
        CanonicalEnv {
            mode: EnvMode::Unconstrained,
            ports: Vec::new(),
            forms: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Build the canonical representative: normalize every form, sort,
    /// dedupe, drop forms dominated by a strictly-more-permissive form
    /// with the same shape, and sort ports and extras.
    pub fn canonicalize(
        mode: EnvMode,
        mut ports: Vec<Vec<u32>>,
        forms: Vec<CanonicalForm>,
        mut extras: Vec<CanonicalExtra>,
    ) -> CanonicalEnv {
        let mut forms: Vec<CanonicalForm> = forms
            .into_iter()
            .filter_map(CanonicalForm::normalized)
            .collect();
        forms.sort_unstable();
        forms.dedup();
        // Dominance prune: if `a` covers `b` (allows every word `b`
        // allows), `b` contributes nothing to the union of forms. After
        // normalization mutual coverage implies equality, so dedup has
        // already removed ties and this keeps exactly the maximal forms.
        let pruned: Vec<CanonicalForm> = forms
            .iter()
            .filter(|b| !forms.iter().any(|a| a != *b && a.covers(b)))
            .copied()
            .collect();
        ports.sort_unstable();
        extras.sort_unstable();
        extras.dedup();
        CanonicalEnv {
            mode,
            ports,
            forms: pruned,
            extras,
        }
    }

    /// Stable content fingerprint (the `env` half of the cache key).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u8(self.mode.tag());
        h.u64(self.ports.len() as u64);
        for p in &self.ports {
            h.u64(p.len() as u64);
            for &n in p {
                h.u32(n);
            }
        }
        h.u64(self.forms.len() as u64);
        for f in &self.forms {
            h.u8(u8::from(f.half))
                .u32(f.mask)
                .u32(f.value)
                .u32(f.forbidden);
        }
        h.u64(self.extras.len() as u64);
        for e in &self.extras {
            match e {
                CanonicalExtra::PinnedInput { nets, value } => {
                    h.u8(1).u64(*value).u64(nets.len() as u64);
                    for &n in nets {
                        h.u32(n);
                    }
                }
                CanonicalExtra::CodeAt {
                    addr,
                    data,
                    address,
                    word,
                } => {
                    h.u8(2).u32(*address).u32(*word);
                    h.u64(addr.len() as u64);
                    for &n in addr {
                        h.u32(n);
                    }
                    h.u64(data.len() as u64);
                    for &n in data {
                        h.u32(n);
                    }
                }
            }
        }
        h.finish()
    }

    /// Lattice order: does this environment allow every execution `req`
    /// allows? Sound but deliberately incomplete — `false` only costs a
    /// missed warm start. Requires an identical analysis AIG: identical
    /// cut structure (both uncut, or same mode with same port nets).
    pub fn is_superset_of(&self, req: &CanonicalEnv) -> bool {
        // Every restriction we impose must also be imposed by `req`.
        if !self.extras.iter().all(|e| req.extras.contains(e)) {
            return false;
        }
        match (self.mode, req.mode) {
            (EnvMode::Unconstrained, m) => m.uncut(),
            (a, b) if a == b => {
                self.ports == req.ports
                    && req
                        .forms
                        .iter()
                        .all(|fr| self.forms.iter().any(|fs| fs.covers(fr)))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(mask: u32, value: u32) -> CanonicalForm {
        CanonicalForm {
            half: false,
            mask,
            value,
            forbidden: 0,
        }
    }

    #[test]
    fn canonicalization_is_order_insensitive() {
        let a = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![vec![1, 2, 3]],
            vec![form(0x7F, 0x33), form(0x7F, 0x13)],
            vec![],
        );
        let b = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![vec![1, 2, 3]],
            vec![form(0x7F, 0x13), form(0x7F, 0x33), form(0x7F, 0x13)],
            vec![],
        );
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn normalization_folds_forbidden_into_pattern() {
        let f = CanonicalForm {
            half: false,
            mask: 0x0F,
            value: 0x0F,
            forbidden: 0xF0,
        }
        .normalized()
        .expect("satisfiable form");
        assert_eq!(f.forbidden, 0, "forbidden folded away");
        assert_eq!(f.mask, 0xFF);
        assert_eq!(f.value, 0x0F);
        // Same allowed set, same canonical form.
        let g = CanonicalForm {
            half: false,
            mask: 0xFF,
            value: 0x0F,
            forbidden: 0,
        }
        .normalized()
        .expect("satisfiable form");
        assert_eq!(f, g);
        // A bit both fixed to 1 and forbidden empties the form.
        let empty = CanonicalForm {
            half: false,
            mask: 0x1,
            value: 0x1,
            forbidden: 0x1,
        };
        assert_eq!(empty.normalized(), None);
    }

    #[test]
    fn dominated_forms_are_pruned() {
        // (mask 0x0F, value 3) allows everything (mask 0xFF, value 0x13)
        // allows.
        let e = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![],
            vec![form(0x0F, 0x3), form(0xFF, 0x13)],
            vec![],
        );
        assert_eq!(e.forms, vec![form(0x0F, 0x3)]);
    }

    #[test]
    fn superset_respects_forms_and_extras() {
        let big = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![vec![4, 5]],
            vec![form(0x7F, 0x33), form(0x7F, 0x13)],
            vec![],
        );
        let small = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![vec![4, 5]],
            vec![form(0x7F, 0x13)],
            vec![],
        );
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        assert!(big.is_superset_of(&big), "reflexive");

        let mut pinned = small.clone();
        pinned.extras.push(CanonicalExtra::PinnedInput {
            nets: vec![9],
            value: 0,
        });
        assert!(small.is_superset_of(&pinned));
        assert!(!pinned.is_superset_of(&small));

        // Different ports are never comparable (different constraint nets).
        let other_port = CanonicalEnv::canonicalize(
            EnvMode::RvPort,
            vec![vec![6, 7]],
            vec![form(0x7F, 0x13)],
            vec![],
        );
        assert!(!big.is_superset_of(&other_port));
    }

    #[test]
    fn unconstrained_tops_uncut_modes_only() {
        let top = CanonicalEnv::unconstrained();
        let port =
            CanonicalEnv::canonicalize(EnvMode::RvPort, vec![vec![1]], vec![form(1, 1)], vec![]);
        let cut =
            CanonicalEnv::canonicalize(EnvMode::RvCut, vec![vec![1]], vec![form(1, 1)], vec![]);
        assert!(top.is_superset_of(&port));
        assert!(!top.is_superset_of(&cut), "cut AIG differs — incomparable");
    }
}
