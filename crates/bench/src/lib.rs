//! Experiment harness for the PDAT reproduction: shared machinery behind
//! the `table1`, `table2`, `fig5`, `fig6`, and `fig7` binaries (one per
//! table/figure in the paper's evaluation).

use pdat::{run_pdat, ConstraintMode, Environment, PdatConfig};
use pdat_cores::{build_cortexm0, build_ibex, build_ridecore, obfuscate, ObfuscateConfig};
use pdat_isa::rv32::RvInstr;
use pdat_isa::{RvSubset, ThumbSubset};
use pdat_netlist::{NetId, Netlist};
use std::fmt::Write as _;
use std::time::Instant;

/// One row of a figure: a named core variant with its metrics.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// Variant label (as in the paper's figures).
    pub name: String,
    /// Gate count.
    pub gates: usize,
    /// Area in square micrometres.
    pub area_um2: f64,
    /// Gate reduction vs the figure's "Full" row (0..=1).
    pub gate_red: f64,
    /// Area reduction vs "Full".
    pub area_red: f64,
    /// Invariants proved (0 for the Full row).
    pub proved: usize,
    /// Wall time of the PDAT run in seconds (0 for Full).
    pub seconds: f64,
}

/// Render rows as an aligned text table.
pub fn render_rows(title: &str, rows: &[VariantRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>12} {:>9} {:>9} {:>8} {:>7}",
        "variant", "gates", "area(um^2)", "d-gates", "d-area", "proved", "sec"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<24} {:>8} {:>12.0} {:>8.1}% {:>8.1}% {:>8} {:>7.1}",
            r.name,
            r.gates,
            r.area_um2,
            -100.0 * r.gate_red,
            -100.0 * r.area_red,
            r.proved,
            r.seconds
        );
    }
    s
}

/// Write rows as CSV under `target/experiments/<file>`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(file: &str, rows: &[VariantRow]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut s =
        String::from("variant,gates,area_um2,gate_reduction,area_reduction,proved,seconds\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{:.1},{:.4},{:.4},{},{:.2}",
            r.name, r.gates, r.area_um2, r.gate_red, r.area_red, r.proved, r.seconds
        );
    }
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Run PDAT on the Ibex-class core for the named RV32 subsets
/// (cutpoint-based constraints, as in the paper). The first returned row is
/// "Full" (plain synthesis, no PDAT).
pub fn ibex_variant_rows(subsets: &[RvSubset], config: &PdatConfig) -> Vec<VariantRow> {
    let core = build_ibex();
    let envs = subsets.iter().map(|subset| {
        let env = Environment::Rv {
            subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        };
        (subset.name.as_str(), env)
    });
    variant_rows(&core.netlist, envs, config)
}

/// Run PDAT on the RIDECORE-class core (port-based constraints).
pub fn ridecore_variant_rows(subsets: &[RvSubset], config: &PdatConfig) -> Vec<VariantRow> {
    let core = build_ridecore();
    let envs = subsets.iter().map(|subset| {
        let env = Environment::Rv {
            subset,
            ports: vec![core.instr_in[0].clone(), core.instr_in[1].clone()],
            mode: ConstraintMode::PortBased,
        };
        (subset.name.as_str(), env)
    });
    variant_rows(&core.netlist, envs, config)
}

/// Run PDAT on the Cortex-M0-class core for Thumb subsets. When
/// `obfuscated` is set the netlist is obfuscated first (and only
/// port-based constraints are possible, as in the paper).
pub fn m0_variant_rows(
    subsets: &[ThumbSubset],
    obfuscated: bool,
    config: &PdatConfig,
) -> Vec<VariantRow> {
    let core = build_cortexm0();
    let (netlist, port): (Netlist, Vec<NetId>) = if obfuscated {
        let (nl, map) = obfuscate(&core.netlist, &ObfuscateConfig::default());
        let port = core.instr_in.iter().map(|n| map[n]).collect();
        (nl, port)
    } else {
        (core.netlist.clone(), core.instr_in.clone())
    };
    let envs = subsets.iter().map(|subset| {
        let env = Environment::Thumb {
            subset,
            port: port.clone(),
            mode: ConstraintMode::PortBased,
        };
        (subset.name.as_str(), env)
    });
    variant_rows(&netlist, envs, config)
}

/// One cold [`run_pdat`] per named environment, each timed on its own.
/// The first row is "Full": the baseline statistics of the first run (no
/// rows at all when `envs` is empty).
fn variant_rows<'a>(
    netlist: &Netlist,
    envs: impl IntoIterator<Item = (&'a str, Environment<'a>)>,
    config: &PdatConfig,
) -> Vec<VariantRow> {
    let mut rows = Vec::new();
    for (name, env) in envs {
        let t = Instant::now();
        let res = run_pdat(netlist, &env, config).expect("pdat run");
        let seconds = t.elapsed().as_secs_f64();
        if rows.is_empty() {
            rows.push(VariantRow {
                name: "Full".into(),
                gates: res.baseline.gate_count,
                area_um2: res.baseline.area_um2,
                gate_red: 0.0,
                area_red: 0.0,
                proved: 0,
                seconds: 0.0,
            });
        }
        rows.push(VariantRow {
            name: name.to_string(),
            gates: res.optimized.gate_count,
            area_um2: res.optimized.area_um2,
            gate_red: res.gate_reduction(),
            area_red: res.area_reduction(),
            proved: res.proved,
            seconds,
        });
    }
    rows
}

/// The ISA actually implemented by the RIDECORE-class core: RV32I plus the
/// four multiply instructions (no divide — paper Table II).
pub fn ridecore_isa() -> RvSubset {
    let mut s = RvSubset::rv32im();
    s.instrs.retain(|i| {
        !matches!(
            i,
            RvInstr::Div | RvInstr::Divu | RvInstr::Rem | RvInstr::Remu
        )
    });
    s.name = "RIDECORE ISA".into();
    s
}

/// Intersect a subset with what RIDECORE implements (used for MiBench-All
/// on Fig. 7: the profile contains compressed forms the core lacks).
pub fn restrict_to_ridecore(mut subset: RvSubset) -> RvSubset {
    let impl_set = ridecore_isa();
    subset.instrs.retain(|i| impl_set.instrs.contains(i));
    subset.name = format!("{} (rc)", subset.name);
    subset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv_shapes() {
        let rows = vec![
            VariantRow {
                name: "Full".into(),
                gates: 100,
                area_um2: 250.0,
                gate_red: 0.0,
                area_red: 0.0,
                proved: 0,
                seconds: 0.0,
            },
            VariantRow {
                name: "RV32i".into(),
                gates: 60,
                area_um2: 150.0,
                gate_red: 0.4,
                area_red: 0.4,
                proved: 12,
                seconds: 1.5,
            },
        ];
        let text = render_rows("test", &rows);
        assert!(text.contains("RV32i"));
        assert!(text.contains("-40.0%"));
        let path = write_csv("unit_test.csv", &rows).expect("csv written");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("variant,gates"));
        assert!(body.contains("RV32i,60,150.0,0.4000"));
    }

    #[test]
    fn ridecore_isa_drops_divide_only() {
        let s = ridecore_isa();
        assert_eq!(s.instrs.len(), 44, "RV32IM minus 4 divide forms");
        assert!(!s.instrs.contains(&RvInstr::Div));
        assert!(s.instrs.contains(&RvInstr::Mul));
    }

    #[test]
    fn restriction_intersects() {
        let all = pdat_isa::RvSubset::rv32imcz();
        let r = restrict_to_ridecore(all);
        assert!(r.instrs.iter().all(|i| ridecore_isa().instrs.contains(i)));
    }
}
