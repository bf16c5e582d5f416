//! The repository's gates, run under `cargo test`: the panic lint over
//! the input-facing sources and the three smoke binaries. Each gate is an
//! external process whose exit status is the verdict; its output is
//! replayed on failure.

use std::path::Path;
use std::process::Command;

fn assert_gate_passes(name: &str, cmd: &mut Command) {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("{name}: failed to start: {e}"));
    assert!(
        out.status.success(),
        "{name} failed ({})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// No `unwrap`/`expect`/`panic!`/`unreachable!` in the shipped paths of
/// the parser, validator, cache store, preprocessor and service.
#[test]
fn panic_lint() {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/lint_panics.sh");
    assert_gate_passes("lint_panics.sh", Command::new("sh").arg(script));
}

/// Seeded fault schedules through the full pipeline and the service: no
/// aborts, proved sets bounded by the fault-free oracle.
#[test]
fn fault_smoke() {
    assert_gate_passes(
        "fault_smoke",
        Command::new(env!("CARGO_BIN_EXE_fault_smoke")).arg("12"),
    );
}

/// Proof-cache miss, exact hit, lattice hit and save/load round-trip are
/// bit-identical to cold runs.
#[test]
fn cache_smoke() {
    assert_gate_passes(
        "cache_smoke",
        &mut Command::new(env!("CARGO_BIN_EXE_cache_smoke")),
    );
}

/// The supervised service answers fault-armed rounds oracle-exact or with
/// a typed error, and never corrupts its snapshot.
#[test]
fn serve_smoke() {
    assert_gate_passes(
        "serve_smoke",
        &mut Command::new(env!("CARGO_BIN_EXE_serve_smoke")),
    );
}
