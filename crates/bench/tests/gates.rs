//! The repository's panic lint, run under `cargo test`: an external
//! script whose exit status is the verdict; its output is replayed on
//! failure. The service and cache contracts are checked by the
//! integration tests under `tests/`.

use std::path::Path;
use std::process::Command;

/// No `unwrap`/`expect`/`panic!`/`unreachable!` in the shipped paths of
/// the parser, validator, cache store, preprocessor and service.
#[test]
fn panic_lint() {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/lint_panics.sh");
    let out = Command::new("sh")
        .arg(&script)
        .output()
        .unwrap_or_else(|e| panic!("lint_panics.sh: failed to start: {e}"));
    assert!(
        out.status.success(),
        "lint_panics.sh failed ({})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
