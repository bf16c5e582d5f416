#!/bin/sh
# Tier-1 gate: release build + full test suite, then the formatting and
# lint checks, fully offline.
#
# The workspace has no registry dependencies — rand/proptest are vendored
# shims under vendor/ (see vendor/README.md) — so the build must
# succeed with an empty cargo registry. CARGO_NET_OFFLINE=true enforces
# that invariant: if someone adds a registry dep, this script fails fast
# instead of silently reaching for the network. Do not add external crates;
# vendor a shim or gate the feature instead.
#
# The root Cargo.toml's `default-members` cover the root package and every
# crate, and crates/bench/tests/gates.rs runs the panic lint, so the plain
# Tier-1 command below runs every test. After it, `cargo fmt --check` holds the workspace to rustfmt's
# layout and clippy fails on any warning. perfbench is its own workspace and
# is not linted, but the last step checks that it still builds against the
# library (its own lockfile, its own target directory, no build output left
# under perfbench/).
set -eu
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo check --locked --manifest-path perfbench/Cargo.toml --all-targets --target-dir target/perfbench-check
