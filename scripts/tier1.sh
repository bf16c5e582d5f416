#!/bin/sh
# Tier-1 gate: release build + full test suite, fully offline.
#
# The workspace has no registry dependencies — rand/proptest/criterion are
# vendored shims under vendor/ (see vendor/README.md) — so the build must
# succeed with an empty cargo registry. CARGO_NET_OFFLINE=true enforces
# that invariant: if someone adds a registry dep, this script fails fast
# instead of silently reaching for the network. Do not add external crates;
# vendor a shim or gate the feature instead.
#
# The root Cargo.toml's `default-members` cover the root package and every
# crate, and crates/bench/tests/gates.rs runs the panic lint and the
# fault/cache/serve smoke binaries, so the plain Tier-1 command below is the
# whole gate.
set -eu
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q
