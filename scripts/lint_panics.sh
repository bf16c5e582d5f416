#!/bin/sh
# Grep-gate for panics in input-facing code.
#
# The netlist parser and validator are the crate surfaces that consume
# untrusted text, so they must be total: every failure is a structured
# error, never a panic. The proof-cache store and its persistence layer
# consume untrusted cache files and must degrade to misses, never abort.
# CNF preprocessing rewrites the clause database in place under a frozen-
# variable contract; a panic there would drop every unproved candidate, so its
# failure mode must also stay structured. The service crate is the
# long-running surface: an organic panic there takes down a worker or
# wedges the queue, so every lock acquisition and reply send must stay
# structured (injected test faults use `std::panic::panic_any`, which
# this lint deliberately does not match). The pipeline module hosts
# `PreparedNetlist`, which the service's workers share behind a lock for
# the service's lifetime, so it is held to the same rule. This lint strips
# `#[cfg(test)]` modules (tests are free to unwrap) and rejects any
# `.unwrap()`, `.expect(`, `panic!`, or `unreachable!` left in the shipped
# code paths of those files.
set -eu
cd "$(dirname "$0")/.."

FILES="crates/netlist/src/format.rs crates/netlist/src/validate.rs \
crates/cache/src/io.rs crates/cache/src/cache.rs \
crates/sat/src/preprocess.rs crates/core/src/pipeline.rs \
crates/serve/src/queue.rs crates/serve/src/request.rs crates/serve/src/service.rs"

status=0
for f in $FILES; do
    # Drop everything from the `#[cfg(test)]` marker to end of file (the
    # test module is always last in these files by convention).
    stripped=$(sed '/#\[cfg(test)\]/,$d' "$f")
    hits=$(printf '%s\n' "$stripped" \
        | grep -nE '\.unwrap\(\)|\.expect\(|panic!|unreachable!' \
        | grep -vE '^\s*[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "lint_panics: $f has panic sites in non-test code:" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "lint_panics: OK ($FILES)"
fi
exit "$status"
