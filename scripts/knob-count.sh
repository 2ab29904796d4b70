#!/bin/sh
# The option surface in numbers: public fields of each configuration and
# report struct (the bench crate's `Cfg` structs as one sum),
# `EngineBuilder`'s setters (methods taking `mut self`), `ParallelismCfg`'s
# constructors (`pub fn .. -> Self`), and the workspace's package count
# (`members` plus the root package). The figures ROADMAP
# re-derives at every re-anchor and simplicity PRs quote before -> after in
# CHANGES.md; run it on a `git clone` of the parent for the "before".
# Reported, not gated.
# Usage: scripts/knob-count.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
# Lines matching `pattern` inside the top-level block opened by `opener`
# (closed by the first `}` in column 0).
count_in() {
    opener=$1 pattern=$2
    find crates/*/src -name '*.rs' -exec awk -v opener="$opener" -v pattern="$pattern" '
        index($0, opener) == 1 { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && $0 ~ pattern { n++ }
        END { print n + 0 }' {} +
}
for s in SolverCfg RunReport RemoteConfig SuperviseCfg FaultPlan ServeCfg SubmitOpts; do
    printf '%-28s %3d\n' "$s fields" "$(count_in "pub struct $s {" '^    pub [a-z_0-9]+:')"
done
# Every `pub struct ..Cfg {` of the bench crate, summed: one independently
# settable value per field.
printf '%-28s %3d\n' 'bench Cfg fields' "$(find crates/bench/src -name '*.rs' -exec awk '
    /^pub struct [A-Za-z]+Cfg \{/ { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }' {} +)"
printf '%-28s %3d\n' 'EngineBuilder setters' \
    "$(count_in 'impl EngineBuilder {' '^ +(pub fn [a-z_0-9]+\()?mut self[,)]')"
printf '%-28s %3d\n' 'ParallelismCfg constructors' \
    "$(count_in 'impl ParallelismCfg {' '^    pub (const )?fn .*-> Self')"
printf '%-28s %3d\n' 'workspace packages' "$(awk '
    /^members = \[/ { inside = 1; next }
    inside && /^\]/ { inside = 0 }
    inside && /"/ { n++ }
    /^\[package\]/ { n++ }
    END { print n + 0 }' Cargo.toml)"
