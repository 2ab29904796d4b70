#!/bin/sh
# Non-test source lines per crate and in total: for every `.rs` file under
# `crates/*/src` (`src/bin` included), the lines above its first
# `#[cfg(test)]`. The figure each simplicity PR reports in CHANGES.md.
# Usage: scripts/nontest-lines.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
count() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }' {} +
}
for crate in crates/*/; do
    printf '%-18s %6d\n' "${crate%/}" "$(count "${crate}src")"
done
printf '%-18s %6d\n' total "$(count crates/*/src)"
