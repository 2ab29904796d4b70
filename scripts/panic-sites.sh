#!/bin/sh
# Unsafe and panic sites per file: for every `.rs` file under `crates/*/src`
# (`src/bin` included), in the non-comment code above its first
# `#[cfg(test)]` (the rule of `nontest-lines.sh`), prints
#
#   unsafe     occurrences of the keyword `unsafe` (blocks, `unsafe fn`,
#              `unsafe impl`);
#   panic      panic sites: `expect(`, `panic!`, `unwrap()`, the `assert!`
#              family (`assert_eq!`, `debug_assert!`, ...) and
#              `unreachable!`;
#   invariant  how many of those panic sites are classified: they sit in a
#              statement directly under a `// invariant:` comment block (or
#              carry one at the end of their line). A statement ends at a
#              code line ending in `;`, `{` or `}`.
#
# Files with no site are skipped; the last line is the total. Comments are
# cut at the first `//`, so a site inside a string holding `//` is missed.
# Reported, not gated.
# Usage: scripts/panic-sites.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
printf '%-40s %6s %6s %9s\n' file unsafe panic invariant
find crates/*/src -name '*.rs' | sort | xargs awk '
    function flush() {
        if (u + p > 0) printf "%-40s %6d %6d %9d\n", file, u, p, v
        tu += u; tp += p; tv += v
    }
    FNR == 1 {
        if (NR > 1) flush()
        file = FILENAME; in_tests = 0; under = 0; prev_comment = 0
        u = 0; p = 0; v = 0
    }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[ \t]*\/\// {
        tagged = $0 ~ /\/\/ invariant:/
        under = prev_comment ? (under || tagged) : tagged
        prev_comment = 1
        next
    }
    {
        prev_comment = 0
        code = $0
        tail = ""
        if (match(code, /\/\//)) {
            tail = substr(code, RSTART)
            code = substr(code, 1, RSTART - 1)
        }
        line = code
        n_unsafe = gsub(/(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/, "", line)
        line = code
        n_panic = gsub(/expect\(|panic!|unwrap\(\)|assert[a-z_]*!|unreachable!/, "", line)
        u += n_unsafe
        p += n_panic
        if (under || tail ~ /invariant:/) v += n_panic
        if (code ~ /[;{}][ \t]*$/) under = 0
    }
    END {
        if (NR > 0) flush()
        printf "%-40s %6d %6d %9d\n", "total", tu, tp, tv
    }'
