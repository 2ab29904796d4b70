#!/bin/sh
# Public functions nothing calls: for every `pub fn` declared in the
# non-test, non-comment lines of `crates/*/src`, prints `file:line name`
# when the name occurs nowhere else in the non-test, non-comment lines of
# `crates/*/src`, `benchmark/src`, `examples/` and `src/`. "Non-test" is the
# rule of `nontest-lines.sh` (above a file's first `#[cfg(test)]`), so a
# function only tests and doc examples call is listed.
#
# String literals (and the `'"'` character literal) are blanked before a
# line is split into words, so a name that only a message mentions — a
# function's own assert text, say — is no call. The word after `fn` is a
# declaration, not a use: a trait method of the same name
# (`impl AddAssign for VDur { fn add_assign`) hides no `pub fn`.
#
# This is a name match, not a resolution: a name shared with a called
# function (`new`, `len`, ...) hides an uncalled one, never the reverse —
# everything printed really has no caller by that name. It is the next diet
# PR's worklist, not a rule: the paper's Table 1 API and planned bench arms
# are on it and stay.
#
# A second listing follows for the offline shims: every `pub fn` in the
# non-test lines of `shims/*/src` that no line, tests included (`proptest`
# has no other caller), of `crates/`, `benchmark/src`, `examples/` or `src/`
# names; one a shim's own non-test code names again (a macro body, say) is
# marked `(named inside shims/)`. Its lines start with `shims/`, the first
# listing's with `crates/`.
# Usage: scripts/uncalled-pub.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src benchmark/src examples src -name '*.rs' -exec awk -v sq="'" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
        line = $0
        gsub(sq "\"" sq, "", line)
        gsub(/"([^"\\]|\\.)*"/, "", line)
        sub(/\/\/.*/, "", line)
        if (FILENAME ~ /^crates\// && match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART + 7, RLENGTH - 7)
            decl[FILENAME ":" FNR " " name] = name
        }
        gsub(/(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " ", line)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            seen[substr(line, RSTART, RLENGTH)]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (d in decl) if (!(decl[d] in seen)) print d
    }' {} + | sort -t: -k1,1 -k2,2n
find shims/*/src crates benchmark/src examples src -name '*.rs' -exec awk -v sq="'" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    {
        in_shim = FILENAME ~ /^shims\//
        if (in_shim && in_tests) next
        line = $0
        gsub(sq "\"" sq, "", line)
        gsub(/"([^"\\]|\\.)*"/, "", line)
        sub(/\/\/.*/, "", line)
        if (in_shim && match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART + 7, RLENGTH - 7)
            decl[FILENAME ":" FNR " " name] = name
        }
        gsub(/(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " ", line)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            if (in_shim) inside[word]++; else seen[word]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (d in decl) if (!(decl[d] in seen))
            print d (decl[d] in inside ? " (named inside shims/)" : "")
    }' {} + | sort -t: -k1,1 -k2,2n
