#!/bin/sh
# Every name-filtered `cargo test` line of the CI workflow selects at least
# one test. A filter whose test was deleted or renamed passes with 0 tests
# run; this lists each distinct filtered line with the number of tests it
# selects (`-- --list`, summed over every binary the line builds) and exits
# 1 when any selects none.
# Usage: scripts/ci-test-filters.sh [workflow]
set -eu
cd "$(dirname "$0")/.."
wf=${1:-.github/workflows/ci.yml}
set -f
bad=0
while read -r line; do
    [ -n "$line" ] || continue
    # shellcheck disable=SC2086 # the line's own words, split as the shell would
    set -- $line
    shift 2
    args=""
    filter=""
    while [ $# -gt 0 ]; do
        case $1 in
        --) break ;;
        -q) ;;
        -p | --package | --test | --bin | --manifest-path | --features)
            args="$args $1 $2"
            shift
            ;;
        -*) args="$args $1" ;;
        *) filter="$filter $1" ;;
        esac
        shift
    done
    [ -n "$filter" ] || continue
    # shellcheck disable=SC2086
    if ! out=$(cargo test $args $filter -- --list 2>&1); then
        printf '%s\n' "$out" >&2
        count=0
    else
        count=$(printf '%s\n' "$out" | grep -c ': test$' || true)
    fi
    status=ok
    if [ "$count" -eq 0 ]; then
        status=FAIL
        bad=1
    fi
    printf '%-4s %4d  %s\n' "$status" "$count" "$line"
done <<EOF
$(sed -n 's/^[[:space:]]*\(run:[[:space:]]*\)\{0,1\}\(cargo test .*\)$/\2/p' "$wf" | sort -u)
EOF
exit $bad
