#!/bin/sh
# The dense row kernels' AVX2 instantiations (`dense::dot_avx2`,
# `dot4_avx2`, `axpy_avx2`, `axpy4_avx2`) are in the binary, every copy of
# each uses `ymm` registers, and none contains a fused multiply-add
# (`vfmadd` and kin), which would round once where the kernel body rounds
# twice. A refactor that silently
# loses the wide build, or lets it contract, fails here.
# Usage: scripts/kernel-isa.sh [binary]
# Without an argument it builds and inspects `async-linalg`'s release
# `proptests` binary, which reaches the kernels only through the public
# `dot` / `dot4` / `axpy` / `axpy4`: a dropped dispatch leaves no copy there.
set -eu
cd "$(dirname "$0")/.."
bin=${1:-}
if [ -z "$bin" ]; then
    bin=$(cargo test --release -p async-linalg --test proptests --no-run 2>&1 |
        sed -n 's/^ *Executable tests\/proptests\.rs (\(.*\))$/\1/p')
fi
if [ ! -f "$bin" ]; then
    echo "kernel-isa: no binary '$bin'" >&2
    exit 2
fi
objdump -d --no-show-raw-insn -C "$bin" | awk '
    BEGIN { split("dot_avx2 dot4_avx2 axpy_avx2 axpy4_avx2", want, " ") }
    /^[0-9a-f]+ </ {
        cur = ""
        for (k in want) {
            sym = "async_linalg::dense::" want[k]
            if (index($0, "<" sym ">:") || index($0, "<" sym "::<")) cur = want[k]
        }
        if (cur != "") { id = cur "#" ++copies[cur]; ymm[id] = 0; fma[id] = 0 }
        next
    }
    cur != "" && /ymm/ { ymm[id] = 1 }
    cur != "" && /vf(n)?m(add|sub)/ { fma[id] = 1 }
    END {
        bad = 0
        for (k = 1; k in want; k++) {
            name = want[k]; n = copies[name] + 0; noymm = 0; fused = 0
            for (i = 1; i <= n; i++) {
                if (!ymm[name "#" i]) noymm++
                if (fma[name "#" i]) fused++
            }
            status = (n == 0 || noymm || fused) ? "FAIL" : "ok"
            printf "%-10s %s: %d copies, %d without ymm, %d with fused multiply-add\n", name, status, n, noymm, fused
            if (status == "FAIL") bad = 1
        }
        exit bad
    }'
