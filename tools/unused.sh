#!/bin/sh
# Public items with no caller: each `pub fn|struct|enum|const|type|trait|
# static` declared in the non-test part of `crates/*/src` (up to the file's
# `#[cfg(test)] mod`, as `tools/loc.sh` counts) whose name no other `.rs`
# file under crates/, src/, examples/, tests/ or bench_pipeline/src names,
# and which its own non-test code names only at the declaration. Comment
# lines do not count as naming anything. One `path kind name` line each,
# sorted, followed by the reason an item is kept when a `// kept: <reason>`
# line sits right above its declaration. CI diffs the output against the
# committed `tools/unused.txt`, so a new orphan is a reviewed line of a PR's
# diff.
# Usage: tools/unused.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates src examples tests bench_pipeline/src -name '*.rs' -not -path '*/target/*' 2>/dev/null |
    LC_ALL=C sort | xargs awk '
    FNR == 1 { skip = 0; held = 0; delete here; product = FILENAME ~ /^crates\/[^\/]+\/src\// }
    held { held = 0; if ($0 ~ /^(pub )?mod /) skip = 1 }
    /^#\[cfg\(test\)\]$/ { held = 1 }
    /^[ \t]*\/\// { kept = $0 ~ /^[ \t]*\/\/ kept: / ? $0 : ""; next }
    {
        line = $0
        if (product && !skip && match(line, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|const|type|trait|static) [A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr(line, RSTART, RLENGTH), w, " ")
            decls++
            dfile[decls] = FILENAME; dkind[decls] = w[n - 1]; dname[decls] = w[n]
            sub(/^[ \t]*\/\/ /, "", kept); dkept[decls] = kept
        }
        kept = ""
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) {
            if (!(w[i] in here)) { here[w[i]] = 1; files[w[i]]++ }
            if (product && !skip) own[FILENAME SUBSEP w[i]]++
        }
    }
    END {
        for (d = 1; d <= decls; d++)
            if (files[dname[d]] == 1 && own[dfile[d] SUBSEP dname[d]] == 1)
                print dfile[d], dkind[d], dname[d] (dkept[d] == "" ? "" : " (" dkept[d] ")")
    }' | LC_ALL=C sort
