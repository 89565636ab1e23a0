#!/bin/sh
# Public items nothing in the product calls, in two sections. Each `pub
# fn|struct|enum|const|type|trait|static` declared in the non-test part of
# `crates/*/src` (up to the file's `#[cfg(test)] mod`, as `tools/loc.sh`
# counts) that its own non-test code names only at the declaration is
#   1. listed first if no other `.rs` file under crates/, src/, examples/,
#      tests/ or bench_pipeline/src names it;
#   2. listed after the `-- test-only --` line if other files name it, but
#      only tests and examples do: `tests/`, `crates/*/tests/`, `examples/`,
#      `#[cfg(test)]` modules and `tests.rs` files. A `use` line names
#      nothing here (a re-export is not a caller); the rest of `crates/*/src`
#      (the bench binaries among it), `src/` and `bench_pipeline/src` count.
# Comment lines do not count as naming anything. One `path kind name` line
# each, sorted within its section, followed by the reason an item is kept
# when a `// kept: <reason>` line sits right above its declaration. CI diffs
# the output against the committed `tools/unused.txt`, so a new orphan or a
# new test-only mechanism is a reviewed line of a PR's diff.
# Usage: tools/unused.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates src examples tests bench_pipeline/src -name '*.rs' -not -path '*/target/*' 2>/dev/null |
    LC_ALL=C sort | xargs awk '
    FNR == 1 {
        skip = 0; held = 0; using = 0; delete here; delete inprod; delete intest
        product = FILENAME ~ /^crates\/[^\/]+\/src\//
        caller = (product || FILENAME ~ /^(src|bench_pipeline\/src)\//) && FILENAME !~ /\/tests\.rs$/
    }
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
        if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) using = 1
        calls = caller && !skip && !using
        if (using && line ~ /;/) using = 0
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) {
            if (!(w[i] in here)) { here[w[i]] = 1; files[w[i]]++ }
            if (calls && !(w[i] in inprod)) { inprod[w[i]] = 1; prod[w[i]]++ }
            if (!calls && !(caller && !skip) && !(w[i] in intest)) { intest[w[i]] = 1; tested[w[i]]++ }
            if (product && !skip) own[FILENAME SUBSEP w[i]]++
        }
    }
    END {
        for (d = 1; d <= decls; d++) {
            if (own[dfile[d] SUBSEP dname[d]] != 1) continue
            if (files[dname[d]] == 1) section = 1
            else if (prod[dname[d]] == 1 && tested[dname[d]] > 0) section = 2
            else continue
            print section, dfile[d], dkind[d], dname[d] (dkept[d] == "" ? "" : " (" dkept[d] ")")
        }
        print 2
    }' | LC_ALL=C sort | awk '
    $0 == "2" { print "-- test-only --"; next }
    { sub(/^[12] /, ""); print }'
