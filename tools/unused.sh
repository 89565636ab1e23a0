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
# Comment lines do not count as naming anything. Nor does the body of an
# item that is itself listed: an item only a listed item calls is listed
# too, and the list is recomputed until it stops changing. (A body runs
# from the declaration to the brace that closes it, or to the `;` that
# ends a declaration without braces.) One `path kind name` line each,
# sorted within its section, followed by the reason an item is kept when a
# `// kept: <reason>` line sits right above its declaration. CI diffs the
# output against the committed `tools/unused.txt`, so a new orphan or a new
# test-only mechanism is a reviewed line of a PR's diff.
# Names are matched as words, not resolved: two methods of one name on
# different types (`Db::tail_points` and `Shard::tail_points`, say) are one
# name here, and either one's callers keep both off the list. Only a
# compiler-driven tool could tell them apart.
# Usage: tools/unused.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates src examples tests bench_pipeline/src -name '*.rs' -not -path '*/target/*' 2>/dev/null |
    LC_ALL=C sort | xargs awk '
    FNR == 1 {
        skip = 0; held = 0; using = 0; delete here; delete inprod; delete intest
        product = FILENAME ~ /^crates\/[^\/]+\/src\//
        caller = (product || FILENAME ~ /^(src|bench_pipeline\/src)\//) && FILENAME !~ /\/tests\.rs$/
        depth = 0; top = 0; instr = 0
    }
    held { held = 0; if ($0 ~ /^(pub )?mod /) skip = 1 }
    /^#\[cfg\(test\)\]$/ { held = 1 }
    /^[ \t]*\/\// { kept = $0 ~ /^[ \t]*\/\/ kept: / ? $0 : ""; next }
    {
        line = $0
        track = product && caller && !skip
        if (product && !skip && match(line, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|const|type|trait|static) [A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr(line, RSTART, RLENGTH), w, " ")
            decls++
            dfile[decls] = FILENAME; dkind[decls] = w[n - 1]; dname[decls] = w[n]
            sub(/^[ \t]*\/\/ /, "", kept); dkept[decls] = kept
            if (track) { top++; body[top] = decls; base[top] = depth; opened[top] = 0 }
        }
        kept = ""
        b = top > 0 ? body[top] : 0
        if (track) braces(line)
        if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) using = 1
        calls = caller && !skip && !using
        if (using && line ~ /;/) using = 0
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) {
            t = w[i]
            if (b && calls) {
                # Inside a declaration: kept apart until the end knows
                # whether that declaration is listed.
                if (!((b, t) in inbody)) { inbody[b, t] = 0; bodies[t] = bodies[t] " " b }
                inbody[b, t]++
                continue
            }
            if (!(t in here)) { here[t] = 1; files[t]++; named[t, FILENAME] = 1 }
            if (calls && !(t in inprod)) { inprod[t] = 1; prod[t]++; called[t, FILENAME] = 1 }
            if (!calls && !(caller && !skip) && !(t in intest)) { intest[t] = 1; tested[t]++ }
            if (product && !skip) own[FILENAME SUBSEP t]++
        }
    }
    # Brace depth of a product line, its string and character literals and
    # trailing comment removed; closes the declaration bodies it ends.
    function braces(s,    opens, closes) {
        gsub(/\\\\/, "", s)
        gsub(/\\"/, "", s)
        if (instr) {
            if (!index(s, "\"")) return
            s = substr(s, index(s, "\"") + 1); instr = 0
        }
        gsub(/'\''([^'\''\\]|\\.)'\''/, "", s)
        gsub(/"[^"]*"/, "", s)
        if (index(s, "\"")) { s = substr(s, 1, index(s, "\"") - 1); instr = 1 }
        sub(/\/\/.*/, "", s)
        opens = gsub(/\{/, "", s); closes = gsub(/\}/, "", s)
        if (top > 0 && opens > 0) opened[top] = 1
        depth += opens - closes
        while (top > 0 && (opened[top] ? depth <= base[top] : depth == base[top] && s ~ /;[ \t]*$/)) top--
    }
    # The section declaration d falls in while the declarations in
    # `listed` are listed: 0 when something still calls it.
    function section(d,    t, f, k, n, ids, nfiles, nprod, nown, seen) {
        t = dname[d]
        nfiles = files[t]; nprod = prod[t]; nown = own[dfile[d] SUBSEP t]
        n = split(bodies[t], ids, " ")
        for (k = 1; k <= n; k++) {
            if (ids[k] != d && ids[k] in listed) continue
            f = dfile[ids[k]]
            if (f == dfile[d]) nown += inbody[ids[k], t]
            if (!((t, f) in named) && !(f in seen)) { seen[f] = 1; nfiles++ }
            if (!((t, f) in called) && !((f, 1) in seen)) { seen[f, 1] = 1; nprod++ }
        }
        if (nown != 1) return 0
        if (nfiles == 1) return 1
        if (nprod == 1 && tested[t] > 0) return 2
        return 0
    }
    END {
        do {
            grew = 0
            for (d = 1; d <= decls; d++)
                if (!(d in listed) && section(d)) { listed[d] = 1; grew = 1 }
        } while (grew)
        for (d = 1; d <= decls; d++) {
            if (!(d in listed)) continue
            print section(d), dfile[d], dkind[d], dname[d] (dkept[d] == "" ? "" : " (" dkept[d] ")")
        }
        print 2
    }' | LC_ALL=C sort | awk '
    $0 == "2" { print "-- test-only --"; next }
    { sub(/^[12] /, ""); print }'
