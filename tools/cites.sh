#!/bin/sh
# Citations that point at nothing. Scans README.md, DESIGN.md,
# EXPERIMENTS.md, ROADMAP.md, bench_pipeline/README.md, every Rust file
# under crates/, src/, tests/, examples/ and tools/, the scripts in tools/
# and .github/workflows/ci.yml (CHANGES.md is a ledger of history and is not
# scanned), and checks that
#   - every ROADMAP citation (the word "item" or "items" before one or more
#     numbers, or a number with a sub-letter in parentheses) names an open
#     item of ROADMAP.md (a line `N. **…` at the left margin; its text runs
#     to the next such line) or an entry of its closed list (the `- N …`
#     lines under a line that starts `**Closed**`), and that the sub-letter
#     appears in that item's text or on its closed line;
#   - every DESIGN.md section number after a section sign, wherever it is
#     cited, is a `## N.` heading of DESIGN.md;
#   - every quoted title after "EXPERIMENTS.md" is part of one of its
#     headings;
#   - every finding number is a numbered entry of the findings list in
#     bench_pipeline/README.md;
#   - every `BENCH_*.json`, every path under crates/bench/expectations/ and
#     every file or repo path written in backticks exists: a name with a
#     known extension (`fig18.txt`, anywhere in the repo) or a path whose
#     first part is a top-level entry (`crates/core/src/lib.rs`,
#     `examples/quickstart`, `bench_pipeline/`; a `:line` suffix, a missing
#     `.rs` and leading directories may be left out), unless the same
#     backticked name is on a line of DESIGN.md's "Withdrawn" section, which
#     names what was deleted and in which PR.
# A citation may run onto the next line: each line is read joined with the
# next, leading comment markers (`//!`, `///`, `//`, `#`) stripped from
# both, and a citation is reported at the line it starts on.
# Prints `file:line: citation` for each one that does not resolve and exits
# 1 if there is any. CI runs it beside tools/loc.sh.
# Usage: tools/cites.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
scanned="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md bench_pipeline/README.md
$(find crates src tests examples tools -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort)
$(ls tools/*.sh) .github/workflows/ci.yml"
find . \( -name .git -o -name target -o -name .bench_build \) -prune -o -print |
    sed 's|^\./||' | LC_ALL=C awk '
    # Every occurrence of regex re in s, one a line of the array out; with
    # a cut, only those that start at or before position cut.
    function all(s, re, out, cut,    n, off) {
        n = 0; off = 0
        while (match(s, re)) {
            if (cut != "" && off + RSTART > cut) break
            out[++n] = substr(s, RSTART, RLENGTH)
            off += RSTART + RLENGTH - 1
            s = substr(s, RSTART + RLENGTH)
        }
        return n
    }
    # A line with its leading comment marker and the blanks around it gone.
    function bare(s) {
        sub(/^[ \t]*(\/\/[\/!]?|#+)?[ \t]*/, "", s)
        return s
    }
    # The sub-letters in s that follow no item number: `(b′)`, not `16(b)`.
    function letters(s, out,    n, i) {
        n = all(s, "(^|[^0-9A-Za-z])\\([a-z]+(′)?\\)", out)
        for (i = 1; i <= n; i++) sub(/^[^(]/, "", out[i])
        return n
    }
    function report(what,    key) {
        key = at_file SUBSEP at_line SUBSEP what
        if (!(key in reported)) { reported[key] = 1; printf "%s:%d: %s\n", at_file, at_line, what }
        bad = 1
    }
    function path_exists(p,    q) {
        sub(/:[0-9].*$/, "", p)
        q = p; sub(/\/$/, "", q)
        if (q in paths) return 1
        if (index(q, "/")) { for (f in paths) if (substr(f, length(f) - length(q)) == "/" q) return 1; return 0 }
        return q in names
    }
    phase == "" {
        paths[$0] = 1; n = split($0, parts, "/"); names[parts[n]] = 1
        next
    }
    # The index: ROADMAP items, DESIGN sections, EXPERIMENTS headings, findings.
    phase == "index" && FILENAME == "ROADMAP.md" {
        if ($0 ~ /^[0-9]+\. \*\*/) { item = $0 + 0; open[item] = 1 }
        else if ($0 ~ /^(\*\*Parked|## )/) item = 0
        if ($0 ~ /^\*\*Closed\*\*/) { closing = 1; next }
        if (closing && $0 == "") closing = 0
        if (closing && match($0, /^- [0-9]+(\([a-z]+(′)?\))?/)) {
            key = substr($0, 3, RLENGTH - 2); closed[key] = 1
            num = key + 0
            if (key != num) closed[num "@" substr(key, length(num) + 1)] = 1
            n = letters($0, m)
            for (i = 1; i <= n; i++) closed[num "@" m[i]] = 1
        }
        if (item) { n = letters($0, m); for (i = 1; i <= n; i++) letter[item "@" m[i]] = 1 }
        next
    }
    phase == "index" && FILENAME == "DESIGN.md" {
        if ($0 ~ /^## [0-9]+\. /) { split($0, h, /[ .]/); section[h[2]] = 1 }
        if ($0 ~ /^## /) withdrawn = $0 ~ /^## Withdrawn/
        if (withdrawn) { n = all($0, "`[^`]+`", m); for (i = 1; i <= n; i++) gone[m[i]] = 1 }
        next
    }
    phase == "index" && FILENAME == "EXPERIMENTS.md" {
        if ($0 ~ /^#/) heading[++headings] = $0
        next
    }
    phase == "index" && FILENAME == "bench_pipeline/README.md" {
        if ($0 ~ /^Findings /) findings = 1
        if (findings && $0 ~ /^[0-9]+\. \*\*/) finding[$0 + 0] = 1
        next
    }
    # The citations of line `first`, read joined with `then`: those that
    # start on `first`, reported at (at_file, at_line).
    function scan(first, then,    line, cut, n, m, i, k, j, nums, c, num, x, t, p, top) {
        line = first " " then; cut = length(first)
        n = all(line, "[Ii]tems? [0-9]+((, | and | or |–)[0-9]+)*", m, cut)
        for (i = 1; i <= n; i++) {
            k = all(m[i], "[0-9]+", nums)
            for (j = 1; j <= k; j++) if (!(nums[j] in open) && !(nums[j] in closed)) report("item " nums[j])
        }
        n = all(line, "(^|[^A-Za-z0-9_.§#])[0-9]+\\([a-z]+(′)?\\)", m, cut)
        for (i = 1; i <= n; i++) {
            c = m[i]; sub(/^[^0-9]/, "", c)
            num = c + 0; x = substr(c, length(num) + 1)
            if (!((num in open) && ((num "@" x) in letter)) && !((num "@" x) in closed)) report(c)
        }
        n = all(line, "§[0-9]+", m, cut)
        for (i = 1; i <= n; i++) if (!(substr(m[i], 3) in section)) report("DESIGN.md " m[i])
        n = all(line, "EXPERIMENTS\\.md,? \"[^\"]+\"", m, cut)
        for (i = 1; i <= n; i++) {
            t = m[i]; sub(/^[^"]*"/, "", t); sub(/"$/, "", t)
            for (j = 1; j <= headings; j++) if (index(heading[j], t)) break
            if (j > headings) report("EXPERIMENTS.md \"" t "\"")
        }
        n = all(line, "[Ff]indings? [0-9]+((, | and | or |–)[0-9]+)*", m, cut)
        for (i = 1; i <= n; i++) {
            k = all(m[i], "[0-9]+", nums)
            for (j = 1; j <= k; j++) if (!(nums[j] in finding)) report("finding " nums[j])
        }
        n = all(line, "BENCH_[A-Za-z0-9_]+\\.jsonl?|crates/bench/expectations/[A-Za-z0-9_./-]*[A-Za-z0-9_]", m, cut)
        for (i = 1; i <= n; i++) if (!path_exists(m[i]) && !(("`" m[i] "`") in gone)) report(m[i])
        n = all(line, "`[A-Za-z0-9_.][A-Za-z0-9_./-]*(:[0-9][0-9–,-]*)?`", m, cut)
        for (i = 1; i <= n; i++) {
            p = substr(m[i], 2, length(m[i]) - 2)
            top = p; sub(/\/.*/, "", top)
            if (p !~ /[^\/]\.(rs|md|json|jsonl|txt|sh|toml|yml)(:|$)/ && !(index(p, "/") && top in paths)) continue
            if (p ~ /(^|\/)target\// || m[i] in gone) continue
            if (!path_exists(p) && !path_exists(p ".rs")) report(p)
        }
    }
    phase == "scan" {
        cur = bare($0)
        if (FNR == 1 && at_file != "") scan(prev, "")
        else if (at_file != "") scan(prev, cur)
        prev = cur; at_file = FILENAME; at_line = FNR
    }
    END { if (at_file != "") scan(prev, ""); exit bad }
' - phase=index ROADMAP.md DESIGN.md EXPERIMENTS.md bench_pipeline/README.md phase=scan $scanned
