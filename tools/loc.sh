#!/bin/sh
# Non-test Rust lines per crate: every line of every .rs file under src/ (and
# examples/), up to the file's `#[cfg(test)] mod` — test modules close their
# files here — so tests/, benches/ and unit tests are left out. The yardstick
# for ROADMAP item 6; CI diffs it against the committed `tools/loc.txt`, so
# every PR's size change is in its diff. Then the `unsafe` keywords among
# those lines (comments aside), the `pub` fields of every `pub struct` named
# `…Config`, `…Tuning` or `…Params` among them (each a value a caller can set:
# the options the design guide asks to count), and how many binaries and bench
# targets `monster-bench` builds (one per file, declared or discovered).
# Usage: tools/loc.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
unsafe=0
config=0
for crate in crates/* .; do
    [ -d "$crate/src" ] || continue
    set -- $(find "$crate/src" "$crate/examples" -name '*.rs' 2>/dev/null | xargs awk '
        function count() { n++; if ($0 !~ /^[ \t]*\/\//) u += gsub(/(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/, "&") }
        FNR == 1 { skip = 0; held = 0; conf = 0 }
        skip { next }
        held { held = 0; if ($0 ~ /^(pub )?mod /) { skip = 1; next } n++ }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        conf && /^[ \t]*}/ { conf = 0 }
        conf && /^[ \t]*pub [A-Za-z0-9_]+:/ { c++ }
        /^[ \t]*pub struct [A-Za-z0-9_]*(Config|Tuning|Params)[ <].*{$/ { conf = 1 }
        { count() }
        END { print n + 0, u + 0, c + 0 }')
    printf '%-18s %6d\n' "$crate" "$1"
    total=$((total + $1))
    unsafe=$((unsafe + $2))
    config=$((config + $3))
done
printf '%-18s %6d\n' total "$total"
printf '%-18s %6d\n' 'unsafe sites' "$unsafe"
printf '%-18s %6d\n' 'config fields' "$config"
count() { ls "$@" 2>/dev/null | wc -l; }
printf 'monster-bench      %6d bin + %d bench targets\n' \
    "$(count crates/bench/src/bin/*.rs)" "$(count crates/bench/benches/*.rs)"
