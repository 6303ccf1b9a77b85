#!/usr/bin/env bash
# Size of the executor core (ROADMAP item 5): `crates/{plan,vecexec,engine,
# ranges}/src`, then the data layer `crates/data/src` they share and the sum
# of both (code that moves between the core and the data layer shows in
# neither total alone). "code" counts the non-blank, non-comment lines of the
# production code — every `#[cfg(test)]` item (a test module, a test-only
# function) is skipped wherever it sits in a file, and a file declared as
# `#[cfg(test)] mod name;` is not counted at all; this is what a simplicity
# PR reports. "raw" is `wc -l` over every file, the ROADMAP's 18.5k target.
# Informational: no gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-blank, non-comment lines outside `#[cfg(test)]` items. An item runs
# from the attribute to the `;` that ends it at brace depth 0 or to the
# brace closing its body; string and char literals are blanked before
# braces are counted.
count_code() {
    awk '
        function braces(line,    s) {
            s = line
            gsub(/\\\\/, "", s)
            gsub(/\\"/, "", s)
            gsub(/"[^"]*"/, "", s)
            gsub(/'"'"'[{}]'"'"'/, "", s)
            sub(/\/\/.*/, "", s)
            opened = gsub(/\{/, "{", s)
            closed = gsub(/\}/, "}", s)
        }
        skipping == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skipping = 1; depth = 0; seen = 0; next }
        skipping == 1 {
            braces($0)
            depth += opened - closed
            if (opened > 0) seen = 1
            if ((seen && depth <= 0) || (!seen && $0 ~ /;[[:space:]]*$/)) skipping = 0
            next
        }
        !/^[[:space:]]*(\/\/|$)/ { c++ }
        END { print c + 0 }
    ' "$1"
}

# The files `file` declares as `#[cfg(test)] mod name;`.
test_module_files() {
    local file=$1 dir
    case "$(basename "$file")" in
        lib.rs | main.rs | mod.rs) dir=$(dirname "$file") ;;
        *) dir="${file%.rs}" ;;
    esac
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*#\[/ { next }
        pending {
            if (match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/)) {
                line = $0
                sub(/^.*mod /, "", line)
                sub(/;.*$/, "", line)
                print line
            }
            pending = 0
        }
    ' "$file" | while IFS= read -r name; do
        for candidate in "$dir/$name.rs" "$dir/$name/mod.rs"; do
            [[ -f "$candidate" ]] && echo "$candidate"
        done
    done
}

# Print one crate's row and add it to the running totals.
code_total=0
raw_total=0
count_crate() {
    local crate=$1 files test_only code=0 raw=0
    files=$(find "crates/$crate/src" -name '*.rs' | sort)
    test_only=$(for file in $files; do test_module_files "$file"; done)
    for file in $files; do
        if ! grep -qxF "$file" <<<"$test_only"; then
            code=$((code + $(count_code "$file")))
        fi
        raw=$((raw + $(wc -l <"$file")))
    done
    printf '%-10s %8d %8d\n' "$crate" "$code" "$raw"
    code_total=$((code_total + code))
    raw_total=$((raw_total + raw))
}

printf '%-10s %8s %8s\n' crate code raw
for crate in plan vecexec engine ranges; do
    count_crate "$crate"
done
printf '%-10s %8d %8d\n' total "$code_total" "$raw_total"
count_crate data
printf '%-10s %8d %8d\n' core+data "$code_total" "$raw_total"
