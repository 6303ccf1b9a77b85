#!/usr/bin/env bash
# Size of the executor core (ROADMAP item 2): `crates/{plan,vecexec,engine,
# ranges}/src`. "code" counts non-blank, non-comment lines before the first
# `#[cfg(test)]` of each file — what a simplicity PR reports; "raw" is
# `wc -l`, the ROADMAP's 18.5k target. Informational: no gate.
set -euo pipefail
cd "$(dirname "$0")/.."

code_total=0
raw_total=0
printf '%-10s %8s %8s\n' crate code raw
for crate in plan vecexec engine ranges; do
    code=0
    raw=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/{c++} END{print c+0}' "$file")
        code=$((code + n))
        raw=$((raw + $(wc -l <"$file")))
    done < <(find "crates/$crate/src" -name '*.rs' | sort)
    printf '%-10s %8d %8d\n' "$crate" "$code" "$raw"
    code_total=$((code_total + code))
    raw_total=$((raw_total + raw))
done
printf '%-10s %8d %8d\n' total "$code_total" "$raw_total"
