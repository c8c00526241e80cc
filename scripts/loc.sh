#!/usr/bin/env bash
# Prints the line counts ROADMAP.md tracks ("Per-crate `src` lines"), in that
# table's own format, so the numbers quoted there come from a command.
# `wc -l`, unit tests included; no threshold — it reports, it cannot fail a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every *.rs file under the given directories.
lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
# 12345 -> "12 345", the table's thousands separator.
spaced() { printf '%d' "$1" | sed -e ':a' -e 's/\([0-9]\)\([0-9]\{3\}\)\($\| \)/\1 \2\3/' -e 'ta'; }

echo "| crate | lines | | crate | lines | | crate | lines |"
echo "|---|---|---|---|---|---|---|---|"
for c in crates/*/; do
  echo "$(lines "${c}src") $(basename "$c")"
done | sort -rn | while read -r n name; do
  echo "| $name | $(spaced "$n") |"
done | paste -d' ' - - -
echo
echo "All Rust under crates/ (src + tests) $(spaced "$(lines crates)");" \
  "benchmark/src $(spaced "$(lines benchmark/src)"); vendor/ $(spaced "$(lines vendor)");" \
  "scripts/check.sh $(wc -l < scripts/check.sh) lines, $(grep -c '^echo "==>' scripts/check.sh) stages."
# The `unsafe` islands ROADMAP.md counts: each `#[allow(unsafe_code)]` site, by file.
sites=$(grep -rnF --include='*.rs' '#[allow(unsafe_code)]' crates | cut -d: -f1,2 || true)
echo "#[allow(unsafe_code)] sites: $(grep -c . <<< "$sites" || true)${sites:+ — }$(paste -sd' ' - <<< "$sites")"
