#!/usr/bin/env bash
# Prints the non-test Rust line count of the workspace.
#
# Counts every `.rs` file under `crates/` and `src/`, each cut at its
# first line that starts, after indentation, with `#[cfg(test)]` (the
# in-file unit tests), and skips `tests/` directories (integration
# tests). Run from anywhere:
#
#   scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/tests/*' -print0 |
  sort -z |
  xargs -0 awk '
    FNR == 1 { cut = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    !cut { n++ }
    END { print n }
  '
