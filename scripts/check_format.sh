#!/usr/bin/env bash
# Check (or with --fix, apply) clang-format over all first-party C++ files.
# Exits 0 with a SKIPPED note when no clang-format binary is available so
# local use on the g++-only toolchain never blocks; CI installs the tool.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

tool=""
for candidate in clang-format clang-format-18 clang-format-17 \
                 clang-format-16 clang-format-15 clang-format-14; do
  if command -v "${candidate}" >/dev/null 2>&1; then
    tool="${candidate}"
    break
  fi
done
if [[ -z "${tool}" ]]; then
  echo "check_format: SKIPPED (no clang-format binary on PATH)"
  exit 0
fi

mode="--dry-run --Werror"
if [[ "${1:-}" == "--fix" ]]; then
  mode="-i"
fi

mapfile -t files < <(git ls-files 'src/**/*.h' 'src/**/*.cpp' \
  'bench/*.h' 'bench/*.cpp' 'tests/**/*.h' 'tests/**/*.cpp' 'tests/*.cpp' \
  'examples/*.cpp')

# shellcheck disable=SC2086
"${tool}" ${mode} --style=file "${files[@]}"
echo "check_format: ${#files[@]} files checked with ${tool}"
