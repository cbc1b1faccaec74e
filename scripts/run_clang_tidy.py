#!/usr/bin/env python3
"""Run clang-tidy over the project's compilation database.

Reads compile_commands.json (written by CMake; configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON, which the top-level CMakeLists.txt
already forces), filters to first-party translation units, and runs
clang-tidy on each in parallel. The check set lives in .clang-tidy.

Headers are not translation units, so `--changed BASE` maps a changed
header to every first-party TU that directly #includes it and lints
those. Each quoted include is resolved the way the build resolves it:
against the including file's directory first (how tests and benches
include their local headers), then against src/ (the include root of
every target). Transitive includes are not chased; a header-only change
that matters two hops away still surfaces in the full run.

If no clang-tidy binary is available (the local toolchain only ships
g++), this exits 0 with a SKIPPED note so pre-commit use never blocks;
CI installs the tool and runs the real thing.

Usage:
  scripts/run_clang_tidy.py [-p BUILD_DIR] [--changed BASE] [-j N] [FILE...]
"""

import argparse
import concurrent.futures
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIRST_PARTY = ("src", "bench", "tests", "examples", "tools")
HEADER_SUFFIXES = (".h", ".hpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
TOOL_CANDIDATES = ("clang-tidy", "clang-tidy-18", "clang-tidy-17",
                   "clang-tidy-16", "clang-tidy-15", "clang-tidy-14")


def find_tool():
    for name in TOOL_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def changed_files(base):
    out = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", base],
        cwd=REPO, capture_output=True, text=True, check=True).stdout
    return {str(REPO / f) for f in out.splitlines()}


def first_party_units(build_dir):
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        sys.exit(f"error: {db_path} not found; configure the build first "
                 "(cmake -B build -S .)")
    units = []
    for entry in json.loads(db_path.read_text()):
        source = str((Path(entry["directory"]) / entry["file"]).resolve())
        try:
            rel = Path(source).relative_to(REPO)
        except ValueError:
            continue
        if rel.parts[0] in FIRST_PARTY:
            units.append(source)
    return sorted(set(units))


def resolve_include(spelling, including_file):
    """The file a quoted #include in `including_file` names, or None."""
    for base in (Path(including_file).parent, REPO / "src"):
        candidate = (base / spelling).resolve()
        if candidate.is_file():
            return candidate
    return None


def expand_headers(selected, units):
    """Replace headers in `selected` with the TUs that include them.

    Headers never appear in the compilation database, so a changed-header
    run would otherwise lint nothing. Resolves each first-party TU's direct
    `#include "..."` lines and keeps the TUs that name a selected header.
    """
    headers = {f for f in selected if f.endswith(HEADER_SUFFIXES)}
    out = {f for f in selected if f not in headers}
    if not headers:
        return out
    wanted = {Path(h).resolve() for h in headers}
    for unit in units:
        try:
            text = Path(unit).read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        if any(resolve_include(inc, unit) in wanted
               for inc in INCLUDE_RE.findall(text)):
            out.add(unit)
    return out


def run_one(tool, build_dir, source):
    proc = subprocess.run(
        [tool, "-p", str(build_dir), "--quiet", source],
        capture_output=True, text=True)
    return source, proc.returncode, proc.stdout + proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="restrict to these sources")
    parser.add_argument("-p", "--build-dir", default="build",
                        help="build dir holding compile_commands.json")
    parser.add_argument("--changed", metavar="BASE",
                        help="only lint sources changed since this git ref")
    parser.add_argument("-j", "--jobs", type=int, default=4)
    args = parser.parse_args()

    tool = find_tool()
    if tool is None:
        print("run_clang_tidy: SKIPPED (no clang-tidy binary on PATH)")
        return 0

    build_dir = (REPO / args.build_dir).resolve()
    all_units = first_party_units(build_dir)

    only = None
    if args.files:
        only = {str(Path(f).resolve()) for f in args.files}
    elif args.changed:
        only = changed_files(args.changed)
    if only is not None:
        only = expand_headers(only, all_units)
        units = sorted(u for u in all_units if u in only)
    else:
        units = all_units
    if not units:
        print("run_clang_tidy: no matching translation units")
        return 0

    failures = 0
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, tool, build_dir, u) for u in units]
        for future in concurrent.futures.as_completed(futures):
            source, code, output = future.result()
            rel = Path(source).relative_to(REPO)
            if code != 0 or "warning:" in output or "error:" in output:
                failures += 1
                print(f"--- {rel}")
                print(output.rstrip())
            else:
                print(f"ok  {rel}")
    print(f"run_clang_tidy: {len(units)} units, {failures} with findings",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
