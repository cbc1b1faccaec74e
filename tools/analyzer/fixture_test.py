#!/usr/bin/env python3
"""Golden-fixture driver for surfnet-analyze.

Each subdirectory of --fixtures is a miniature repo root: top-level trees
(`src/`, `tests/`, ...) that are all analyzed, optional config files
(`layers.json`, `trace_schema.json`, `baseline.json`), an `expected.txt`
with the exact finding lines the analyzer must print (missing or empty =
the fixture must be clean), and an optional
`expect_exit` overriding the derived exit code (used by the config-error
fixtures).

Run with --update to regenerate every expected.txt from current analyzer
output (then diff-review the result like any golden change).
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

FINDING_RE = re.compile(r"^\S+:\d+: \[[a-z-]+\] ")


def run_fixture(analyzer: str, fixture: Path):
    trees = sorted(p.name for p in fixture.iterdir() if p.is_dir())
    cmd = [
        analyzer, *trees,
        "--repo-root", str(fixture),
        "--layers", "layers.json",
        "--trace-schema", "trace_schema.json",
        "--trace-impl", "src/obs/trace.cpp",
        "--baseline", "baseline.json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = [ln for ln in proc.stdout.splitlines() if FINDING_RE.match(ln)]
    return proc, findings


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--analyzer", required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--update", action="store_true",
                        help="rewrite expected.txt files from current output")
    args = parser.parse_args()

    fixtures = sorted(p for p in Path(args.fixtures).iterdir() if p.is_dir())
    if not fixtures:
        sys.exit("fixture_test: no fixtures found")

    failures = []
    for fixture in fixtures:
        proc, findings = run_fixture(args.analyzer, fixture)
        expected_file = fixture / "expected.txt"

        if args.update:
            if findings:
                expected_file.write_text("\n".join(findings) + "\n")
            elif expected_file.exists():
                expected_file.unlink()
            print(f"updated {fixture.name}: {len(findings)} finding(s)")
            continue

        expected = []
        if expected_file.exists():
            expected = [ln for ln in expected_file.read_text().splitlines()
                        if ln.strip()]
        exit_file = fixture / "expect_exit"
        want_exit = (int(exit_file.read_text().strip()) if exit_file.exists()
                     else (1 if expected else 0))

        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode} != expected {want_exit}"
                + (f"; stderr: {proc.stderr.strip()}" if proc.stderr else ""))
        if want_exit != 2 and findings != expected:
            missing = [ln for ln in expected if ln not in findings]
            extra = [ln for ln in findings if ln not in expected]
            for ln in missing:
                problems.append(f"missing: {ln}")
            for ln in extra:
                problems.append(f"unexpected: {ln}")
        if problems:
            failures.append((fixture.name, problems))
            print(f"FAIL {fixture.name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"ok   {fixture.name} ({len(findings)} finding(s))")

    if failures:
        sys.exit(f"fixture_test: {len(failures)}/{len(fixtures)} "
                 "fixture(s) failed")
    print(f"fixture_test: all {len(fixtures)} fixtures passed")


if __name__ == "__main__":
    main()
