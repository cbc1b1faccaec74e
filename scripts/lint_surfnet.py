#!/usr/bin/env python3
"""Project-specific lint rules the compiler cannot enforce.

Rules (scoped per tree; see RULES below):

  wallclock-seeding   No std::rand / srand / std::random_device /
                      system_clock / time(...) anywhere outside
                      bench/bench_common.h (the ArgParser owns the only
                      wall-clock entropy escape hatch, and nothing uses it
                      today). Monotonic timing (steady_clock) is fine;
                      nondeterministic *seeding* is what breaks the
                      bitwise-reproducibility contract of the trial runner
                      and the traced simulator.

  stdio-in-src        No std::cout / std::cerr / <iostream> / printf /
                      puts in src/: library code reports through the obs
                      layer (metrics + trace sinks), never directly to the
                      process streams. snprintf into buffers and fprintf
                      to explicit FILE* handles are fine.

  header-hygiene      Every header starts with #pragma once as its first
                      non-comment line, and no #ifndef-style include
                      guards (the pragma is the project idiom).

  event-core-purity   The event engine (src/netsim/event*) and the
                      traffic engine built on it (src/netsim/workload*)
                      admit no wall-clock of any kind — not even the
                      monotonic steady_clock allowed elsewhere — and no
                      std::unordered_* containers at all (not just
                      iteration). Virtual time must come only from the
                      event queue and handler order must be fully
                      deterministic; both leaks would silently break the
                      bitwise equivalence between skip mode and the
                      every-slot oracle that the differential tests pin
                      down.

The unordered-iteration rule that used to live here moved to the C++
analyzer (`surfnet-analyze`, rule `unordered-state`), which sees real
declarations instead of regex guesses; this script keeps only the rules
that are cheap line patterns.

Suppression: a line containing `lint: allow(<rule>)` in a comment
suppresses that rule for the whole file (use sparingly, state why).

Usage:
  scripts/lint_surfnet.py                 # lint the default trees
  scripts/lint_surfnet.py FILE...         # lint specific files
  scripts/lint_surfnet.py --changed BASE  # lint files changed since BASE

Exits nonzero when any finding is reported.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_TREES = ("src", "bench", "tests", "examples")
CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

WALLCLOCK_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bstd::time\s*\("), "std::time"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
]

STDIO_PATTERNS = [
    (re.compile(r"\bstd::cout\b"), "std::cout"),
    (re.compile(r"\bstd::cerr\b"), "std::cerr"),
    (re.compile(r"#\s*include\s*<iostream>"), "<iostream>"),
    (re.compile(r"(?<![\w:])printf\s*\("), "printf"),
    (re.compile(r"\bfprintf\s*\(\s*stdout\b"), "fprintf(stdout)"),
    (re.compile(r"(?<![\w:])puts\s*\("), "puts"),
]

EVENT_CORE_PATTERNS = [
    (re.compile(r"#\s*include\s*<chrono>|\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "wall clock"),
    (re.compile(r"(?<![\w:])clock\s*\("), "clock()"),
    (re.compile(r"(?<![\w:])time\s*\("), "time()"),
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "std::unordered_* container"),
]

ALLOW = re.compile(r"lint:\s*allow\(([\w-]+)\)")


def strip_strings(text):
    """Blank out comments and literal contents so patterns never match there.

    Takes the whole file text (not a single line): block comments and raw
    strings span lines, and an unterminated ordinary literal must not leak
    quote state into the next line. Newlines are preserved so line numbers
    survive; blanked characters become spaces so columns do too. The
    delimiters themselves (quotes, raw-string intro/close) are kept.
    Encoding-prefixed raw strings (u8R"...", LR"...") are not recognized;
    the tree does not use them.
    """
    out = []
    i, n = 0, len(text)
    blank = lambda c: "\n" if c == "\n" else " "
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
            continue
        if ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append(blank(text[i]))
                i += 1
            if i + 1 < n:
                out.append("  ")
                i += 2
            else:  # unterminated block comment: blank to EOF
                while i < n:
                    out.append(blank(text[i]))
                    i += 1
            continue
        if (ch == "R" and nxt == '"'
                and (i == 0 or not (text[i - 1].isalnum()
                                    or text[i - 1] == "_"))):
            j = i + 2
            while j < n and text[j] not in '()\\"\t\n ':
                j += 1
            if j < n and text[j] == "(":
                delim = text[i + 2:j]
                close = ")" + delim + '"'
                out.append('R"' + delim + "(")
                end = text.find(close, j + 1)
                stop = n if end < 0 else end
                for k in range(j + 1, stop):
                    out.append(blank(text[k]))
                if end < 0:
                    i = n
                else:
                    out.append(close)
                    i = end + len(close)
                continue
            # malformed raw-string intro: fall through, 'R' is an identifier
        if ch == "'" and i > 0 and text[i - 1].isalnum() and nxt.isalnum():
            out.append(ch)  # digit separator (1'000'000), not a char literal
            i += 1
            continue
        if ch in "\"'":
            out.append(ch)
            i += 1
            while i < n:
                c = text[i]
                if c == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                if c == ch:
                    out.append(c)
                    i += 1
                    break
                if c == "\n":  # unterminated: state must not cross lines
                    out.append("\n")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class FileLinter:
    def __init__(self, path, repo_rel):
        self.path = path
        self.rel = repo_rel
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.allowed = set(ALLOW.findall(self.text))
        self.findings = []

    def report(self, rule, line_no, message):
        if rule in self.allowed:
            return
        self.findings.append(f"{self.rel}:{line_no}: [{rule}] {message}")

    def code_lines(self):
        """(line_no, code) with comments and string literals blanked."""
        for no, line in enumerate(strip_strings(self.text).splitlines(), 1):
            if line.strip():
                yield no, line

    def lint_wallclock(self):
        if self.rel.as_posix() == "bench/bench_common.h":
            return  # the ArgParser owns the only wall-clock escape hatch
        for no, line in self.code_lines():
            for pattern, name in WALLCLOCK_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "wallclock-seeding", no,
                        f"{name} breaks deterministic seeding; derive "
                        "randomness from an explicit seed (util/rng.h)")

    def lint_stdio(self):
        if self.rel.parts[0] != "src":
            return
        for no, line in self.code_lines():
            for pattern, name in STDIO_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "stdio-in-src", no,
                        f"{name} in library code; report through the obs "
                        "layer (src/obs) instead")

    def lint_event_core(self):
        rel = self.rel.as_posix()
        if not (rel.startswith("src/netsim/event")
                or rel.startswith("src/netsim/workload")):
            return
        for no, line in self.code_lines():
            for pattern, name in EVENT_CORE_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "event-core-purity", no,
                        f"{name} in the event engine; virtual time comes "
                        "from the event queue only and handler state must "
                        "iterate deterministically (vectors/sorted), or "
                        "the bitwise equivalence with the every-slot "
                        "oracle breaks")

    def lint_header(self):
        if self.path.suffix not in (".h", ".hpp"):
            return
        first = None
        for no, line in self.code_lines():
            first = (no, line.strip())
            break
        if first is None or first[1] != "#pragma once":
            self.report("header-hygiene", first[0] if first else 1,
                        "first non-comment line must be '#pragma once'")
        for no, line in self.code_lines():
            if re.match(r"#\s*ifndef\s+\w+_H\b", line.strip()):
                self.report("header-hygiene", no,
                            "#ifndef include guard; use #pragma once")

    def run(self):
        self.lint_wallclock()
        self.lint_stdio()
        self.lint_event_core()
        self.lint_header()
        return self.findings


def gather_files(args):
    if args.files:
        return [Path(f).resolve() for f in args.files]
    if args.changed:
        out = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", args.changed],
            cwd=REPO, capture_output=True, text=True, check=True).stdout
        return [REPO / f for f in out.splitlines()
                if f.split("/")[0] in DEFAULT_TREES]
    files = []
    for tree in DEFAULT_TREES:
        files.extend(sorted((REPO / tree).rglob("*")))
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="files to lint")
    parser.add_argument("--changed", metavar="BASE",
                        help="lint files changed since this git ref")
    args = parser.parse_args()

    findings = []
    checked = 0
    for path in gather_files(args):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        checked += 1
        findings.extend(FileLinter(path, path.relative_to(REPO)).run())

    for finding in findings:
        print(finding)
    print(f"lint_surfnet: {checked} files, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
