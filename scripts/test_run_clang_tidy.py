#!/usr/bin/env python3
"""Tests for run_clang_tidy.py's header expansion (`--changed` maps a
changed header to the translation units that include it), over a small
fixture tree laid out like this repo: library headers included by their
src/-relative names, test and bench headers by directory-relative names."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep scripts/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_clang_tidy  # noqa: E402

FIXTURE = {
    "src/routing/simplex.h": "",
    "src/routing/simplex.cpp": '#include "routing/simplex.h"\n',
    "src/routing/router.cpp": '#include "routing/simplex.h"\n',
    "tests/proptest.h": "",
    "tests/routing/dense_simplex.h": '#include "routing/simplex.h"\n',
    "tests/routing/dense_simplex.cpp": '#include "dense_simplex.h"\n',
    "tests/routing/simplex_test.cpp":
        '#include "../proptest.h"\n#include "dense_simplex.h"\n',
    "tests/decoder/growth_reference.h": "",
    "tests/decoder/growth_oracle_test.cpp":
        '#include "../proptest.h"\n  #  include "growth_reference.h"\n',
    # Same base name as a header elsewhere, but nothing to resolve to here.
    "tests/decoder/stray_test.cpp": '#include "dense_simplex.h"\n',
    "bench/bench_common.h": "",
    "bench/bench_fig6a.cpp": '#include "bench_common.h"\n',
}


class ExpandHeadersTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name).resolve()
        for rel, text in FIXTURE.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        self.units = sorted(str(self.root / rel) for rel in FIXTURE
                            if rel.endswith(".cpp"))
        saved = run_clang_tidy.REPO
        run_clang_tidy.REPO = self.root
        self.addCleanup(setattr, run_clang_tidy, "REPO", saved)

    def expand(self, *changed):
        selected = {str(self.root / rel) for rel in changed}
        return {Path(u).relative_to(self.root).as_posix()
                for u in run_clang_tidy.expand_headers(selected, self.units)}

    def test_library_header_maps_through_src_root(self):
        self.assertEqual(self.expand("src/routing/simplex.h"),
                         {"src/routing/simplex.cpp",
                          "src/routing/router.cpp"})

    def test_test_header_maps_through_its_directory(self):
        self.assertEqual(self.expand("tests/routing/dense_simplex.h"),
                         {"tests/routing/dense_simplex.cpp",
                          "tests/routing/simplex_test.cpp"})
        self.assertEqual(self.expand("tests/decoder/growth_reference.h"),
                         {"tests/decoder/growth_oracle_test.cpp"})

    def test_parent_relative_include(self):
        self.assertEqual(self.expand("tests/proptest.h"),
                         {"tests/routing/simplex_test.cpp",
                          "tests/decoder/growth_oracle_test.cpp"})

    def test_bench_header(self):
        self.assertEqual(self.expand("bench/bench_common.h"),
                         {"bench/bench_fig6a.cpp"})

    def test_sources_pass_through(self):
        self.assertEqual(
            self.expand("bench/bench_fig6a.cpp", "tests/proptest.h"),
            {"bench/bench_fig6a.cpp", "tests/routing/simplex_test.cpp",
             "tests/decoder/growth_oracle_test.cpp"})


if __name__ == "__main__":
    unittest.main()
