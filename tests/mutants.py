"""Mutant suite: each record plants one known bug and names the tests
that must catch it.

Run from anywhere with `python tests/mutants.py`; it exits 0 when every
mutant is killed.  A record is (file, exact old text, new text, test
ids), with the file relative to the repository root and inside `src`.
The old text must occur exactly once in the unmutated file, so a record
that no longer matches the code fails loudly instead of testing
nothing.  For each record the script copies `src`, `tests` and
`pyproject.toml` into a temporary directory (pyproject's
`pythonpath = ["src"]` would otherwise load the unmutated package),
applies the edit there, runs the named tests and asserts that they fail.

Stale records are reported before anything runs.  Then the named
tests run once on an unmutated copy, where they must all pass.
"""

import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = [
    Mutant(
        "onto test without the target's relation rows",
        "src/hyptile/ktheory.py",
        "    rows += p2.relations\n",
        "",
        ["tests/test_ktheory.py::TestCoinvariants::"
         "test_torsion_summand_needs_its_invariant_factor"]),
    Mutant(
        "pivots judged by abs over Z[1/2] too",
        "src/hyptile/ktheory.py",
        "unit = odd_part if ring == RING_HALF else abs",
        "unit = abs",
        ["tests/test_cli.py::TestSmallCommands::"
         "test_group_reports_are_pinned[fib]"]),
    Mutant(
        "scaled without the batch's cursor",
        "src/hyptile/hull.py",
        "        s, cursor, _, steps = self._scale(a, b)\n"
        "        cursor += self.cursor\n",
        "        s, cursor, _, steps = self._scale(a, b)\n",
        ["tests/test_hull.py::TestScaleOnlyMoves"]),
    Mutant(
        "measures pushed through sigma^k scaled by lambda^-(k-1)",
        "src/hyptile/subshift.py",
        "scale = math.prod([_spec_perron(spec)[1]] * k)",
        "scale = math.prod([_spec_perron(spec)[1]] * (k - 1))",
        ["tests/test_subshift.py::TestMeasureRecursion"]),
    Mutant(
        "A1A2 and A2A3 swapped under the tile one scale up",
        "src/hyptile/geometry.py",
        "lab = NEGATIVE_EDGES[n & 1]",
        "lab = NEGATIVE_EDGES[1 - (n & 1)]",
        ["tests/test_geometry.py::TestIntegerKeyedAdjacency::"
         "test_matches_vertex_keyed_reference"]),
    Mutant(
        "a flag's value may not start with one dash",
        "src/hyptile/cli.py",
        'if value is None or value.startswith("--"):',
        'if value is None or value.startswith("-"):',
        ["tests/test_cli.py::TestCommandLine"]),
    Mutant(
        "factoring prime taken without its Proth certificate",
        "src/hyptile/algebraic.py",
        "        if r == p - 1:\n",
        "        if True:\n",
        ["tests/test_algebraic.py::TestBigPrime"]),
    Mutant(
        "first free generator doubled: over Z its span has index 2",
        "src/hyptile/ktheory.py",
        "{w: c for w, c in zip(words, pres.v_inv[j]) if c}",
        "{w: c * (1 + (j in pres.free[:1]))\n"
        "                          for w, c in zip(words, pres.v_inv[j]) "
        "if c}",
        ["tests/test_ktheory.py::TestPrintedGenerators"]),
    Mutant(
        "torsion generator times its order: its class is 0",
        "src/hyptile/ktheory.py",
        "            pres.ring, 0, {w: c for w, c in zip(words, "
        "pres.v_inv[j]) if c}))\n"
        "        for name, j, _ in pres.generator_columns())\n",
        "            pres.ring, 0, {w: c * (d or 1) for w, c in zip(words, "
        "pres.v_inv[j]) if c}))\n"
        "        for name, j, d in pres.generator_columns())\n",
        ["tests/test_ktheory.py::TestPrintedGenerators"]),
    Mutant(
        "block moments merged without the cross term of their means",
        "src/hyptile/hull.py",
        "(n, ta + tb, m2a + m2 + delta * delta * na * nb / n)",
        "(n, ta + tb, m2a + m2)",
        ["tests/test_hull.py::TestMergedMoments::test_agrees_with_numpy"]),
    Mutant(
        "each block of a lazy sample drawn from row 0",
        "src/hyptile/hull.py",
        "(key + (4 * rows.start + c + 1) * _GAMMA)",
        "(key + (c + 1) * _GAMMA)",
        ["tests/test_hull.py::TestLazySample::"
         "test_blocks_equal_the_whole_draw"]),
    Mutant(
        "a lazy sample's last block not clamped to n",
        "src/hyptile/hull.py",
        "        rows = range(self.n)[rows]\n",
        "        rows = range(rows.start, rows.stop)\n",
        ["tests/test_hull.py::TestLazySample::"
         "test_blocks_equal_the_whole_draw"]),
    Mutant(
        "each piece of a long slice drawn from the slice's first row",
        "src/hyptile/hull.py",
        "self._draw(rows[p], omega[p], t[p], s[p], index[p])",
        "self._draw(rows[:len(rows[p])], omega[p], t[p], s[p], index[p])",
        ["tests/test_hull.py::TestStream::test_rows_read_their_four_words",
         "tests/test_hull.py::TestLazySample::"
         "test_blocks_equal_the_whole_draw"]),
    Mutant(
        "rescaled colours compared with the window shifted the wrong way",
        "src/hyptile/geometry.py",
        "ColourWindow(window.word, window.start - 1, window.alphabet)",
        "ColourWindow(window.word, window.start + 1, window.alphabet)",
        ["tests/test_hull.py::TestRescalingRelation",
         "tests/test_acceptance.py::"
         "test_criterion_08_rescale_identity_and_agreement"]),
    Mutant(
        "an explicit window's alphabet read from its right part alone",
        "src/hyptile/subshift.py",
        "return tuple(sorted(set(spec.left + spec.right)))",
        "return tuple(sorted(set(spec.right)))",
        ["tests/test_subshift.py::TestLanguage::"
         "test_explicit_window_alphabet"]),
    Mutant(
        "tile colour c painted with palette entry c + 1",
        "src/hyptile/render.py",
        "PALETTE[(colour - 1) % len(PALETTE)]",
        "PALETTE[colour % len(PALETTE)]",
        ["tests/test_render.py::TestSvgRender::"
         "test_alternating_word_gives_bands_by_scale"]),
    Mutant(
        "flow derivative divided by h, not by the probes' distance 2h",
        "src/hyptile/hull.py",
        "/ (2.0 * _H)",
        "/ _H",
        ["tests/test_hull.py::TestTauPairing"]),
    Mutant(
        "scale-probe bias bound without its first-derivative term",
        "src/hyptile/hull.py",
        "+ 26.0 * w.deriv_bound(2) + 10.0 * w.deriv_bound(1))",
        "+ 26.0 * w.deriv_bound(2))",
        ["tests/test_hull.py::TestTestFunction::"
         "test_bias_bounds_are_pinned"]),
    Mutant(
        "inside test reads arc A2A3 over x in (1/3, 1/2]",
        "src/hyptile/geometry.py",
        "s[0 if 2 * x <= 1 else 1]",
        "s[0 if 3 * x <= 1 else 1]",
        ["tests/test_geometry.py::TestPointToPentagon::"
         "test_below_the_left_bottom_arc"]),
    Mutant(
        "Smith pivot: the last entry of least magnitude, not the first",
        "src/hyptile/intmat.py",
        "x < best",
        "x <= best",
        ["tests/test_intmat.py::test_snf_transforms_pinned_on_unit_ties"]),
]


def stale(mutant) -> bool:
    """Does the old text fail to occur exactly once in its file?"""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(
        mutant.old) != 1


def survives(mutant) -> bool:
    """Do the mutant's tests pass on a mutated copy of the repository?"""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, tmp / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new),
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tmp, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):  # a collection or usage error
        raise RuntimeError(f"{mutant.name}: pytest exited "
                           f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def main() -> int:
    found = [f"stale: {m.name} ({m.file})" for m in MUTANTS if stale(m)]
    # with no edit, every named test must pass: a kill then means the
    # edit broke it, not a test id gone missing
    first = MUTANTS[0]
    if not found and not survives(first._replace(
            new=first.old, tests=[t for m in MUTANTS for t in m.tests])):
        found = ["the named tests do not all pass on the unmutated code"]
    found = found or [f"survived: {m.name}" for m in MUTANTS
                      if survives(m)]
    print("\n".join(found) or f"{len(MUTANTS)} mutants, each killed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
