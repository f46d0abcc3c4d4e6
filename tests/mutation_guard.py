"""Mutation guard: each listed fault in src/ must fail a test.

A mutant is a file under src/, a snippet that must occur in it exactly
once, its replacement, and the tests that must catch it.  For each mutant
the script copies src/ to a temporary directory, applies the mutant there
and runs `python -m pytest -x -q <selection>` with PYTHONPATH pointing at
the copy.  First it runs every selection on an unmutated copy, which must
pass.  Run it from anywhere:

    python tests/mutation_guard.py

It prints one line per mutant and exits 1 when a mutant survives, when
a snippet does not occur exactly once (a refactor moved it: update the
entry, do not drop it), or when a selection does not pass unmutated.
pytest does not collect this file.

Left out, as an equivalent mutant: _reduce_mod_p with _R replaced by -_R.
-r is the other square root of -1 modulo _P, so (p, i + r) is the
conjugate prime ideal, and every certificate holds on it just as well.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BELYI = "fullerene_belyi/belyi.py"
EXACT = "fullerene_belyi/exact.py"
GUARDS = "tests/test_belyi.py::test_a_true_identity_on_n_plus_2_points_needs_every_guard"
GAUSS_REFERENCE = "tests/test_exact.py::test_gaussrat_agrees_with_the_fraction_pair_reference"

# name: (file under src/, snippet, replacement, test selection)
MUTANTS = {
    "accept-without-k-nonzero": (
        BELYI,
        "if points == n + 2 and not self.k.is_zero and all(",
        "if points == n + 2 and all(",
        [GUARDS]),
    "accept-without-zero-pole-pairs": (
        BELYI,
        """        if points == n + 2 and not self.k.is_zero and all(
                coprime(f, g) for f, _ in self.zero_factors
                for g, _ in self.pole_factors):""",
        "        if points == n + 2 and not self.k.is_zero:",
        [GUARDS]),
    "accept-on-more-points": (
        BELYI,
        "if points == n + 2 and",
        "if points >= n + 2 and",
        ["tests/test_belyi.py::test_verify_refuses_more_than_n_plus_2_points"]),
    "divide-by-one-power-less": (
        "fullerene_belyi/multipoly.py",
        "expo[:i] + (expo[i] - m,) + expo[i + 1:]: c",
        "expo[:i] + (expo[i] - m + 1,) + expo[i + 1:]: c",
        ["tests/test_multipoly.py::test_divide_out_least_power_of_the_declared_unknown"]),
    "barrel-double-root-allowed": (
        "fullerene_belyi/geometry.py",
        "S * S > 4 * C * D",
        "S * S >= 4 * C * D",
        ["tests/test_geometry.py::test_barrel_vertices_reject_mutated_polynomial"]),
    # equality and hashing read the triple, so a sum must be made canonical
    "gaussrat-sum-not-reduced": (
        EXACT,
        """            return _gauss(self._a + o._a, self._b + o._b, d)
        return _gauss(self._a * e + o._a * d, self._b * e + o._b * d, d * e)""",
        """            return _canonical_gauss(self._a + o._a, self._b + o._b, d)
        return _canonical_gauss(self._a * e + o._a * d, self._b * e + o._b * d, d * e)""",
        [GAUSS_REFERENCE]),
    "gaussrat-product-imaginary-sign": (
        EXACT,
        "a1 * b2 + b1 * a2",
        "a1 * b2 - b1 * a2",
        [GAUSS_REFERENCE]),
    "gaussrat-inverse-without-conjugate": (
        EXACT,
        "_gauss(d * a, -d * b, n)",
        "_gauss(d * a, d * b, n)",
        [GAUSS_REFERENCE]),
}


def run_tests(src: Path, selection: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", *selection], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def check(name: str) -> str | None:
    """None when the mutant is killed, else what went wrong."""
    file, snippet, replacement, selection = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = src / file
        text = path.read_text(encoding="utf-8")
        count = text.count(snippet)
        if count != 1:
            return f"snippet occurs {count} times in src/{file}"
        path.write_text(text.replace(snippet, replacement), encoding="utf-8")
        result = run_tests(src, selection)
    if result.returncode == 0:
        return "survived"
    if result.returncode != 1:
        return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    return None


def main() -> int:
    selections = sorted({test for *_, selection in MUTANTS.values()
                         for test in selection})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = run_tests(copy_src(tmp), selections)
    if baseline.returncode != 0:
        print(f"the selections fail unmutated:\n{baseline.stdout}{baseline.stderr}")
        return 1
    failed = 0
    for name in MUTANTS:
        start = time.perf_counter()
        problem = check(name)
        status = "killed" if problem is None else f"FAILED: {problem}"
        print(f"{name}: {status} ({time.perf_counter() - start:.1f} s)")
        failed += problem is not None
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
