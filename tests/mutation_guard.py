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
GRAMMAR = "tests/test_exact.py::test_gaussrat_rejects_tokens_outside_the_grammar_at_once"
VERIFY_AT_BOUND = "tests/test_belyi.py::test_verify_at_the_digit_bound"
FAULT_STEPS = "tests/test_belyi.py::test_each_fault_step_names_its_class"
CLEARED_IDENTITY = "tests/test_exact.py::test_cleared_identity_names_the_monic_sides_only_on_failure"
DIGIT_PATH = "tests/test_belyi.py::test_identities_the_comparison_cannot_decide_are_unpacked"
PACKED_COMPARISON = "tests/test_belyi.py::test_the_packed_comparison_accepts_only_what_it_proves"

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
    # a reduction whose leading coefficient vanished proves nothing
    "coprime-without-lead-check": (
        EXACT,
        "bool(ra) and len(ra) == _length(a)",
        "bool(ra)",
        ["tests/test_exact.py::test_coprime_leading_coefficient_divisible_by_prime",
         "tests/test_exact.py::test_coprime_prime_in_a_denominator_falls_back"]),
    "squarefree-without-lead-check": (
        EXACT,
        "len(r) == _length(p) and ",
        "",
        ["tests/test_exact.py::test_is_squarefree_needs_the_leading_coefficient"]),
    "derivative-mod-p-without-factor": (
        EXACT,
        "i * c % _P for i, c in enumerate(r)",
        "c % _P for i, c in enumerate(r)",
        ["tests/test_exact.py::test_is_squarefree_differentiates_the_reduction"]),
    "constant-gcd-mod-p-any-gcd": (
        EXACT,
        "    return len(a) == 1\n",
        "    return len(a) >= 1\n",
        ["tests/test_exact.py::test_coprime_shared_root_is_false"]),
    # from_tokens' one pass: int() reads what its checks let through
    "from-tokens-without-zero-denominator": (
        EXACT,
        "            if 0 in parts[1::2]:\n                raise ValueError\n",
        "",
        [GRAMMAR]),
    "from-tokens-without-signed-denominator-check": (
        EXACT,
        ' or "/-" in line',
        "",
        [GRAMMAR]),
    "identity-imaginary-cross-term-sign": (
        EXACT,
        "lr * b + li * a == do * y",
        "lr * b - li * a == do * y",
        [CLEARED_IDENTITY, DIGIT_PATH]),
    "pack-offset-wrong-byte": (
        EXACT,
        'bytes(width - 1) + b"\\x80"',
        'bytes(width - 1) + b"\\x40"',
        ["tests/test_exact.py::test_packed_sum_powers_at_the_borrow_boundary"]),
    "pull-back-lost-order-without-exponent": (
        BELYI,
        "side, order = name, e * lost",
        "side, order = name, lost",
        ["tests/test_compose.py::test_substitute_power_matches_from_ratmap"]),
    "infinity-from-degrees-one-more": (
        BELYI,
        "return side, n - degree",
        "return side, n - degree + 1",
        ["tests/test_belyi.py::test_from_ratmap_splits_multiplicities"]),
    "first-equal-pair-without-imaginary-digits": (
        EXACT,
        "(d, tuple(re), tuple(im))",
        "(d, tuple(re))",
        [VERIFY_AT_BOUND]),
    # the packed digits are signed, so the width needs the sign bit
    "packed-sum-width-without-sign-bit": (
        EXACT,
        "bound.bit_length() + 8",
        "bound.bit_length() + 7",
        [VERIFY_AT_BOUND]),
    "identity-without-degree-test": (
        EXACT,
        "len(w) == len(g_o) and ",
        "",
        ["tests/test_belyi.py::test_verify_agrees_with_reference"]),
    # the one packed comparison W'(2^B) = c*G_O(2^B) and the zero test
    # of the digit path: L = 0 gives c = 0, and W' = 0*G_O is a collapse
    "identity-comparison-without-l-nonzero": (
        EXACT,
        "if (lr or li) and not (lr % do or li % do)",
        "if not (lr % do or li % do)",
        [CLEARED_IDENTITY, PACKED_COMPARISON]),
    "identity-width-without-c-times-g-o": (
        EXACT,
        """_width(_packed_bound(w_terms)
                   + (abs(c[0]) + abs(c[1]) if c else 1) * _packed_bound(o_terms))""",
        "_width(_packed_bound(w_terms))",
        [PACKED_COMPARISON]),
    "identity-comparison-real-parts-only": (
        EXACT,
        "w == _gauss_mul(c, g_o)",
        "w[0] == _gauss_mul(c, g_o)[0]",
        [PACKED_COMPARISON]),
    # a floor quotient 0 would size the width for W' alone
    "identity-c-by-floor-division": (
        EXACT,
        "if (lr or li) and not (lr % do or li % do) else None",
        "if lr or li else None",
        [PACKED_COMPARISON]),
    "identity-collapse-accepted": (
        EXACT,
        "        return None, None\n",
        "        return None\n",
        [CLEARED_IDENTITY, PACKED_COMPARISON]),
    "identity-without-trailing-zero-strip": (
        EXACT,
        "    while w and w[-1] == (0, 0):\n        w.pop()\n",
        "",
        [DIGIT_PATH]),
    # each fault step of verify, (i) to (vii)
    "verify-equal-factors-not-raised": (
        BELYI,
        "raise shared_root(*equal)",
        "pass",
        [FAULT_STEPS]),
    "verify-side-sum-only-above": (
        BELYI,
        "if total != n:",
        "if total > n:",
        ["tests/test_belyi.py::test_verify_checks_side_sums_before_the_identity"]),
    "verify-too-few-points-one-short": (
        BELYI,
        "points < n + 2",
        "points < n + 1",
        ["tests/test_belyi.py::test_too_few_points_are_refused_before_any_product"]),
    "verify-collapsed-identity-accepted": (
        BELYI,
        'raise IdentityFailed("k*zeros - poles collapsed to zero")',
        "return Passport.of(*fibres)",
        ["tests/test_belyi.py::test_verify_agrees_with_reference"]),
    "verify-squarefree-skips-last-factor": (
        BELYI,
        "for f, _ in all_factors:",
        "for f, _ in all_factors[:-1]:",
        [FAULT_STEPS]),
    "verify-pairs-skip-last-factor": (
        BELYI,
        "range(i + 1, len(all_factors))",
        "range(i + 1, len(all_factors) - 1)",
        [FAULT_STEPS]),
    "verify-too-many-points-one-over": (
        BELYI,
        "points > n + 2",
        "points > n + 3",
        ["tests/test_belyi.py::test_verify_refuses_more_than_n_plus_2_points"]),
    "verify-degree-0-accepted": (
        BELYI,
        """        raise DegreeImbalance("every side sums to 0: a Belyi map has "
                              "degree at least 1")""",
        "        return Passport.of(*fibres)",
        [FAULT_STEPS]),
    "factor-exponent-0-allowed": (
        BELYI,
        "if e < 1:",
        "if e < 0:",
        ["tests/test_package.py::test_factored_belyi_constructor_checks_its_fields",
         "tests/test_cli.py::test_bad_input_exits_1_with_named_error[zero-exponent]"]),
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
