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
DERIVE = "fullerene_belyi/derive.py"
EXACT = "fullerene_belyi/exact.py"
MULTIPOLY = "fullerene_belyi/multipoly.py"
GUARDS = "tests/test_belyi.py::test_a_true_identity_on_n_plus_2_points_needs_every_guard"
GAUSS_REFERENCE = "tests/test_exact.py::test_gaussrat_agrees_with_the_fraction_pair_reference"
GRAMMAR = "tests/test_exact.py::test_gaussrat_rejects_tokens_outside_the_grammar_at_once"
VERIFY_AT_BOUND = "tests/test_belyi.py::test_verify_at_the_digit_bound"
FAULT_STEPS = "tests/test_belyi.py::test_each_fault_step_names_its_class"
CLEARED_IDENTITY = "tests/test_exact.py::test_cleared_identity_names_the_monic_sides_only_on_failure"
HARD_SCALARS = "tests/test_belyi.py::test_the_comparison_decides_hard_scalars"
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
        MULTIPOLY,
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
    # two rational parts make one triple, over the product of their
    # denominators, in the constructor and in the token parser
    "gaussrat-init-imaginary-over-its-own-denominator": (
        EXACT,
        "s._a * r._d",
        "s._a * s._d",
        [GAUSS_REFERENCE]),
    "gaussrat-from-token-imaginary-over-its-own-denominator": (
        EXACT,
        "c * b",
        "c * e",
        [GRAMMAR, GAUSS_REFERENCE]),
    "signed-sum-keeps-the-sign": (
        EXACT,
        "p[1:]",
        "p",
        ["tests/test_golden.py"]),
    "multipoly-product-without-m": (
        MULTIPOLY,
        "        ca *= m\n",
        "",
        ["tests/test_multipoly.py"]),
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
    "pack-offset-wrong-byte": (
        EXACT,
        'bytes(width - 1) + b"\\x80"',
        'bytes(width - 1) + b"\\x40"',
        ["tests/test_exact.py::test_packed_sum_powers_at_the_borrow_boundary"]),
    "pull-back-side-degrees-without-exponents": (
        BELYI,
        "sum(e * f.degree for f, e in side)",
        "sum(f.degree for f, e in side)",
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
    # the identity's one comparison m*W'(2^B) = n*G_O(2^B), n/m = L/D_O in
    # lowest terms, and its read of L when the tops cancel; the degree
    # guard is reachable only by a direct call, since balanced sides give
    # deg O <= max(deg Z, deg Q)
    "identity-comparison-without-m": (
        EXACT,
        "[((m * zr, m * zi), gz), ((m * qr, 0), gq)]",
        "[((zr, zi), gz), ((qr, 0), gq)]",
        [HARD_SCALARS]),
    "identity-reduction-without-d-o": (
        EXACT,
        "math.gcd(*lead, do)",
        "math.gcd(*lead)",
        [CLEARED_IDENTITY, HARD_SCALARS, PACKED_COMPARISON]),
    "identity-cancelled-tops-read-one-digit-low": (
        EXACT,
        "top + 1, width)[dego]",
        "top + 1, width)[dego - 1]",
        [HARD_SCALARS]),
    "identity-cancelled-tops-read-without-degree-guard": (
        EXACT,
        "lead == (0, 0) and dego <= top",
        "lead == (0, 0)",
        [CLEARED_IDENTITY]),
    "identity-width-without-n-times-g-o": (
        EXACT,
        """_width(_packed_bound(w_terms)
                   + (abs(nr) + abs(ni) or 1) * _packed_bound(o_terms))""",
        "_width(_packed_bound(w_terms))",
        [PACKED_COMPARISON]),
    "identity-comparison-real-parts-only": (
        EXACT,
        "w == _gauss_mul((nr, ni), g_o)",
        "w[0] == _gauss_mul((nr, ni), g_o)[0]",
        [PACKED_COMPARISON]),
    "identity-comparison-without-n-nonzero": (
        EXACT,
        "if (nr or ni) and w ==",
        "if w ==",
        [CLEARED_IDENTITY, PACKED_COMPARISON]),
    "identity-collapse-accepted": (
        EXACT,
        "        return None, None\n",
        "        return None\n",
        [CLEARED_IDENTITY, PACKED_COMPARISON]),
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
    # the exact fallback decides what the one prime leaves open
    "coprime-without-poly-gcd-fallback": (
        EXACT,
        "or poly_gcd(a, b).degree == 0",
        "or False",
        ["tests/test_exact.py::test_coprime_unlucky_prime_falls_back"]),
    # (a*V, a*M) balances w(M) = w(V) + w(P) - 1 and fails only this one
    "family-weights-without-v-balance": (
        DERIVE,
        " and 2 * wv == wm + wp - 1",
        "",
        ["tests/test_derive.py::test_family_certificate_rejects_mutation"]),
    # x*y - 1 is linear in x, but its pivot y is not a constant
    "eliminator-takes-a-nonconstant-pivot": (
        MULTIPOLY,
        "if c1.is_constant:",
        "if c1:",
        ["tests/test_multipoly.py::test_solver_errors_match_reference"]),
    # equality and hashing read the canonical (numerators, denominator)
    "multipoly-reduced-without-gcd": (
        MULTIPOLY,
        "g = gcd(den, *num.values())",
        "g = 1",
        ["tests/test_multipoly.py::test_arithmetic_results_are_canonical_integer_forms"]),
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
