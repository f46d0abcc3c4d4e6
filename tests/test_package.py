"""The package surface."""

import ast
import importlib
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fullerene_belyi
from fullerene_belyi import (CaseReport, EliminationTrace, FactoredBelyi,
                             GaussRat, Moebius, Passport, SpherePoint,
                             UniPoly, Verdict)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GUARD = Path(__file__).with_name("startup_guard.py")


def test_every_exported_name_resolves():
    missing = [name for name in fullerene_belyi.__all__
               if not hasattr(fullerene_belyi, name)]
    assert not missing
    assert len(set(fullerene_belyi.__all__)) == len(fullerene_belyi.__all__)


def test_traced_benchmark_stages_resolve():
    # perfbench/tracing.py wraps these (module, function) pairs and these
    # FactoredBelyi methods by name, so deleting or renaming one, or making
    # a static method an instance method, breaks the benchmark's --trace 1
    # mode
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))

    def keys(name):
        table, = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == [name]]
        return [ast.literal_eval(key) for key in table.keys]

    pairs = keys("FUNCTIONS")
    assert pairs
    missing = [(mod, name) for mod, name in pairs if not hasattr(
        importlib.import_module(f"fullerene_belyi.{mod}"), name)]
    assert not missing
    methods, static = keys("METHODS"), keys("STATIC_METHODS")
    assert methods and set(static) >= {"from_text", "from_ratmap"}
    assert [m for m in methods + static if not hasattr(FactoredBelyi, m)] == []
    assert all(inspect.isfunction(inspect.getattr_static(FactoredBelyi, m))
               for m in methods)
    assert all(isinstance(inspect.getattr_static(FactoredBelyi, m), staticmethod)
               for m in static)


def test_names_are_their_home_objects():
    # the home is the module that defines the object (INFINITY's class's)
    for name in fullerene_belyi.__all__:
        obj = getattr(fullerene_belyi, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__ == f"fullerene_belyi.{fullerene_belyi._HOME_OF[name]}"


def test_star_import_submodules_and_unknown_names():
    namespace = {}
    exec("from fullerene_belyi import *", namespace)
    assert set(fullerene_belyi.__all__) <= set(namespace)
    assert fullerene_belyi.exact is importlib.import_module("fullerene_belyi.exact")
    assert fullerene_belyi.cli is importlib.import_module("fullerene_belyi.cli")
    with pytest.raises(AttributeError, match="no_such_name"):
        fullerene_belyi.no_such_name


def test_startup_loads_only_what_derive_6_runs(cold_python):
    # a clean interpreter: no site, whose .pth files may preload typing;
    # the guard runs derive 6 and every other README command, each in a
    # fresh interpreter, in text and json format
    proc = cold_python(str(GUARD))
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()


def test_records_compare_and_hash_by_value():
    a, b = SpherePoint(0.0, 0.6, 0.8), SpherePoint(x=0.0, y=0.6, z=0.8)
    assert a == b and hash(a) == hash(b) and a != SpherePoint(0.0, 0.8, 0.6)
    assert a != (0.0, 0.6, 0.8)
    assert repr(a) == "SpherePoint(x=0.0, y=0.6, z=0.8)"
    assert len({Passport.of([3, 3], [2, 2, 2], [6]),
                Passport((3, 3), (2, 2, 2), (6,))}) == 1
    assert GaussRat.of(1, 2) == GaussRat(Fraction(1), Fraction(2))
    assert hash(GaussRat.of(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert GaussRat.of(1) != 1
    for record, field in ((a, "x"), (Passport.of([1], [1], [1]), "black"),
                          (GaussRat.of(1), "re"), (Moebius.of(1, 0, 0, 1), "a")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(TypeError):
        hash(EliminationTrace())
    with pytest.raises(TypeError):
        SpherePoint(0.0, 0.6)
    with pytest.raises(TypeError):
        SpherePoint(0.0, 0.6, 0.8, w=1.0)


def test_mutable_defaults_are_fresh_per_instance():
    reports = [CaseReport(6, 12, 22, 33, 12, Verdict.NO_SOLUTION_DEGREE_DEFICIT, 0)
               for _ in range(2)]
    reports[0].notes.append("note")
    reports[0].family["a9"] = None
    reports[0].normalization["a10"] = Fraction(1)
    assert (reports[1].notes, reports[1].family, reports[1].normalization) == ([], {}, {})
    assert reports[0].trace is None and reports[0].free_vars == ()
    traces = [EliminationTrace(), EliminationTrace()]
    traces[0].steps.append("step")
    assert traces[1].steps == [] and traces[0] != traces[1]
    reports[1].verdict = Verdict.SOLVED  # the unfrozen records take assignment
    assert reports[1].verdict is Verdict.SOLVED


def test_factored_belyi_constructor_checks_its_fields():
    z = UniPoly.x()
    with pytest.raises(ValueError, match="unknown infinity tag"):
        FactoredBelyi(GaussRat.of(1), ((z, 1),), (), (), "sideways", 1)
    for tag, shown in ((None, "None"), (7, "7"), ("x" * 100, "'xxx")):
        with pytest.raises(ValueError, match=f"^unknown infinity tag {shown}"):
            FactoredBelyi(GaussRat.of(1), ((z, 1),), (), (), tag, 1)
    with pytest.raises(ValueError, match="positive order"):
        FactoredBelyi(GaussRat.of(1), ((z, 1),), (), (), "pole", 0)
    with pytest.raises(ValueError, match="nonconstant"):
        FactoredBelyi(k=GaussRat.of(1), zero_factors=((UniPoly.one(), 1),),
                      one_factors=(), pole_factors=(), infinity_side="none",
                      infinity_order=0)
    with pytest.raises(ValueError, match="^factor exponents must be positive$"):
        FactoredBelyi(GaussRat.of(1), ((z, 0),), (), (), "none", 0)
    beta = FactoredBelyi(GaussRat.of(1), [(z, 1)], [], [], "pole", 1)
    assert beta.zero_factors == ((z, 1),) and beta.one_factors == ()


def test_fraction_accessors_keep_their_return_types():
    """GaussRat holds an integer triple and MultiPoly integer numerators
    over one denominator, and the commands read those integers; the
    accessors that returned Fractions still do, importing fractions
    themselves.  They take Fraction arguments, read by numerator and
    denominator.  CaseReport.normalization holds ints (it held Fractions)."""
    from fullerene_belyi import derive
    from fullerene_belyi.multipoly import MultiPoly

    g = GaussRat(Fraction(3, 4), Fraction(-1, 6))
    assert (g.re, g.im, g.norm()) == (Fraction(3, 4), Fraction(-1, 6), Fraction(85, 144))
    assert all(type(x) is Fraction for x in (g.re, g.im, g.norm(), GaussRat.of(2).re))
    P, V, M, k = derive.family_k(Fraction(2, 3), -1)
    assert [type(x) for x in (P, V, M, k)] == [UniPoly, UniPoly, UniPoly, GaussRat]
    assert all(type(c) is GaussRat for f in (P, V, M) for c in f.coeffs)
    x = MultiPoly.var(("x", "y"), "x")
    assert type(x.scale(Fraction(1, 2)).evaluate({"x": Fraction(2, 3)})) is Fraction
    assert type(x.evaluate({"x": 1})) is Fraction
    assert all(type(c) is Fraction for c in x.scale(Fraction(1, 2)).terms.values())
    assert type(MultiPoly.const(x.vars, Fraction(5, 2)).constant_value()) is Fraction
    trace = derive.d6_solve().trace
    assert all(type(v) is Fraction for v in trace.evaluate({"a1": Fraction(10)}).values())
    values = derive.d6_solve().values
    assert list(values.items()) == [("a1", 10), ("c1", 22), ("c0", 125), ("b0", -1),
                                    ("a0", 5), ("k", 1728), ("b1", 4)]
    assert all(type(v) is Fraction for v in values.values())
    report = derive.derive_case(5)
    assert report.normalization == {"a6": -11} and type(report.normalization["a6"]) is int
