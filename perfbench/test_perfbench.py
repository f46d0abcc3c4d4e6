"""Tests of the benchmark itself: corpus determinism, rejection of tampered
documents, the output checks, and the percentile and sample-count rule.

  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return harness.setup_certify(0)


@pytest.fixture(scope="module")
def texts(lib):
    return harness.preset_texts(lib.modules)


# -- corpus ------------------------------------------------------------------


def test_corpus_is_deterministic_per_seed(texts):
    a, b = corpus.generate(7, texts), corpus.generate(7, texts)
    assert [d.text for d in a] == [d.text for d in b]
    assert corpus.digest(a) == corpus.digest(b)
    assert corpus.digest(corpus.generate(8, texts)) != corpus.digest(a)


def test_corpus_layout_is_the_same_for_every_seed(texts):
    def layout(docs):
        return sorted((d.preset, d.height, d.expect, d.degree) for d in docs)
    first = corpus.generate(1, texts)
    assert len(first) == sum(1 + len(corpus.HEIGHTS) * v + 2 for v in corpus.VARIANTS.values())
    for seed in (2, 3):
        assert layout(corpus.generate(seed, texts)) == layout(first)
    assert sum(d.tampered for d in first) / len(first) == pytest.approx(0.22, abs=0.03)


def test_height_zero_documents_are_the_presets_verbatim(texts):
    for d in corpus.generate(1, texts):
        if d.height == 0:
            assert d.text == texts[d.preset]


def test_conjugation_round_trips_the_format(texts):
    base = corpus.Belyi.parse(texts["d12"])
    assert corpus.Belyi.parse(base.text()) == base
    one = (Fraction(1), Fraction(0))
    zero = (Fraction(0), Fraction(0))
    assert base.conjugate(one, zero) == base


def test_summary_records_sizes_and_digest(texts):
    docs = corpus.generate(1, texts)
    s = corpus.summary(docs)
    assert s["digest"] == corpus.digest(docs)
    assert {"name", "degree", "height", "coeff_bits", "bytes", "expect"} <= set(s["docs"][0])
    assert {d["degree"] for d in s["docs"]} == {6, 12, 60, 72}


# -- certify checks ------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tampered_documents_are_rejected_with_the_named_error(lib, texts, seed):
    tampered = [d for d in corpus.generate(seed, texts) if d.tampered]
    assert {d.expect for d in tampered} == {"IdentityFailed", "FactorsShareRoot"}
    for d in tampered:
        assert harness.certify(lib.modules["belyi"], d) is None, d.name


def test_small_conjugates_are_accepted_with_the_preset_passport(lib, texts):
    for d in corpus.generate(4, texts):
        if d.preset in ("d6", "d12") and not d.tampered:
            assert harness.certify(lib.modules["belyi"], d) is None, d.name


def test_a_wrong_verdict_is_a_failure(lib, texts):
    d = next(d for d in corpus.generate(1, texts) if d.preset == "d6" and d.tampered)
    as_valid = corpus.Doc(d.name, d.preset, d.height, corpus.ACCEPT, d.text,
                          d.degree, d.coeff_bits)
    assert "want" in harness.certify(lib.modules["belyi"], as_valid)
    valid = next(d for d in corpus.generate(1, texts) if d.preset == "d6" and not d.tampered)
    as_tampered = corpus.Doc(valid.name, "d6", valid.height, "IdentityFailed",
                             valid.text, valid.degree, valid.coeff_bits)
    assert "want" in harness.certify(lib.modules["belyi"], as_tampered)


# -- CLI output checks -----------------------------------------------------------


def test_checks_accept_the_paper_and_reject_a_changed_fact():
    good = "P = z^11 - 11*z^6 - z\nk = 1728  (V^3 = M^2 + k*P^5)\n"
    assert checks.check_derive5(good, "text") is None
    assert checks.check_derive5(good.replace("1728", "1727"), "text")
    good6 = '{"verdict": "NoSolutionDegreeDeficit", "k": "%s"}' % checks.DERIVE6_K
    assert checks.check_derive6(good6, "json") is None
    assert checks.check_derive6(good6.replace("Deficit", "Coeff"), "json")
    passport = checks.check_passport("d60")
    assert passport("passport: (3^20 | 2^30 | 5^12)\n", "text") is None
    assert passport("passport: (3^20 | 2^30 | 5^11 6^1)\n", "text")


def test_a_traceback_or_nonzero_exit_is_a_failure():
    cmd = next(c for c in checks.BUILD if c.name == "derive5")
    good = "P = z^11 - 11*z^6 - z\nk = 1728  (V^3 = M^2 + k*P^5)\n"
    assert checks.check_output(cmd, "text", 0, good, "", None, "") is None
    assert checks.check_output(cmd, "text", 1, good, "error: X", None, "")
    assert checks.check_output(cmd, "text", 0, good, "Traceback (most recent call last)",
                               None, "")
    assert checks.check_output(cmd, "json", 0, "not json", "", None, "")


D72_OUT = ("passport: (3^24 | 2^36 | 5^12 6^2)\n"
           f"factored form written to {checks.BELYI_FILE}\n")


def test_written_file_must_be_named_present_and_right():
    cmd, d72 = checks.COMPOSE_D72, "belyi v1\nk 1\n"
    assert checks.check_output(cmd, "text", 0, D72_OUT, "", d72, d72) is None
    assert "not written" in checks.check_output(cmd, "text", 0, D72_OUT, "", None, d72)
    assert "to_text" in checks.check_output(cmd, "text", 0, D72_OUT, "", d72 + "x", d72)
    unnamed = D72_OUT.splitlines()[0] + "\n"
    assert "does not name" in checks.check_output(cmd, "text", 0, unnamed, "", d72, d72)
    svg = checks.GEOMETRY
    assert "whole SVG" in checks.check_written(
        svg, "json", f'{{"svg": "{checks.SVG_FILE}"}}', "<svg ...", d72)


def test_a_stale_file_does_not_pass_for_a_command_that_did_not_write(
        tmp_path, monkeypatch):
    """A right file left by an earlier run is removed before the command
    runs, so a command that no longer writes it fails."""
    d72 = "belyi v1\nk 1\n"
    monkeypatch.setattr(checks, "ROOT", tmp_path)
    (tmp_path / checks.WORK).mkdir()
    stale = tmp_path / checks.BELYI_FILE
    stale.write_text(d72, encoding="utf-8")
    monkeypatch.setattr(harness, "run_cli", lambda argv: (0.1, 0, D72_OUT, ""))
    tally = harness.Tally()
    harness.cold_op(d72)((checks.COMPOSE_D72, "text"), tally)
    assert tally.failures == ["compose_d72/text: .perfbench/barrel.belyi was not written"]
    assert not stale.exists()

    def writes(argv):
        stale.write_text(d72, encoding="utf-8")
        return 0.1, 0, D72_OUT, ""
    monkeypatch.setattr(harness, "run_cli", writes)
    tally = harness.Tally()
    harness.cold_op(d72)((checks.COMPOSE_D72, "text"), tally)
    assert tally.failures == []


def test_build_cycle_writes_the_file_before_verifying_it():
    cycles = harness.build_cycles(5)
    for _ in range(20):
        names = [cmd.name for cmd, _ in next(cycles)]
        assert len(names) == 2 * len(checks.BUILD)
        assert names.index("compose_d72") < names.index("verify_file")
    first = [(c.name, f) for c, f in next(harness.build_cycles(5))]
    assert first == [(c.name, f) for c, f in next(harness.build_cycles(5))]


# -- statistics -----------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 101))  # 1..100
    assert stats.tail(xs) == (90, 90.0, 10)
    assert stats.tail(list(reversed(xs))) == (90, 90.0, 10)
    assert stats.tail(list(range(21))) == (10, pytest.approx(100 * 11 / 21), 10)


def test_tail_below_twenty_one_samples_reports_the_upper_quartile():
    assert stats.tail([2.0]) == (2.0, 100.0, 0)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 75.0, 0)
    assert stats.tail(list(range(12))) == (8.75, 75.0, 3)
    assert stats.tail(list(range(20))) == (14.75, 75.0, 5)
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_is_the_quartile_distance_over_the_median():
    assert stats.spread([1.0] * 10) == 0.0
    assert stats.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)


def test_end_to_end_counts_failures_against_attempts():
    tally = harness.Tally()
    for i in range(40):
        tally.add("op", 1.0 + i, "wrong" if i % 4 == 0 else None)
    tally.elapsed = 10.0
    tally.gauge = [harness.REF_NOMINAL_S]
    metrics, notes = run.end_to_end(tally, 0.5, 12.0)
    assert notes["error_rate"] == 10 / 40
    assert metrics["ops_per_s"] == (30 / 10.0, "1/s")
    assert metrics["latency_tail_s"] == (30.0, "s")
    assert notes["samples"] == 40 and notes["tail_percentile"] == 75.0


def test_the_gauge_runs_for_its_share_of_an_operation_and_at_least_once():
    gauge: list[float] = []
    harness.gauge_after(0.0, gauge)
    assert len(gauge) == 1
    harness.gauge_after(1.0, gauge)  # a 1 s operation: 50 ms of loops
    assert sum(gauge[1:]) >= harness.GAUGE_SHARE * 1.0 > sum(gauge[1:-1])


def test_timings_are_scaled_to_the_nominal_host_speed():
    """On a host at half speed the gauge takes twice as long, and every
    timing is halved back; the wall figures stay in the report."""
    tally = harness.Tally()
    for i in range(30):
        tally.add("op", 2.0, None)
    tally.elapsed = 60.0
    tally.gauge = [2 * harness.REF_NOMINAL_S, 2 * harness.REF_NOMINAL_S, 1.0]
    metrics, notes = run.end_to_end(tally, 0.5, 12.0)
    assert metrics["latency_p50_s"] == (1.0, "s")
    assert metrics["ops_per_s"] == (1.0, "1/s")
    assert notes["wall"]["latency_p50_s"] == 2.0 and notes["wall"]["ops_per_s"] == 0.5


# -- tracing --------------------------------------------------------------------


def test_self_time_is_the_span_minus_its_children():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("a"):
            pass
        with t.span("b"):
            with t.span("c"):
                pass
    own = t.self_ns()
    dur = [s["end_ns"] - s["start_ns"] for s in t.spans]
    assert own[0] == dur[0] - dur[1] - dur[2]
    assert own[2] == dur[2] - dur[3]
    assert [s["op"] for s in t.spans] == [0, 0, 0, 0]
    assert [s["parent"] for s in t.spans] == [None, 0, 0, 2]


def test_a_disabled_tracer_records_nothing():
    t = tracing.Tracer()
    traced = t.wrap("f", lambda x: x + 1)
    t.enabled = False
    with t.span("outer") as rec:
        assert traced(1) == 2
    assert rec is None and t.spans == []
    t.enabled = True
    assert traced(1) == 2 and [s["name"] for s in t.spans] == ["f"]


def test_instrumented_package_records_stage_spans():
    mods = harness.import_fresh()
    t = tracing.Tracer()
    tracing.instrument(t, mods)
    with t.span("op"):
        mods["derive"].d6_solve().belyi.verify()
    names = {s["name"] for s in t.spans}
    assert {"derive.d6_solve", "belyi.from_ratmap_d6", "belyi.verify_d6"} <= names
