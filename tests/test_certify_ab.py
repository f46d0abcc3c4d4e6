"""The summary arithmetic of tests/certify_ab.py, on a fixed timing table."""

import pytest

from certify_ab import report, summarize

# (side, class, seconds)
TABLE = [
    ("parent", "d60 accept", 1.0), ("parent", "d60 accept", 3.0),
    ("parent", "d60 accept", 2.0), ("parent", "d72 IdentityFailed", 4.0),
    ("change", "d60 accept", 1.5), ("change", "d60 accept", 0.5),
    ("change", "d60 accept", 1.0), ("change", "d72 IdentityFailed", 4.2),
]


def test_summarize_takes_medians_per_side_and_class():
    got = summarize(TABLE)
    # p50 over every sample of a side: the median of four interpolates
    assert got["p50"]["parent"] == 2.5 and got["p50"]["change"] == 1.25
    assert got["p50"]["relative"] == pytest.approx(-0.5)
    assert list(got["classes"]) == ["d60 accept", "d72 IdentityFailed"]
    accept = got["classes"]["d60 accept"]
    assert (accept["parent"], accept["change"]) == (2.0, 1.0)
    assert accept["relative"] == pytest.approx(-0.5)
    assert got["classes"]["d72 IdentityFailed"]["relative"] == pytest.approx(0.05)


def test_report_prints_milliseconds_and_the_relative_change():
    assert report(summarize(TABLE)) == [
        "p50                    2500.000 -> 1250.000 ms  (-50.0 %)",
        "d60 accept             2000.000 -> 1000.000 ms  (-50.0 %)",
        "d72 IdentityFailed     4000.000 -> 4200.000 ms  (+5.0 %)",
    ]
