"""The verdict hash of tests/verdict_hash.py, pinned on seed 1's certify
corpus (perfbench/corpus.py is stdlib-only, so every job runs it)."""

from collections import Counter

from verdict_hash import verdict_hash, verdict_rows


def test_seed_1_verdicts_are_pinned():
    rows = verdict_rows([1])
    assert Counter(verdict for _, verdict, _ in rows) == {
        "accept": 34, "IdentityFailed": 4, "FactorsShareRoot": 4}
    assert verdict_hash(rows) == "9ba50c52d4c76b37"
