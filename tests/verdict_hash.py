"""Verdict hash: one short digest of verify's verdicts on the certify
corpora, so that two versions of the package can be compared on them.

    python tests/verdict_hash.py [SEED ...]    (default: seeds 1-5)

It builds the four preset texts (d6, d12, d60, d72) with the package under
src/, generates perfbench/corpus.py's corpus for each seed, and parses and
verifies every document in corpus order.  Each document gives one row
(name, verdict, detail): the verdict is "accept" or the class name of the
error verify raised, the detail str(passport) or the error's message.  The
script prints the first 16 hex digits of sha256(repr(rows)) over the rows
of all seeds.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import corpus  # noqa: E402
from fullerene_belyi.belyi import BelyiVerificationError, FactoredBelyi  # noqa: E402
from fullerene_belyi.derive import d6_solve  # noqa: E402
from fullerene_belyi.moebius import build_beta12, build_beta60, build_beta72  # noqa: E402


def preset_texts() -> dict[str, str]:
    return {"d6": d6_solve().belyi.to_text(), "d12": build_beta12().to_text(),
            "d60": build_beta60().to_text(), "d72": build_beta72().to_text()}


def verdict_rows(seeds: list[int]) -> list[tuple[str, str, str]]:
    """(name, "accept" or the error class, passport or message) for every
    document of each seed's corpus, in corpus order."""
    texts = preset_texts()
    rows = []
    for seed in seeds:
        for doc in corpus.generate(seed, texts):
            try:
                passport = FactoredBelyi.from_text(doc.text).verify()
            except BelyiVerificationError as exc:
                rows.append((doc.name, type(exc).__name__, str(exc)))
            else:
                rows.append((doc.name, "accept", str(passport)))
    return rows


def verdict_hash(rows: list[tuple[str, str, str]]) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    print(verdict_hash(verdict_rows([int(s) for s in argv] or [1, 2, 3, 4, 5])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
