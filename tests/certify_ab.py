"""In-process A/B of certification: the parent commit's package against
the working tree's, in one process, on the certify corpora.

    python tests/certify_ab.py [--parent HEAD] [--passes 20] [--seeds 1 2 3]

The parent side is a `git archive` of --parent's src/ (default HEAD, the
base of uncommitted work; give HEAD~1 for a committed change) and the
change side a copy of the working tree's src/, each in its own temporary
directory.  Both packages are imported side by side: each is imported
with the other's modules out of sys.modules, and its modules are put back
in sys.modules while it runs.  The corpora are perfbench/corpus.py's for
each seed, made from the parent's four preset texts.  Each pass parses
and verifies every document once on each side, the parent first in even
passes and the change first in odd ones; both sides must give the same
verdict on every document.

It prints the p50 of every timed document on each side, then one line per
class (preset and verdict, such as "d60 accept" or "d72 IdentityFailed"):
the median of its documents' times on each side and the relative change.
pytest does not collect this file; tests/test_certify_ab.py checks its
arithmetic.
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "fullerene_belyi"
MODULES = ("exact", "multipoly", "derive", "belyi", "moebius", "geometry", "cli")
SIDES = ("parent", "change")


def summarize(samples: list[tuple[str, str, float]]) -> dict:
    """From (side, class, seconds) samples: the p50 of each side over all
    its samples, and each class's median per side, each with the change
    relative to the parent."""
    def compare(select) -> dict:
        medians = {side: statistics.median(select(side)) for side in SIDES}
        return {**medians, "relative": medians["change"] / medians["parent"] - 1}

    classes = sorted({klass for _, klass, _ in samples})
    return {"p50": compare(lambda side: [t for s, _, t in samples if s == side]),
            "classes": {klass: compare(lambda side, klass=klass: [
                t for s, c, t in samples if s == side and c == klass])
                for klass in classes}}


def report(summary: dict) -> list[str]:
    """The printed lines: the p50, then one line per class, in ms."""
    def line(name: str, row: dict) -> str:
        return (f"{name:<22} {row['parent'] * 1e3:8.3f} -> {row['change'] * 1e3:8.3f} ms"
                f"  ({row['relative'] * 100:+.1f} %)")

    return [line("p50", summary["p50"]),
            *(line(klass, row) for klass, row in summary["classes"].items())]


def import_tree(src: Path) -> dict:
    """The package under src, imported with no other copy in sys.modules;
    returns its modules by their full names."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module(PACKAGE)
        for name in MODULES:
            importlib.import_module(f"{PACKAGE}.{name}")
    finally:
        sys.path.remove(str(src))
    return {m: mod for m, mod in sys.modules.items()
            if m == PACKAGE or m.startswith(PACKAGE + ".")}


def trees(parent: str, into: Path) -> dict[str, Path]:
    """The parent's src/ from git archive and a copy of the working tree's."""
    archive = subprocess.run(["git", "archive", parent, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into / "parent", filter="data")
    shutil.copytree(ROOT / "src", into / "change" / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info"))
    return {side: into / side / "src" for side in SIDES}


def verdict(belyi, text: str) -> tuple[str, str]:
    """("accept", the passport) or (the error's class, its message)."""
    try:
        return "accept", str(belyi.FactoredBelyi.from_text(text).verify())
    except belyi.BelyiVerificationError as exc:
        return type(exc).__name__, str(exc)


def run(parent: str, passes: int, seeds: list[int]) -> list[tuple[str, str, float]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    with tempfile.TemporaryDirectory() as tmp:
        modules = {side: import_tree(src) for side, src in trees(parent, Path(tmp)).items()}
    sys.modules.update(modules["parent"])
    moebius = modules["parent"][f"{PACKAGE}.moebius"]
    texts = {"d6": modules["parent"][f"{PACKAGE}.derive"].d6_solve().belyi.to_text(),
             "d12": moebius.build_beta12().to_text(),
             "d60": moebius.build_beta60().to_text(),
             "d72": moebius.build_beta72().to_text()}
    docs = [doc for seed in seeds for doc in corpus.generate(seed, texts)]
    verdicts, samples = {}, []
    for i in range(passes):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            sys.modules.update(modules[side])
            belyi = modules[side][f"{PACKAGE}.belyi"]
            for doc in docs:
                t0 = time.perf_counter()
                got = verdict(belyi, doc.text)
                seconds = time.perf_counter() - t0
                if verdicts.setdefault((doc.name, doc.text), got) != got:
                    raise AssertionError(f"{doc.name}: the sides disagree")
                samples.append((side, f"{doc.preset} {got[0]}", seconds))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    for line in report(summarize(run(args.parent, args.passes, args.seeds))):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
