"""The traced run: per-layer self times and exact counts.

Spans (name, start, end, parent, and the operation they belong to) are kept
in memory and written to `.perfbench/spans-<workload>-<seed>.json` at the
end.  A span's self time is its duration minus its children's.

Spans come from two places, both in the benchmark's own files:

* the replay calls the public stage functions of each cold command in
  pipeline order, upstream first, on a freshly imported package, so each
  cached stage is computed once, in its own span;
* `instrument` wraps the public stage functions and methods of `derive`,
  `moebius`, `belyi`, `geometry` and `cli` in every module that names
  them, so the stages that `cli.main` computes itself get spans as its
  children and `cli.main`'s self time is the CLI's own parsing and
  rendering.  Nothing on disk changes.

The kernels of `exact` and `multipoly` are timed on pipeline operands
outside the replay.  The cold commands run untraced through the
workloads' own operation (`harness.cold_op`), for a fixed number of
cycles; with the bare interpreter and the import they give each command's
accounting line: the share of its cold median not covered by interpreter
start, import and the replayed stage times.  The certify corpus is
certified twice per document, untraced and traced, in alternating order,
which gives the belyi metrics and the tracing overhead.

Every traced run reports every per-layer metric, so the work is the same
whatever the workload; only the seed changes the inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import time

import checks
import corpus
import harness
from checks import ROOT, WORK

BUILD_CYCLES = 2        # cold build cycles: four runs of each command
REPLAY_REPEATS = 3      # per build command; derive 6 is replayed once
KERNEL_REPEATS = 5
IMPORT_REPEATS = 5
HEIGHTS = (0, *corpus.HEIGHTS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span named `name` with extra fields `attrs`; yields its record,
        or None (recording nothing) while the tracer is disabled."""
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent,
               "op": sid if parent is None else self.spans[parent]["op"],
               "start_ns": time.perf_counter_ns(), "end_ns": None, **attrs}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name, fn):
        """`fn` in a span while the tracer is enabled; `name` is a string
        or a function of the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name if isinstance(name, str) else name(*args, **kwargs)):
                return fn(*args, **kwargs)
        return traced

    def self_ns(self) -> list[int]:
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def ops(self, root_name: str) -> list[list[dict]]:
        """The spans of each operation whose root span is `root_name`."""
        roots = {s["id"] for s in self.spans
                 if s["parent"] is None and s["name"] == root_name}
        by_op: dict[int, list[dict]] = {r: [] for r in roots}
        for s in self.spans:
            if s["op"] in by_op:
                by_op[s["op"]].append(s)
        return [by_op[r] for r in sorted(by_op)]

    def dump(self, path) -> None:
        own = self.self_ns()
        path.write_text(json.dumps([{**s, "self_ns": own[s["id"]]} for s in self.spans]))


FUNCTIONS = {
    ("derive", "run_ode_elimination"): lambda s: f"derive.elim_s{s}",
    ("derive", "derive_case"): lambda s, *a, **k: f"derive.case_s{s}",
    ("derive", "family_k_formula"): "derive.family_k",
    ("derive", "d6_solve"): "derive.d6_solve",
    ("moebius", "beta12_ratmap"): "moebius.beta12",
    ("moebius", "beta60_ratmap"): "moebius.beta60",
    ("moebius", "beta72_ratmap"): "moebius.beta72",
    ("moebius", "schwarz_check"): "moebius.schwarz",
    ("geometry", "poly_roots"): "geometry.roots",
    ("geometry", "barrel_vertices"): "geometry.barrel_vertices",
    ("geometry", "face_geometry"): "geometry.face",
    ("cli", "emit_svg"): "cli.svg",
    ("cli", "main"): "cli.main",
}
METHODS = {
    "verify": lambda self: f"belyi.verify_d{self.degree}",
    "to_text": "belyi.to_text",
}
STATIC_METHODS = {
    "from_text": "belyi.parse",
    "from_ratmap": lambda f: f"belyi.from_ratmap_d{f.degree}",
}


def instrument(tracer: Tracer, mods: dict) -> None:
    """Wrap the stage functions of a freshly imported package in spans,
    under every name a module of the package binds them to."""
    namespaces = [*mods.values(), __import__(harness.PACKAGE)]
    for (mod, fname), name in FUNCTIONS.items():
        original = getattr(mods[mod], fname)
        traced = tracer.wrap(name, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, traced)
    cls = mods["belyi"].FactoredBelyi
    for meth, name in METHODS.items():
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
    for meth, name in STATIC_METHODS.items():
        setattr(cls, meth, staticmethod(tracer.wrap(name, getattr(cls, meth))))


# upstream stages each cold command needs before `cli.main` runs, in
# pipeline order; each is a (module, function, arguments) call
_D6 = ("derive", "d6_solve", ())
_B12 = ("moebius", "beta12_ratmap", ())
UPSTREAM = {
    "passport": [],
    "derive5": [("derive", "run_ode_elimination", (5,))],
    "derive6": [("derive", "run_ode_elimination", (6,)),
                ("derive", "family_k_formula", ())],
    "verify_d6": [_D6],
    "compose_d12": [_D6, _B12, ("moebius", "build_beta12", ())],
    "compose_d60": [_D6, _B12, ("moebius", "beta60_ratmap", ()),
                    ("moebius", "build_beta60", ())],
    "compose_d72": [_D6, _B12, ("moebius", "beta72_ratmap", ()),
                    ("moebius", "build_beta72", ())],
    "verify_file": [],
    "schwarz": [_D6, _B12, ("moebius", "beta60_ratmap", ())],
    "geometry": [_D6, _B12, ("moebius", "beta72_ratmap", ()),
                 ("moebius", "build_beta72", ()),
                 ("geometry", "barrel_vertices", ())],
}
COMMANDS = (checks.DERIVE6, *checks.BUILD)


def replay(tracer: Tracer, cmd: checks.Command, d72_text: str) -> str | None:
    """One cold command, in process, stage by stage; returns a failure."""
    mods = harness.import_fresh()
    instrument(tracer, mods)
    if cmd.writes:
        checks.written_path(cmd).unlink(missing_ok=True)
    out = io.StringIO()
    with tracer.span(f"replay.{cmd.name}"):
        for mod, fname, args in UPSTREAM[cmd.name]:
            getattr(mods[mod], fname)(*args)
        with contextlib.redirect_stdout(out):
            rc = mods["cli"].main(cmd.argv("text"))
    return checks.check_output(cmd, "text", rc, out.getvalue(), "",
                               checks.read_written(cmd), d72_text)


def _stage_s(tracer: Tracer, own: list[int], cmd: str, stage: str) -> float:
    """Median over the replays of `cmd` of the summed self time of `stage`."""
    return statistics.median([
        sum(own[s["id"]] for s in op if s["name"] == stage) / 1e9
        for op in tracer.ops(f"replay.{cmd}")])


def _stages_total_s(tracer: Tracer, own: list[int], cmd: str) -> float:
    """Median over the replays of `cmd` of all its stage spans' self time
    (the root span's own glue excluded)."""
    return statistics.median([sum(own[s["id"]] for s in op if s["parent"] is not None) / 1e9
                         for op in tracer.ops(f"replay.{cmd}")])


def _kernel(tracer: Tracer, name: str, fn, repeats: int = KERNEL_REPEATS):
    """Median seconds of `fn()` over `repeats` spans; (seconds, last result)."""
    times = []
    for _ in range(repeats):
        with tracer.span(name) as rec:
            result = fn()
        times.append((rec["end_ns"] - rec["start_ns"]) / 1e9)
    return statistics.median(times), result


def kernels(tracer: Tracer, mods: dict, docs: list[corpus.Doc]) -> dict:
    """`exact` and `multipoly` kernels on operands the pipeline produces."""
    exact, derive, moebius = mods["exact"], mods["derive"], mods["moebius"]
    f72 = moebius.beta72_ratmap()
    w72 = f72.one_numerator()
    v24 = moebius.build_beta72().zero_factors[0][0]
    p144 = f72.num * f72.num
    # the largest factor of the corpus: the longest coefficient list of a
    # height-9 document
    h9 = max((d for d in docs if d.height == 9 and not d.tampered),
             key=lambda d: (d.nbytes, d.name))
    tokens = max((ln.split()[2:] for ln in h9.text.splitlines()
                  if ln.split()[0] in corpus.SIDES), key=len)
    big = exact.UniPoly.from_tokens(tokens)
    coeffs = big.coeffs

    m = {}
    m["exact.mul_d24_s"], _ = _kernel(tracer, "exact.mul_d24", lambda: v24 * v24)
    m["exact.mul_d72_s"], _ = _kernel(tracer, "exact.mul_d72", lambda: f72.num * f72.den)
    m["exact.divmod_d144_s"], _ = _kernel(tracer, "exact.divmod_d144",
                                          lambda: divmod(p144, w72))
    m["exact.gcd_d72_s"], _ = _kernel(tracer, "exact.gcd_d72",
                                      lambda: exact.poly_gcd(w72, w72.derivative()))
    m["exact.gcd_h9_s"], _ = _kernel(tracer, "exact.gcd_h9",
                                     lambda: exact.poly_gcd(big, big.derivative()))
    m["exact.squarefree_d72_s"], _ = _kernel(
        tracer, "exact.squarefree_d72", lambda: exact.squarefree_decomposition(w72))
    m["exact.gaussrat_mul_s"], _ = _kernel(
        tracer, "exact.gaussrat_mul", lambda: [a * b for a in coeffs for b in coeffs])

    p_sym, trace = derive.run_ode_elimination(6)
    p_fam = trace.apply_param(p_sym)
    v, _ = derive.vm_from_p(p_fam, 6)
    m["multipoly.family_cube_s"], v3 = _kernel(tracer, "multipoly.family_cube",
                                               lambda: v ** 3, repeats=1)
    m["multipoly.family_p5_s"], p5 = _kernel(tracer, "multipoly.family_p5",
                                             lambda: p_fam ** 5, repeats=1)
    return {
        **{k: (x, "s") for k, x in m.items()},
        "multipoly.identity_terms": (sum(len(c.terms) for c in (*v3.coeffs, *p5.coeffs)),
                                     "count"),
        "multipoly.elim_steps": (len(trace.steps), "count"),
        **{f"exact.coeff_bits_max_h{h}": (max(d.coeff_bits for d in docs if d.height == h),
                                           "bits")
           for h in HEIGHTS},
    }


def certify_pairs(lib: harness.Library, tracer: Tracer) -> tuple[harness.Tally, harness.Tally]:
    """Each document certified twice, untraced and traced, the order
    alternating from one document to the next, so that drift of the host
    falls on both sides alike; (untraced tally, traced tally)."""
    run_op = harness.certify_op(lib)
    plain, traced = harness.Tally(), harness.Tally()
    for i, doc in enumerate(lib.docs):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enabled = on
            with tracer.span("certify", doc=doc.name):
                run_op(doc, traced if on else plain)
    tracer.enabled = True
    return plain, traced


def tracing_overhead(plain: harness.Tally, traced: harness.Tally) -> tuple[float, dict]:
    """Traced throughput over untraced throughput, and the quartiles of the
    same ratio per document, which show how much of it is noise."""
    per_doc = [p / t for p, t in zip(plain.latencies, traced.latencies)]
    ratio = sum(plain.latencies) / sum(traced.latencies)
    return ratio, {"ratio": ratio, "pairs": len(per_doc),
                   "per_document_quartiles": statistics.quantiles(per_doc, n=4)}


def certify_layers(tracer: Tracer, own: list[int], docs: list[corpus.Doc]) -> dict:
    by_name = {d.name: d for d in docs}
    parse, verify = [], {"h0": [], "h9": [], "reject": []}
    for op in tracer.ops("certify"):
        doc = by_name[op[0]["doc"]]
        for s in op[1:]:
            secs = own[s["id"]] / 1e9
            if s["name"] == "belyi.parse":
                parse.append(secs)
            elif s["name"].startswith("belyi.verify"):
                key = "reject" if doc.tampered else f"h{doc.height}"
                if key in verify:
                    verify[key].append(secs)
    return {"belyi.parse_s": (statistics.median(parse), "s"),
            "belyi.verify_h0_s": (statistics.median(verify["h0"]), "s"),
            "belyi.verify_h9_s": (statistics.median(verify["h9"]), "s"),
            "belyi.reject_s": (statistics.median(verify["reject"]), "s")}


def cold_medians(seed: int, d72_text: str) -> tuple[harness.Tally, dict[str, float]]:
    """One proof cycle and `BUILD_CYCLES` build cycles of the untraced cold
    operation; (tally, median seconds per command over both formats)."""
    tally = harness.Tally()
    run_op = harness.cold_op(d72_text)
    for cycles, n in ((harness.proof_cycles(seed), 1),
                      (harness.build_cycles(seed), BUILD_CYCLES)):
        for _ in range(n):
            for op in next(cycles):
                run_op(op, tally)
    times: dict[str, list[float]] = {}
    for name, xs in tally.by_name.items():
        times.setdefault(name.split("/")[0], []).extend(xs)
    return tally, {k: statistics.median(v) for k, v in times.items()}


def interpreter_and_import() -> tuple[float, float]:
    """Median seconds of a bare interpreter, and of importing the CLI on top
    of it."""
    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(harness.run_python(["-c", "pass"])[0])
        imported.append(harness.run_python(["-c", harness.WARM])[0])
    interp = statistics.median(bare)
    return interp, statistics.median(imported) - interp


def run(workload: str, seed: int, report: dict):
    """The traced run; (per-layer metrics, attempted, failures)."""
    harness.setup_cold(harness.WARM)
    lib = harness.setup_certify(seed)
    d72_text = lib.texts["d72"]

    cold_tally, cold = cold_medians(seed, d72_text)
    interp_s, import_s = interpreter_and_import()

    tracer = Tracer()
    instrument(tracer, lib.modules)
    plain, traced = certify_pairs(lib, tracer)
    overhead, report["tracing_overhead"] = tracing_overhead(plain, traced)
    failures = cold_tally.failures + plain.failures + traced.failures
    attempted = cold_tally.attempted + plain.attempted + traced.attempted

    for rep in range(REPLAY_REPEATS):
        for cmd in COMMANDS:
            if rep and cmd is checks.DERIVE6:
                continue
            failure = replay(tracer, cmd, d72_text)
            attempted += 1
            if failure:
                failures.append(f"replay {cmd.name}: {failure}")
    layers = kernels(tracer, harness.import_fresh(), lib.docs)
    own = tracer.self_ns()

    def stage(cmd: str, name: str) -> tuple[float, str]:
        return _stage_s(tracer, own, cmd, name), "s"

    layers.update(certify_layers(tracer, own, lib.docs))
    layers.update({
        "cli.import_s": (import_s, "s"),
        "cli.render_s": (sum(_stage_s(tracer, own, c.name, "cli.main")
                             for c in checks.BUILD), "s"),
        "cli.svg_s": stage("geometry", "cli.svg"),
        **{f"cli.{name}_s": (secs, "s") for name, secs in cold.items()},
        "derive.elim_s5_s": stage("derive5", "derive.elim_s5"),
        "derive.elim_s6_s": stage("derive6", "derive.elim_s6"),
        "derive.family_k_s": stage("derive6", "derive.family_k"),
        "derive.case6_self_s": stage("derive6", "derive.case_s6"),
        "derive.case5_s": stage("derive5", "derive.case_s5"),
        "derive.d6_solve_s": stage("verify_d6", "derive.d6_solve"),
        "belyi.to_text_s": stage("compose_d72", "belyi.to_text"),
        "belyi.from_ratmap_d60_s": stage("compose_d60", "belyi.from_ratmap_d60"),
        "belyi.from_ratmap_d72_s": stage("compose_d72", "belyi.from_ratmap_d72"),
        "belyi.verify_d72_s": stage("compose_d72", "belyi.verify_d72"),
        "moebius.beta12_s": stage("compose_d12", "moebius.beta12"),
        "moebius.schwarz_s": stage("schwarz", "moebius.schwarz"),
        "geometry.roots_s": stage("geometry", "geometry.roots"),
        "geometry.barrel_vertices_s": stage("geometry", "geometry.barrel_vertices"),
        "geometry.face_s": stage("geometry", "geometry.face"),
        "host.ref_loop_s": (report["host.ref_loop_s"], "s"),
        "host.interp_s": (interp_s, "s"),
        "host.tracing_overhead": (overhead, "ratio"),
    })

    accounting = {}
    for cmd in COMMANDS:
        p50 = cold[cmd.name]
        stages = _stages_total_s(tracer, own, cmd.name)
        share = 1.0 - (interp_s + import_s + stages) / p50
        layers[f"cli.{cmd.name}_unexplained"] = (share, "share")
        accounting[cmd.name] = {"cold_p50_s": p50, "interpreter_s": interp_s,
                                "import_s": import_s, "stages_s": stages,
                                "unexplained_share": share}
        print(f"accounting {cmd.name}: cold p50 {p50:.4f} s = interpreter "
              f"{interp_s:.4f} + import {import_s:.4f} + stages {stages:.4f} "
              f"+ unexplained {share:.1%}")
    report["accounting"] = accounting
    report["corpus"] = {k: v for k, v in corpus.summary(lib.docs).items() if k != "docs"}
    spans = ROOT / WORK / f"spans-{workload}-{seed}.json"
    tracer.dump(spans)
    report["spans"] = str(spans.relative_to(ROOT))
    return dict(sorted(layers.items())), attempted, failures
