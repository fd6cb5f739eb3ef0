#!/usr/bin/env python3
"""Certification benchmark for monobasis.

Times the user-facing decision, ``monobasis basis-check``, run in-process
through ``cli.main`` on system files in the CLI grammar, together with the
rank oracle and the identity commands (factor, mulmat, vandermonde-verify),
and checks every answer against paper identities, Q/F_p consistency and
the independent reference in ``reference.py``.

    python3 bench/run.py --workload q-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Times are scaled by the host speed sampled along each pass
and set-up (``hostspeed.py``).  ``--write-inputs DIR`` only writes the seeded inputs.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import hostspeed
import inputs
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Set-ups per run: a quarter before the passes, up to half between passes
# (keeping pace with the time spent) and the rest after the checks, so
# that the median spans the whole run rather than one moment of the host.
SETUP_REPEATS = 16
SETUPS_BEFORE = 4
SETUPS_BETWEEN = 8
# Each set-up time is scaled by host-speed samples taken on each side of
# it, as many as a pass would take for this many seconds of timed calls.
SETUP_SAMPLES_S = 0.1
END_TO_END = ("certify_s", "oracle_s", "identities_s", "setup_s", "peak_rss_mib")
UNITS = {"certify_s": "s", "oracle_s": "s", "identities_s": "s", "setup_s": "s",
         "peak_rss_mib": "MiB"}
PHASES = ("certify_s", "oracle_s", "identities_s")
# The one fault the benchmark keeps: resultant_macaulay gives up when
# Macaulay's extraneous minor vanishes at rho+1..rho+3.  Only the fixed
# degenerate questions may fail, and only with this exception.
FAULT = "EvaluationDegenerate"
OP_KINDS = ("basis-check", "oracle", "factor", "mulmat", "vandermonde-verify",
            "vandermonde-transformed")


class Program:
    """The monobasis modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "monobasis" or m.startswith("monobasis.")]:
            del sys.modules[name]
        pkg = importlib.import_module("monobasis")
        if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "monobasis"):
            raise ImportError(f"monobasis imported from {pkg.__file__}, not from {SRC}")
        for name in ("cli", "certify", "errors", "fields", "polynomials", "koszul",
                     "detcomplex", "subresultants"):
            setattr(self, name, importlib.import_module(f"monobasis.{name}"))

    def cli_run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def kv(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.split() if "=" in line)


def value(text: str, p):
    """A CLI field value as an int mod p or a Fraction."""
    return int(text) % p if p else Fraction(text)


def plus_minus(v, p):
    return (v, -v % p if p else -v)


# ---------------------------------------------------------------------------
# set-up


def setup(questions, identities, workdir):
    """Import monobasis, write the inputs, parse what the direct calls need, warm up."""
    t0 = time.perf_counter()
    prog = Program()
    inputs.write(questions, identities, workdir)
    for q in questions:
        field = prog.fields.field_from_spec(q.field)
        q.sys = prog.cli.load_system(q.path, field)
        q.M = prog.cli.parse_monomial_list(q.monomials, len(q.degrees), field)
    for ident in identities:
        field = prog.fields.field_from_spec(f"fp:{ident.p}" if ident.p else "q")
        ident.field = field
        if ident.kind == "vandermonde-transformed":
            ident.sys = prog.cli.load_system(ident.path, field)
            ident.M = prog.polynomials.MonomialSet(ident.mset)
            ident.field_roots = [tuple(field.of(x) for x in z) for z in ident.roots]
    warm = next(q for q in questions if not q.degenerate)
    prog.cli_run(warm.argv())
    return time.perf_counter() - t0, prog


# ---------------------------------------------------------------------------
# one pass: every question through basis-check and the oracle, every identity call


def identity_argv(ident):
    field = f"fp:{ident.p}" if ident.p else "q"
    if ident.kind == "factor":
        return ["factor", "--field", field, "--system", ident.path,
                "--monomials", inputs.set_text(ident.mset)]
    if ident.kind == "mulmat":
        return ["mulmat", "--field", field, "--system", ident.path,
                "--monomials", inputs.set_text(ident.mset), "--g", inputs.poly_text(ident.g)]
    return ["vandermonde-verify", "--degrees", ",".join(map(str, ident.degrees)),
            "--field", field, "--set", "m0"]


def oracle_call(prog, q):
    try:
        return "oracle", ("ok", prog.certify.rank_oracle(q.sys, q.M))
    except prog.errors.AlgebraError as exc:
        return "oracle", ("error", type(exc).__name__, str(exc))


def plain(x):
    """A field element as an int (F_p) or a Fraction (Q).

    Elements of two imports of monobasis never compare equal, and a pass
    may run on a fresh import, so outputs keep only plain values.
    """
    return getattr(x, "val", x)


def identity_call(prog, ident):
    if ident.kind != "vandermonde-transformed":
        return ident.kind, prog.cli_run(identity_argv(ident))
    try:
        r = prog.certify.vandermonde_verify(ident.sys, ident.field_roots, ident.M)
        return ident.kind, ("ok", r.matched_sign, r.disp_exact, plain(r.det_value),
                            plain(r.resultant_value), plain(r.subresultant_value))
    except prog.errors.AlgebraError as exc:
        return ident.kind, ("error", type(exc).__name__, str(exc))


def one_pass(prog, questions, identities):
    """Measured times of the three phases, the pass's host-speed scale and
    the normalized outputs of every operation.

    A pass is one round of every operation.  The phases are interleaved:
    each question's basis-check is followed by its oracle call, and the
    identity calls are spread evenly among the questions.  The host this
    was tuned on changes speed from one second to the next, so a phase
    timed as one block would read the speed of one moment; spread out,
    each phase time averages over the whole pass.  Between calls the host
    speed is sampled, one sample per hostspeed.EVERY_S of timed calls.
    """
    clock = time.perf_counter
    times = dict.fromkeys(PHASES, 0.0)
    pace = hostspeed.Pace()
    cert, orc, ident = [], [], []
    due = [k * len(questions) // len(identities) for k in range(len(identities))]
    for i, q in enumerate(questions):
        pace.keep_up(sum(times.values()))
        t0 = clock()
        cert.append(("basis-check", prog.cli_run(q.argv())))
        t1 = clock()
        orc.append(oracle_call(prog, q))
        t2 = clock()
        times["certify_s"] += t1 - t0
        times["oracle_s"] += t2 - t1
        while len(ident) < len(identities) and due[len(ident)] <= i:
            pace.keep_up(sum(times.values()))
            t0 = clock()
            ident.append(identity_call(prog, identities[len(ident)]))
            times["identities_s"] += clock() - t0
    pace.keep_up(sum(times.values()))
    return times, pace.scale(), cert + orc + ident


def failed(kind, out) -> bool:
    if kind in ("oracle", "vandermonde-transformed"):
        return out[0] == "error"
    return out[0] == 2  # CLI: 2 is a usage or input error, 1 a negative answer


def run_passes(prog, questions, identities, seconds, on_pass=None, between=None):
    """Whole passes until the next one would end after ``seconds``.

    ``between(share)``, given the share of ``seconds`` spent so far, runs
    between two passes and returns the program for the next one.  Returns
    the measured phase times and the host-speed scale of every pass, the
    first pass's outputs and whether every pass printed the same.
    """
    times, scales, first, same = [], [], None, True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        t, scale, outputs = one_pass(prog, questions, identities)
        times.append(t)
        scales.append(scale)
        if on_pass:
            on_pass()
        if first is None:
            first = outputs
        same = same and outputs == first
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return times, scales, first, same
        if between:
            prog = between((time.perf_counter() - start) / seconds)


# ---------------------------------------------------------------------------
# checks, outside every timed pass


class Checks:
    def __init__(self):
        self.errors = []
        self.count = 0

    def __call__(self, ok, what):
        self.count += 1
        if not ok:
            self.errors.append(what)


def failure_name(prog, kind, subject):
    """The exception behind a failed CLI call, from the library call it wraps."""
    try:
        if kind == "basis-check":
            prog.certify.certify_basis(subject.sys, subject.M)
        elif kind == "factor":
            sys_ = prog.cli.load_system(subject.path, subject.field)
            prog.certify.factorize_delta(sys_.leading_forms(),
                                         prog.polynomials.MonomialSet(subject.mset))
        elif kind == "mulmat":
            sys_ = prog.cli.load_system(subject.path, subject.field)
            g = prog.cli.parse_poly(inputs.poly_text(subject.g), len(subject.degrees), subject.field)
            prog.certify.multiplication_matrix(sys_, prog.polynomials.MonomialSet(subject.mset), g)
        else:
            return "exit 2"
    except prog.errors.AlgebraError as exc:
        return type(exc).__name__
    return "exit 2"


def check_all(prog, workload, seed, questions, identities, outputs, log):
    """Check one pass's answers; return (Checks, failure names per kind)."""
    ok = Checks()
    fails = {k: [] for k in OP_KINDS}
    n_q = len(questions)
    cert = outputs[:n_q]
    oracle = outputs[n_q:2 * n_q]
    ident_out = outputs[2 * n_q:]
    res_cache = {}
    delta_of = {}

    for q, (_, (code, out, err)), (_, orc) in zip(questions, cert, oracle):
        key = (q.path, q.field)
        if key not in res_cache:
            res_cache[key] = ref.resultant_nonzero(q.polys, q.degrees, q.p)
        ref_basis = res_cache[key] and ref.graded_basis(q.polys, q.degrees, q.mset, q.p)
        if orc[0] == "error":
            fails["oracle"].append(orc[1])
            ok(q.degenerate and orc[1] == FAULT, f"{q.name}: rank_oracle raised {orc[1]}: {orc[2]}")
        if code == 2:
            name = failure_name(prog, "basis-check", q)
            fails["basis-check"].append(name)
            ok(q.degenerate and name == FAULT, f"{q.name}: basis-check exited 2 with {name}: {err.strip()}")
            log(f"failed {q.name} [{q.field}]: {name}: {err.strip()} "
                f"(reference: Res {'!=' if res_cache[key] else '=='} 0, "
                f"{'basis' if ref_basis else 'not a basis'})")
            continue
        r = kv(out)
        res, delta, product = (value(r[k], q.p) for k in ("res", "delta", "product"))
        is_basis = r["verdict"] == "basis"
        delta_of[q.name] = delta
        ok(product == (res * delta) % q.p if q.p else product == res * delta,
           f"{q.name}: product != res*delta")
        ok((code == 0) == is_basis and code in (0, 1), f"{q.name}: exit {code} with verdict {r['verdict']}")
        ok(is_basis == bool(product), f"{q.name}: verdict {r['verdict']} with product {product}")
        ok(int(r["t"]) == q.delta, f"{q.name}: t={r['t']}, delta(M)={q.delta}")
        ok(is_basis == ref_basis, f"{q.name}: certificate says {r['verdict']}, reference disagrees")
        if orc[0] == "ok":
            ok(orc[1] == is_basis, f"{q.name}: oracle {orc[1]} vs certificate {r['verdict']}")

        # the complex at delta(M): ascending (the CLI value) = +- descending
        n = len(q.degrees)
        S = q.M.homogenized_at(q.delta)
        if len(S) == prog.subresultants.required_cardinality(q.degrees, n + 1, q.delta):
            cx = prog.koszul.build_complex(q.sys.homogenized(), q.delta, S)
            try:
                desc = prog.detcomplex.decompose_descending(cx).delta
            except prog.errors.NotExact:
                desc = prog.fields.field_from_spec(q.field).zero
            desc = plain(desc)
            ok(desc in plus_minus(delta, q.p),
               f"{q.name}: ascending {delta} != +-descending {desc}")
        else:
            ok(delta == 0, f"{q.name}: delta={delta} for a set of the wrong Hilbert count")

        # Q against F_P on the same integer system
        if q.p is None:
            code_p, out_p, _ = prog.cli_run(q.argv(field=f"fp:{inputs.P_BIG}"))
            if code_p == 2:
                log(f"note {q.name}: no Q/F_P comparison, basis-check over F_P exited 2")
            else:
                rp = kv(out_p)
                P = inputs.P_BIG
                ok(ref.reduce(res, P) == int(rp["res"]), f"{q.name}: Res over Q mod P != Res over F_P")
                d_p = int(rp["delta"])
                ok(ref.reduce(delta, P) in plus_minus(d_p, P),
                   f"{q.name}: Delta over Q mod P != +-Delta over F_P")

    for ident, (kind, o) in zip(identities, ident_out):
        p = ident.p
        name = f"{kind} {','.join(map(str, ident.degrees))} [{'fp:%d' % p if p else 'q'}]"
        if failed(kind, o):
            why = o[1] if kind == "vandermonde-transformed" else failure_name(prog, kind, ident)
            fails[kind].append(why)
            ok(False, f"{name}: the identity call failed with {why}")
            continue
        if kind == "factor":
            code, out, _ = o
            r = kv(out)
            ok(code == 0 and r.get("applicable") == "yes", f"{name}: M0 not applicable")
            d = delta_of.get(ident.question.name)
            if d is not None and "product" in r:
                pr = value(r["product"], p)
                ok(pr in plus_minus(d, p), f"{name}: product of factors != +-Delta")
        elif kind == "mulmat":
            code, out, _ = o
            r = kv(out)
            want = ref.product_over_roots(ident.g, ident.roots, p)
            zeros = sum(1 for z in ident.roots if not ref.evaluate(ident.g, z, p))
            ok(code == 0 and value(r["det"], p) == want, f"{name}: det != prod g(zeta)")
            ok(int(r["kernel_dim"]) == zeros, f"{name}: kernel_dim != #roots with g = 0")
        elif kind == "vandermonde-verify":
            code, out, _ = o
            r = kv(out)
            own = ref.root_det(ident.mset, ident.roots, p)
            got = value(r["det"], p)
            ok(code == 0 and r["sign"] in ("1", "-1") and r.get("exact_sign") == "yes",
               f"{name}: identity or its exact sign on M0 fails")
            ok(got in plus_minus(own, p), f"{name}: det != +-det[m(zeta)]")
            ok(value(r["res"], p) == 1, f"{name}: Res of x_i^d_i - 1 != 1")
        else:
            _, sign, exact, det_v, res_v, _ = o
            own = ref.root_det(ident.mset, ident.roots, p)
            bez = len(ident.roots)
            ok(sign is not None and exact is True, f"{name}: identity or its exact sign on M0 fails")
            ok(det_v in plus_minus(own, p), f"{name}: det != +-det[m(zeta)]")
            # Res(f o L) = det(L)^(d_1...d_n) Res(f), and Res(x_i^d_i) = 1
            want = ref.det(ident.L, p) ** bez
            ok(res_v == (want % p if p else want), f"{name}: Res(f o L) != det(L)^bezout")

    check_transform_resultant(prog, workload, seed, questions, ok, log)
    check_reference(ok)
    return ok, fails


def check_transform_resultant(prog, workload, seed, questions, ok, log):
    """Res(f o L) = det(L)^(d_1...d_n) * Res(f) on the workload's first system."""
    q = next(q for q in questions if not q.degenerate)
    rng = random.Random(f"{workload}:{seed}:transform")
    n = len(q.degrees)
    code, out, _ = prog.cli_run(["resultant", "--field", q.field, "--system", q.path])
    if code != 0:
        log(f"note: Res(f o L) not checked, resultant exited {code}")
        return
    res = value(kv(out)["res"], q.p)
    for _ in range(3):
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det_l = ref.det(L, q.p)
        if not det_l:
            continue
        polys = [ref.compose(f, L, q.p) for f in q.polys]
        path = q.path[:-4] + "-transformed.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.system_text("transformed", q.degrees, polys))
        code, out, _ = prog.cli_run(["resultant", "--field", q.field, "--system", path])
        if code == 0:
            want = det_l ** len(q.mset) * res
            ok(value(kv(out)["res"], q.p) == (want % q.p if q.p else want),
               f"{q.name}: Res(f o L) != det(L)^bezout Res(f)")
            return
    log("note: Res(f o L) not checked, every transformed system hit EvaluationDegenerate")


def check_reference(ok):
    """The reference on its own: M0 is a basis of a power system, and a set
    holding both 1 and x_1^d_1 (= b^d_1 in the quotient) is not."""
    for degrees, p in (((2, 2, 2), None), ((3, 2, 2), inputs.P_BIG)):
        n = len(degrees)
        shifts = [2] * n
        polys = [{tuple(d if j == i else 0 for j in range(n)): 1, (0,) * n: -(2**d)}
                 for i, d in enumerate(degrees)]
        roots = inputs.power_roots(degrees, shifts, p)
        m0 = inputs.m0_set(degrees)
        top = tuple(d - 1 for d in degrees)
        bad = [m for m in m0 if m != top] + [tuple(degrees[0] if j == 0 else 0 for j in range(n))]
        ok(ref.is_basis(polys, degrees, m0, p), f"reference: M0 of power system {degrees} not a basis")
        ok(ref.reduce(ref.root_det(m0, roots, p), p) != 0, f"reference: det[m(zeta)] = 0 on M0 {degrees}")
        ok(not ref.is_basis(polys, degrees, bad, p), f"reference: set with x1^d1 is a basis {degrees}")
        ok(ref.reduce(ref.root_det(bad, roots, p), p) == 0, f"reference: det[m(zeta)] != 0 with x1^d1 {degrees}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-inputs", metavar="DIR", default=None)
    args = ap.parse_args(argv)

    if not args.write_inputs and not os.path.isfile(os.path.join(SRC, "monobasis", "__init__.py")):
        print(f"bench: no monobasis sources under {SRC}", file=sys.stderr)
        return 2
    questions, identities, stats = inputs.draw(args.workload, args.seed)
    if args.write_inputs:
        inputs.write(questions, identities, args.write_inputs)
        with open(os.path.join(args.write_inputs, "questions.txt"), "w", encoding="utf-8") as fh:
            for q in questions:
                fh.write(f"{os.path.basename(q.path)}\t{q.field}\t{q.kind}\t{q.monomials}\n")
        print(f"wrote {len(questions)} questions and {len(identities)} identity systems "
              f"to {args.write_inputs} ({stats})")
        return 0

    sys.path.insert(0, SRC)
    log = lambda msg: print(msg, flush=True)
    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    try:
        return run(args, questions, identities, stats, workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setups(questions, identities, workdir, count):
    """``count`` fresh set-ups: their times, each scaled by the host speed
    sampled just before and after it, and the program of the last."""
    times = []
    for _ in range(count):
        shutil.rmtree(workdir, ignore_errors=True)
        pace = hostspeed.Pace()
        pace.keep_up(SETUP_SAMPLES_S)
        t, prog = setup(questions, identities, workdir)
        pace.keep_up(2 * SETUP_SAMPLES_S)
        times.append(t * pace.scale())
    return times, prog


def run(args, questions, identities, stats, workdir, log) -> int:
    setups, prog = timed_setups(questions, identities, workdir, SETUPS_BEFORE)
    log(f"workload={args.workload} seed={args.seed} questions={len(questions)} "
        f"identity_calls={len(identities)} "
        + "".join(f"{k}={v} " for k, v in sorted(stats.items())) +
        f"python={platform.python_version()} nproc={os.cpu_count()}")

    setup_rss = current_rss_mib()
    layer = None
    if args.trace:
        t0 = time.perf_counter()
        base, base_scale, _ = one_pass(prog, questions, identities)
        import spans

        tracer = spans.Tracer()
        tracer.install()
        per_pass = []
        try:
            times, scales, outputs, same = run_passes(
                prog, questions, identities, max(args.seconds - (time.perf_counter() - t0), 0),
                on_pass=lambda: per_pass.append(tracer.take()))
        finally:
            tracer.uninstall()
        layer = {}
        for m in list(spans.SELF_TIMES) + list(spans.COUNTS):
            vals = [spans.layer_metrics(s)[m] for s in per_pass]
            if m in spans.SELF_TIMES:
                vals = [v * c for v, c in zip(vals, scales)]
            layer[m] = statistics.median(vals)
        traced = statistics.median(sum(t.values()) * c for t, c in zip(times, scales))
        untraced = sum(base.values()) * base_scale
        log(f"trace overhead: traced pass {traced:.4f} s vs untraced pass "
            f"{untraced:.4f} s ({100 * (traced / untraced - 1):+.1f}%), scaled")
        times.insert(0, base)
        write_spans(args, per_pass)
    else:
        def between(share):
            nonlocal prog
            due = SETUPS_BEFORE + round(SETUPS_BETWEEN * share) - len(setups)
            if due > 0:
                more, prog = timed_setups(questions, identities, workdir, due)
                setups.extend(more)
            return prog

        times, scales, outputs, same = run_passes(prog, questions, identities, args.seconds,
                                                  between=between)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"peak rss {peak:.2f} MiB, {peak - setup_rss:.2f} MiB above the rss after set-up")

    t_check = time.perf_counter()
    ok, fails = check_all(prog, args.workload, args.seed, questions, identities, outputs, log)
    ok(same, "the passes did not all print the same answers")
    t_check = time.perf_counter() - t_check
    attempted = failed_total = 0
    per_kind = {}
    for kind, out in outputs:
        per_kind.setdefault(kind, [0, 0])
        per_kind[kind][0] += len(times)
        if failed(kind, out):
            per_kind[kind][1] += len(times)
    for kind in OP_KINDS:
        if kind in per_kind:
            a, f = per_kind[kind]
            attempted += a
            failed_total += f
            names = ", ".join(f"{n} x{fails[kind].count(n)}" for n in sorted(set(fails[kind])))
            log(f"ops {kind}: attempted={a} failed={f}" + (f" ({names} per pass)" if names else ""))
    for e in ok.errors:
        log(f"CHECK FAILED: {e}")
    log(f"checks: {ok.count - len(ok.errors)} of {ok.count} passed in {t_check:.1f} s")
    setups += timed_setups(questions, identities, workdir, SETUP_REPEATS - len(setups))[0]

    if layer is None:
        metrics = {m: statistics.median(t[m] * c for t, c in zip(times, scales)) for m in PHASES}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = peak
        log(f"setups (scaled)=[{', '.join(f'{t:.4f}' for t in setups)}]")
        log(f"passes={len(times)} measured " + " ".join(
            f"{m}=[{', '.join(f'{t[m]:.4f}' for t in times)}]" for m in PHASES))
        log(f"host-speed scale per pass=[{', '.join(f'{c:.3f}' for c in scales)}]")
        log("measured medians: " + " ".join(
            f"{m}={statistics.median(t[m] for t in times):.4f}" for m in PHASES))
        report = {m: {"value": metrics[m], "unit": UNITS[m]} for m in END_TO_END}
    else:
        log(f"passes={len(times)} (1 untraced, {len(times) - 1} traced)")
        report = {m: {"value": v, "unit": "s" if m.endswith("_s") else "count"}
                  for m, v in layer.items()}
    for m, r in report.items():
        log(f"{m} = {r['value']:.6g} {r['unit']}")
    print(json.dumps({"correct": not ok.errors, "attempted": attempted,
                      "failed": failed_total, "metrics": report}))
    return 0 if not ok.errors else 1


def current_rss_mib():
    """Resident memory of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def write_spans(args, per_pass):
    """Write the traced passes' spans as JSON lines: [pass, name, start_ns, end_ns, parent]."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans_ in enumerate(per_pass):
            for name, start, end, parent, _ in spans_:
                fh.write(json.dumps([k, name, start, end, parent]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
