"""Spans around the public functions of each monobasis layer.

Loaded only by a traced run (``--trace 1``); untraced runs never import
this module.  Each wrapped name is patched in every monobasis module that
holds it (``detcomplex.select_nonzero_maximal_minor``,
``certify.resultant_macaulay``, ...), and methods are patched on their
class.  A span is [name, start_ns, end_ns, parent index, counts]; self
time is the span's duration minus that of its child spans.
"""
from __future__ import annotations

import sys
import time

# (module, attribute): every wrapped callable.
TARGETS = (
    ("cli", "load_system"),
    ("cli", "parse_monomial_list"),
    ("cli", "parse_poly"),
    ("polynomials", "PolySystem.homogenized"),
    ("polynomials", "PolySystem.leading_forms"),
    ("resultants", "resultant_macaulay"),
    ("subresultants", "subresultant_delta"),
    ("subresultants", "subresultant_D"),
    ("koszul", "build_complex"),
    ("detcomplex", "decompose_ascending"),
    ("detcomplex", "decompose_descending"),
    ("linalg", "select_nonzero_maximal_minor"),
    ("linalg", "Matrix.det"),
    ("linalg", "Matrix.rank"),
    ("linalg", "Matrix.solve"),
    ("linalg", "Matrix.submatrix"),
    ("certify", "factorize_delta"),
    ("certify", "multiplication_matrix"),
    ("certify", "vandermonde_verify"),
    ("rootsystems", "power_system"),
)

# per-layer time metric -> the spans whose self time it sums
SELF_TIMES = {
    "cli.parse_s": ("load_system", "parse_monomial_list", "parse_poly"),
    "polynomials.homogenize_s": ("PolySystem.homogenized", "PolySystem.leading_forms"),
    "resultants.resultant_s": ("resultant_macaulay",),
    "subresultants.subresultant_s": ("subresultant_delta", "subresultant_D"),
    "koszul.build_s": ("build_complex",),
    "detcomplex.decompose_s": ("decompose_ascending", "decompose_descending"),
    "linalg.select_minor_s": ("select_nonzero_maximal_minor",),
    "linalg.det_s": ("Matrix.det",),
    "linalg.rank_s": ("Matrix.rank",),
    "linalg.solve_s": ("Matrix.solve",),
    "linalg.submatrix_s": ("Matrix.submatrix",),
    "certify.factor_s": ("factorize_delta",),
    "certify.mulmat_s": ("multiplication_matrix",),
    "certify.vandermonde_s": ("vandermonde_verify",),
    "rootsystems.power_system_s": ("power_system",),
}

COUNTS = (
    "resultants.resultant_calls",
    "resultants.det_calls",
    "koszul.entries",
    "koszul.nonzeros",
    "linalg.select_minor_calls",
    "linalg.select_minor_entries",
    "linalg.det_calls",
    "linalg.rank_entries",
)

def _matrix_entries(args, result):
    return {"entries": args[0].nrows * args[0].ncols}


def _complex_size(args, result):
    entries = nonzeros = 0
    for d in result.differentials:
        entries += d.nrows * d.ncols
        nonzeros += sum(1 for row in d.rows for e in row if e)
    return {"entries": entries, "nonzeros": nonzeros}


_COUNTERS = {
    "build_complex": _complex_size,
    "select_nonzero_maximal_minor": _matrix_entries,
    "Matrix.rank": _matrix_entries,
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    # counting is a child span, so it leaves the self time alone
                    c = self._open("_count")
                    self.spans[idx][4] = counter(args, result)
                    self._close(c)
                return result
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "monobasis" or n.startswith("monobasis.")]
        for modname, attr in TARGETS:
            owner = sys.modules[f"monobasis.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(attr, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched = []

    def take(self):
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans) -> dict:
    """Per-layer self times (s) and counts of one pass."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = {}
    calls = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        calls[name] = calls.get(name, 0) + 1

    def total(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    def inside_resultant(i):
        while i >= 0:
            if spans[i][0] == "resultant_macaulay":
                return True
            i = spans[i][3]
        return False

    out = {m: sum(self_ns.get(n, 0) for n in names) / 1e9 for m, names in SELF_TIMES.items()}
    out.update({
        "resultants.resultant_calls": calls.get("resultant_macaulay", 0),
        "resultants.det_calls": sum(
            1 for i, s in enumerate(spans) if s[0] == "Matrix.det" and inside_resultant(s[3])
        ),
        "koszul.entries": total("build_complex", "entries"),
        "koszul.nonzeros": total("build_complex", "nonzeros"),
        "linalg.select_minor_calls": calls.get("select_nonzero_maximal_minor", 0),
        "linalg.select_minor_entries": total("select_nonzero_maximal_minor", "entries"),
        "linalg.det_calls": calls.get("Matrix.det", 0),
        "linalg.rank_entries": total("Matrix.rank", "entries"),
    })
    return out
