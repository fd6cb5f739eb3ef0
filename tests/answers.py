#!/usr/bin/env python3
"""The CLI's answers to the benchmark's seed-1 calls, as text.

    python tests/answers.py SRC > answers.txt

draws and writes the seed-1 inputs of the three workloads with
``bench/inputs.py`` (``draw`` and ``write``, which only draw and write
them), imports ``monobasis`` from the source root SRC, and prints the
stdout and exit code of ``basis-check --oracle``, ``resultant`` and
``subresultant`` for every question, and of every ``factor``, ``mulmat``
and ``vandermonde-verify`` identity call, its arguments built by
``bench/run.py``'s ``identity_argv``; all run in-process through
``cli.main``.  ``mulmat`` reaches ``Matrix.solve``.  For every
``vandermonde-transformed`` call, a transformed power system with its
roots, it prints each field of the ``VandermondeReport`` that
``certify.vandermonde_verify`` returns, as ``key=repr(value)``, the
system read by ``cli.load_system`` as the benchmark reads it.  Last it
prints the stdout, stderr and exit code of ``basis-check`` on one (2,2)
system over Q and over F_101 for each of a fixed list of ``--monomials``
spellings, some accepted and some rejected, so that the monomial-list
grammar, values and error messages are compared too, and the stdout and
exit code of ``basis-check --oracle``, ``resultant``, ``subresultant`` and
``mulmat`` on one (2,2,2) system with fractional coefficients and its set
M0, over Q and over F_101, so that Koszul rows whose denominators are not
1 are compared as well, and each field of the report of
``vandermonde_verify`` on one transformed (2,2,2) power system with f_i
divided by 2, 3 and 5, over Q and over F_101, so that equations whose
coefficients have denominators other than 1 are evaluated at roots too.
A change that should move no answer must leave this text as it was:

    python tests/answers.py base/src > base.txt
    python tests/answers.py src > head.txt
    diff base.txt head.txt
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("q-dense", "fp-dense", "sparse-cli")
IDENTITY_CALLS = ("factor", "mulmat", "vandermonde-verify")
SYSTEM22 = "degrees: 2,2\nx1^2 - x2 - 1\nx2^2 + 3*x1*x2 - 2\n"
# no coefficient denominator is divisible by 101
SYSTEM222 = ("degrees: 2,2,2\nx1^2 - 1/2*x2 + 2/3*x3 - 1\n1/5*x2^2 + 3/4*x1*x3 - 2\n"
             "2/7*x3^2 - x1*x2 + 5/3*x1 + 1/2\n")
M0_222 = "1,x1,x2,x3,x1*x2,x1*x3,x2*x3,x1*x2*x3"
# accepted, read directly or by the polynomial parser, then rejected; N
# stands for a number one digit past the interpreter's int-string limit
SPELLINGS = (
    "1,x1,x2,x1*x2",
    " 1 , x1 , x2 , x2 * x1 ",
    "x1^0,x1 ^ 1,x2^001,x1*x2",
    "x2*x2,x1,x2,1",
    "1*x1,1,x2,x1*x2",
    "2/2*x1,1,x2,x1*x2",
    "x1 + x2 - x2,1,x2,x1*x2",
    "1,x1,x1*x1,x1^3",
    "1,x1,x2,x3",
    "1,x1,x2,x1^",
    "1,x1,x2,x1**x2",
    "1,2*x1,x2,x1*x2",
    "1,x1,,x2",
    "x0,x1,x2,x1*x2",
    "1,x1,x2,x1*x2,",
    "1,x1,x2,x1^2/3",
    "1,x1,x2,x1*x2 + 1",
    "1,x1,x2,x1 x2",
    "1,x1,x1,x2",
    "1,x1,x2,xN",
    "1,x1,x2,x1^N",
)


def answer(cli, argv, stderr=False) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = f"{out.getvalue()}stderr={err.getvalue()!r}\n" if stderr else out.getvalue()
    return f"{shown}exit={code}\n"


def report(monobasis, system, roots, M) -> str:
    """The report of ``vandermonde_verify`` on a system, its roots and a
    set, one ``key=repr(value)`` line per field."""
    try:
        rep = monobasis.vandermonde_verify(system, roots, M)
    except monobasis.AlgebraError as exc:
        return f"error={type(exc).__name__}: {exc}\n"
    return "".join(f"{f.name}={getattr(rep, f.name)!r}\n" for f in dataclasses.fields(rep))


def transformed(monobasis, ident) -> str:
    """The report on a benchmark's transformed power system, as it reads it."""
    field = monobasis.field_from_spec(f"fp:{ident.p}" if ident.p else "q")
    system = monobasis.cli.load_system(ident.path, field)
    roots = [tuple(field.of(x) for x in z) for z in ident.roots]
    return report(monobasis, system, roots, monobasis.MonomialSet(ident.mset))


def scaled(monobasis, field) -> str:
    """The report on x_i^2 - b_i^2, b = (1, 2, 3), composed with x -> L x,
    det L = -3, and f_i divided by 2, 3 and 5, with its set M0."""
    system, roots = monobasis.power_system(field, (2, 2, 2), [1, 2, 3])
    L = monobasis.Matrix(field, [[1, 2, 0], [0, 1, -1], [2, 0, 1]])
    system = monobasis.linear_transform(system, L)
    polys = [f * Fraction(1, c) for f, c in zip(system.polys, (2, 3, 5))]
    return report(monobasis, monobasis.PolySystem(polys, system.degrees),
                  monobasis.transform_roots(roots, L), monobasis.m0_set((2, 2, 2)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    import monobasis
    from monobasis import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "monobasis") + os.sep):
        print(f"monobasis imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import inputs
    from run import identity_argv

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            questions, identities, _ = inputs.draw(workload, 1)
            inputs.write(questions, identities, os.path.join(tmp, workload))
            for q in questions:
                system = ["--field", q.field, "--system", q.path]
                for command in (
                    ["basis-check", "--oracle", *system, "--monomials", q.monomials],
                    ["resultant", *system],
                    ["subresultant", *system, "--monomials", q.monomials],
                ):
                    print(f"# {workload} {os.path.basename(q.path)} {q.field} {q.kind} {command[0]}")
                    sys.stdout.write(answer(cli, command))
            for ident in identities:
                name = os.path.basename(ident.path) if ident.system else "-"
                field = f"fp:{ident.p}" if ident.p else "q"
                print(f"# {workload} {name} {field} identity {ident.kind}")
                if ident.kind in IDENTITY_CALLS:
                    sys.stdout.write(answer(cli, identity_argv(ident)))
                else:
                    sys.stdout.write(transformed(monobasis, ident))
        path = os.path.join(tmp, "system22.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SYSTEM22)
        long = "9" * (sys.get_int_max_str_digits() + 1)
        for field in ("q", "fp:101"):
            for monomials in SPELLINGS:
                print(f"# spellings {field} {monomials!r}")
                argv = ["basis-check", "--field", field, "--system", path,
                        "--monomials", monomials.replace("N", long)]
                sys.stdout.write(answer(cli, argv, stderr=True))
        path = os.path.join(tmp, "system222.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SYSTEM222)
        for field in ("q", "fp:101"):
            system = ["--field", field, "--system", path]
            for command in (
                ["basis-check", "--oracle", *system, "--monomials", M0_222],
                ["resultant", *system],
                ["subresultant", *system, "--monomials", M0_222],
                ["mulmat", *system, "--monomials", M0_222, "--g", "x1 + 1/3*x2*x3"],
            ):
                print(f"# fractional (2,2,2) {field} {command[0]}")
                sys.stdout.write(answer(cli, command))
    for field in (monobasis.QQ, monobasis.GF(101)):
        print(f"# scaled transformed (2,2,2) {field.name} vandermonde")
        sys.stdout.write(scaled(monobasis, field))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
