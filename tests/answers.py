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
``cli.main``.  ``mulmat`` reaches ``Matrix.solve``.  A change that should
move no answer must leave this text as it was:

    python tests/answers.py base/src > base.txt
    python tests/answers.py src > head.txt
    diff base.txt head.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("q-dense", "fp-dense", "sparse-cli")
IDENTITY_CALLS = ("factor", "mulmat", "vandermonde-verify")


def answer(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{out.getvalue()}exit={code}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
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
                if ident.kind in IDENTITY_CALLS:
                    name = os.path.basename(ident.path) if ident.system else "-"
                    field = f"fp:{ident.p}" if ident.p else "q"
                    print(f"# {workload} {name} {field} identity {ident.kind}")
                    sys.stdout.write(answer(cli, identity_argv(ident)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
