#!/usr/bin/env python3
"""The CLI's answers to the benchmark's seed-1 questions, as text.

    python tests/answers.py SRC > answers.txt

writes the seed-1 inputs of the three workloads with ``bench/run.py
--write-inputs`` (the benchmark of this checkout, which only draws and
writes them), imports ``monobasis`` from the source root SRC, and prints,
for every question, the stdout and exit code of ``basis-check --oracle``,
``resultant`` and ``subresultant``, run in-process through ``cli.main``.
A change that should move no answer must leave this text as it was:

    python tests/answers.py base/src > base.txt
    python tests/answers.py src > head.txt
    diff base.txt head.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("q-dense", "fp-dense", "sparse-cli")


def questions(workload: str, outdir: str) -> list:
    """(system path, field, kind, monomials) of each seed-1 question."""
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--write-inputs", outdir],
        check=True, stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(outdir, "questions.txt"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return [(os.path.join(outdir, name), field, kind, monos) for name, field, kind, monos in rows]


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
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            outdir = os.path.join(tmp, workload)
            for path, field, kind, monos in questions(workload, outdir):
                system = ["--field", field, "--system", path]
                for command in (
                    ["basis-check", "--oracle", *system, "--monomials", monos],
                    ["resultant", *system],
                    ["subresultant", *system, "--monomials", monos],
                ):
                    print(f"# {workload} {os.path.basename(path)} {field} {kind} {command[0]}")
                    sys.stdout.write(answer(cli, command))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
