"""Outputs do not depend on the string hash seed.

Run as a script, this module prints the number of documents and one digest
of every command it runs on them: the enumerated documents up to three
saddles with embryo and connection patterns, the zoo and the walked
spheres::

    PYTHONPATH=src python tests/test_hash_seed.py

The test runs it under two values of ``PYTHONHASHSEED`` and compares the
digests, so no iteration over a set or a dict of sets can reach a verdict,
a certificate, an order or an error message unnoticed.
"""

import hashlib
import io
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from charfol import zoo
from charfol.cli import HEADER, emit, main
from conftest import walk_spheres

COMMANDS = (
    ("validate", "--json"),
    ("decide", "--json"),
    ("invariants", "--json"),
    ("tame", "--json"),
    ("oracle", "--json"),
    ("extend",),
    ("render", "--format", "svg"),
)


def digest() -> str:
    sha = hashlib.sha256()

    def step(argv, text=""):
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
        finally:
            sys.stdin = saved
        sha.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        return out.getvalue()

    listing = step(("enumerate", "--max-saddles", "3", "--embryos", "--homoclinics"))
    documents = [HEADER + body for body in listing.split(HEADER)[1:]]
    documents += [emit(zoo.example(name)) for name in sorted(zoo.ZOO)]
    documents += [emit(g) for _, g in walk_spheres()]
    for text in documents:
        for argv in COMMANDS:
            step(argv, text)
    return f"{len(documents)} {sha.hexdigest()}"


def test_outputs_do_not_depend_on_the_hash_seed():
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    digests = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert digests[0] == digests[1]
    assert int(digests[0].split()[0]) > 100


if __name__ == "__main__":
    print(digest())
