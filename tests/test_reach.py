"""Every statement in a ``src/vbcast`` function body runs under some ``vbcast`` command, or ``EXEMPT`` names it.

A child interpreter traces line events (``sys.settrace``) in the frames of
``src/vbcast`` from before ``import vbcast.cli`` on, and runs a fixed
command set through ``main``, each command with its expected exit code:
``verify`` and ``dump`` of every named object at d = 2 and 3 (all but
``B`` fail ``verify``), ``diamond`` on ``B``, on ``B-minus-Bplus``, on the
benchmark's covariant ``file:`` target and on a dense channel difference,
which reaches ADMM, ``sample`` of B and M as CSV and as JSON, and the
CLI's exit paths: a ``--tol`` that parses, one below the covariant
target's one-ulp bracket, a report written to stdout, ``--dim 7``, and
``file:`` targets with a non-number entry and with an integer past the
float range.

The statements are read off the sources with ``ast``: every statement of a
function body but its docstring, nested ones included.  A statement ran
when a line event fell on one of its own lines: all of a simple
statement's, and a compound statement's lines before its first nested
statement.  A ``raise`` is an error exit and needs no command.  Any other
statement that never runs belongs in the tests, unless ``EXEMPT`` names
its ``file:line`` with the reason it stays; an exempt line that runs, or
that no longer starts a statement, fails the test.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import vbcast
from vbcast.cli import OBJECTS, main
from vbcast.densemat import Rng

from dense_maps import dense_sub
from random_fixtures import random_channel
from test_bench_checks import SEED, workloads
from test_cli import _child_env, write_supermap

SRC = os.path.dirname(os.path.abspath(vbcast.__file__))

# The statements that no command runs, by "file:line", each with the reason it stays in ``src/vbcast``.
EXEMPT = {
    "__init__.py:68": "_lazy: a finder that refuses the name; test_bench_checks installs one for numpy",
    "__init__.py:70": "_lazy: a module that is not installed; test_bench_checks refuses numpy",
    "cli.py:155": "_write_rows of an empty list, as json.dumps writes one; every operator a command writes has rows",
    "cli.py:605": "main: a dense path where numpy is not installed; test_bench_checks refuses it",
    "cli.py:607": "main: a dense path where numpy is not installed; test_bench_checks refuses it",
    "cli.py:608": "main: a dense path where numpy is not installed; test_bench_checks refuses it",
    "densemat.py:60": "Operator.__repr__: repr for a reader of the library; no report prints it",
    "densemat.py:166": "Rng.binomial: BTRS draws a k outside [0, n] far less often than once per command",
    "densemat.py:175": "Rng.__repr__: repr for a reader of the library; no report prints it",
    "densemat.py:201": "random_density: bench/workloads.py draws the sample inputs with it",
    "densemat.py:206": "random_hermitian: bench/workloads.py draws the sample observables with it",
    "mcstats.py:37": "MatrixWelford.merge: the n == 0 guard; sample_mp_blocks never merges an empty chunk",
    "supermap.py:223": "SuperMap.__mul__ of a pattern map: no command scales one; test_covariant checks it",
    "supermap.py:234": "SuperMap.__repr__: repr for a reader of the library; no report prints it",
}

# Child code: trace line events in the frames of the directory sys.argv[2] while the argv lists in
# sys.argv[1] run through main, then write the exit codes and the lines as JSON to the path sys.argv[3].
_TRACE = """
import json, os, sys

src, lines = os.path.realpath(sys.argv[2]), set()

def local(frame, event, arg):
    if event == "line":
        lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return local

def trace(frame, event, arg):
    return local if os.path.dirname(os.path.realpath(frame.f_code.co_filename)) == src else None

sys.settrace(trace)
from vbcast.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.settrace(None)
with open(sys.argv[3], "w") as fp:
    json.dump({"codes": codes, "lines": sorted(lines)}, fp)
"""


_NESTED = ("body", "orelse", "finalbody")


def _own_lines(stmt: ast.stmt) -> range:
    """A simple statement's lines, or a compound statement's lines before its first nested statement."""
    nested = [child.lineno for field in _NESTED for child in getattr(stmt, field, ())]
    return range(stmt.lineno, max(min(nested, default=stmt.end_lineno + 1), stmt.lineno + 1))


def _body_statements(body: list):
    """The statements of a body and of each compound statement in it, except clauses' too; not a nested def's body."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # ``_library_statements`` reads a nested function's body as a function body of its own
        for field in _NESTED:
            yield from _body_statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", ()):
            yield from _body_statements(handler.body)


def _library_statements() -> dict:
    """"file:line" -> own lines of each statement in a src/vbcast function body, less docstrings and raises."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fp:
            tree = ast.parse(fp.read(), path)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            for stmt in _body_statements(body):
                if not isinstance(stmt, ast.Raise):
                    found[f"{os.path.basename(path)}:{stmt.lineno}"] = _own_lines(stmt)
    return found


def _command_set(tmp_path) -> list:
    """(argv, exit code) of each command the child runs."""
    dense = tmp_path / "dense.json"
    write_supermap(dense, dense_sub(random_channel(2, 4, Rng(1)), random_channel(2, 4, Rng(2))))
    assert main(workloads.file_target_setup_argv(str(tmp_path), SEED)) == 0  # the bracket workload's set-up
    workloads.write_file_target(str(tmp_path))
    covariant = workloads.file_target_path(str(tmp_path))
    with open(covariant) as fp:
        doc = json.load(fp)
    bad = {}
    for name, entry in (("string", "0.5"), ("huge", 10**400)):
        doc["choi"]["re"][1][2], bad[name] = entry, tmp_path / f"{name}.json"
        bad[name].write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "report")]
    runs = []
    for d in ("2", "3"):
        for name in (*OBJECTS, "B_lambda:0.3"):
            runs.append((["dump", "--dim", d, "--object", name, *out], 0))
            if name != "D":  # D maps d -> d, no broadcaster
                runs.append((["verify", "--dim", d, "--target", name, *out], int(name != "B")))  # only B passes
    for d, target in (("2", "B"), ("2", "B-minus-Bplus"), ("4", f"file:{covariant}"), ("2", f"file:{dense}")):
        runs.append((["diamond", "--dim", d, "--target", target, *out], 0))
    runs += [
        (["sample", "--dim", "3", "--object", "B", "--obs", "random", "--n", "1000", *out], 0),
        (["sample", "--dim", "2", "--object", "B", "--n", "100", "--format", "json", *out], 0),
        # both draws of seed 0 pick one component: a zero stderr, so an infinite z-score, written as 1e300
        (["sample", "--dim", "2", "--object", "B", "--n", "2", "--format", "json", "--seed", "0", *out], 0),
        (["sample", "--dim", "2", "--object", "M", "--n", "40", *out], 0),
        (["sample", "--dim", "2", "--object", "M", "--n", "40", "--format", "json", *out], 0),
        (["diamond", "--dim", "2", "--target", "B", "--tol", "sdp=1e-6", *out], 0),
        # just above the floor of the dense target's final bracket, 6.604e-14: ADMM stalls short of it
        (["diamond", "--dim", "2", "--target", f"file:{dense}", "--tol", "sdp=6.8e-14", *out], 2),
        (["diamond", "--dim", "4", "--target", f"file:{covariant}", "--tol", "sdp=1e-20", *out], 2),
        (["dump", "--dim", "2", "--object", "B"], 0),  # the report goes to stdout
        (["verify", "--dim", "7", *out], 2),
        (["diamond", "--dim", "4", "--target", f"file:{bad['string']}", *out], 2),
        (["diamond", "--dim", "4", "--target", f"file:{bad['huge']}", *out], 2),
    ]
    return runs


def test_every_statement_runs_under_a_command(tmp_path):
    runs = _command_set(tmp_path)
    result = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, "-c", _TRACE, json.dumps([argv for argv, _ in runs]), SRC, str(result)],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(result.read_text())
    assert doc["codes"] == [code for _, code in runs]

    ran = {(name, line) for name, line in doc["lines"]}
    statements = _library_statements()
    never = {key for key, lines in statements.items() if not any((key.split(":")[0], n) in ran for n in lines)}
    assert sorted(never - set(EXEMPT)) == [], "no command runs these statements: move them to the tests or exempt them"
    assert sorted(set(EXEMPT) - never) == [], "these exempt lines run now, or start no statement: drop them from EXEMPT"
