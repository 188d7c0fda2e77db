"""vbcast benchmark: end-to-end CLI timings per workload, or a traced per-layer breakdown.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, metric table
    python3 bench/record.py --runs 10                       # write bench/baseline.json

With ``--trace 0`` each command of the workload runs in a fresh
``python -m vbcast.cli`` subprocess, so import cost counts, and whole
passes of the command list repeat while the next one is expected to end
within ``--seconds``.  Reported, as medians over passes:

    setup_s      fresh interpreter importing vbcast.cli (median of several)
    wall_s       wall time of the whole command list
    max_cmd_s    wall time of the slowest command (its median over passes)
    cpu_s        user + system CPU time of the child processes
    peak_rss_mb  largest child peak resident set

With ``--trace 1`` the same command list is replayed in this interpreter
through ``vbcast.cli.main``, once untraced and once with every layer
wrapped (see spans.py); the per-layer metrics come from the traced replay
and the difference between the two replays is the tracing overhead.

Every command's report is checked against the paper's closed forms
(workloads.py).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
commands with a wrong exit code or a failed check.  Exit code 2 means the
benchmark could not run (for example, no ``src/vbcast`` next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
CLI = [sys.executable, "-m", "vbcast.cli"]

SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0  # a run never starts another pass past this, whatever --seconds says
COMMAND_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_cmd_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


@dataclass(frozen=True)
class CmdResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


def child_env(blas_threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("VBCAST_THREADS", None)  # recorded in reports but controls nothing
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def run_child(argv: list[str], env: dict, stderr_path: str, timeout: float = COMMAND_TIMEOUT_S) -> CmdResult:
    """Run one child to completion; wall time, rusage CPU and peak RSS of that child alone."""
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CmdResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def measure_setup(env: dict, out_dir: str) -> list[float]:
    """Fresh-interpreter ``import vbcast.cli`` times; one untimed warm-up compiles bytecode."""
    argv = [sys.executable, "-c", "import vbcast.cli"]
    err = os.path.join(out_dir, "setup.stderr")
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = run_child(argv, env, err, timeout=60.0)
        if res.rc != 0:
            with open(err) as fp:
                raise BenchError(f"cannot import vbcast.cli from {SRC}:\n{fp.read()}")
        if i:
            times.append(res.wall_s)
    return times


def prepare(workload: str, seed: int, env: dict, out_dir: str):
    """Workload set-up that is not timed: the bracket workload's Choi file target."""
    if workload != "bracket":
        return
    res = run_child(CLI + W.file_target_setup_argv(out_dir, seed), env, os.path.join(out_dir, "prepare.stderr"))
    if res.rc != 0:
        raise BenchError("dump of the bracket file target failed")
    W.write_file_target(out_dir)


def run_untraced(workload: str, seed: int, seconds: float, blas_threads: int | None) -> dict:
    env = child_env(blas_threads)
    out_dir = make_out_dir(workload, seed)
    try:
        setup = measure_setup(env, out_dir)
        prepare(workload, seed, env, out_dir)
        cmds = W.commands(workload, seed, out_dir)
        passes: list[list[CmdResult]] = []
        failures: list[str] = []
        begin = time.perf_counter()
        while True:
            results = [run_child(CLI + list(c.argv), env, c.out + ".stderr") for c in cmds]
            passes.append(results)
            for c, r in zip(cmds, results):
                why = W.check_command(c, r.rc, seed)
                if why:
                    failures.append(f"pass {len(passes)} {c.name}: {why}")
            elapsed = time.perf_counter() - begin
            expected = statistics.median(sum(r.wall_s for r in p) for p in passes)
            if elapsed + expected > min(seconds, RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "max_cmd_s": max(statistics.median(r.wall_s for r in col) for col in zip(*passes)),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
    }
    for name, col in zip([c.name for c in cmds], zip(*passes)):
        med = statistics.median(r.wall_s for r in col)
        print(f"  {name:22s} {med:8.3f} s  cpu {statistics.median(r.cpu_s for r in col):8.3f} s  "
              f"rss {max(r.rss_mb for r in col):7.1f} MB")
    print(f"  {len(passes)} pass(es), wall per pass: {', '.join(f'{w:.3f}' for w in walls)} s")
    attempted = len(cmds) * len(passes)
    return result(attempted, failures, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


# ---------------------------------------------------------------------------
# traced replay


def import_times(env: dict, out_dir: str) -> tuple[float, float]:
    """(whole ``import vbcast.cli``, ``jsonschema`` alone) in seconds, from ``-X importtime``."""
    err = os.path.join(out_dir, "importtime.stderr")
    res = run_child([sys.executable, "-X", "importtime", "-c", "import vbcast.cli"], env, err, timeout=60.0)
    if res.rc != 0:
        raise BenchError("python -X importtime -c 'import vbcast.cli' failed")
    total = jsonschema = 0.0
    with open(err) as fp:
        for line in fp:
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            seconds = int(fields[1]) / 1e6
            package = fields[2].rstrip("\n")[1:]  # nested imports are indented by two spaces per level
            if package.startswith("vbcast"):
                total += seconds
            if package.strip() == "jsonschema":
                jsonschema = seconds
    return total, jsonschema


def replay(cmds, seed: int, out_dir: str, tracer) -> tuple[float, float, list[str], dict]:
    """Run each command in this interpreter untraced and traced, alternating which goes first.

    Returns (untraced seconds, traced seconds, failures, facts read from the traced reports).
    """
    import vbcast.cli

    failures = []
    facts = {"report_bytes": 0, "verify_checks": 0, "skipped": 0, "diamond_results": 0, "outside": 0}
    seconds = {False: 0.0, True: 0.0}
    with open(os.path.join(out_dir, "replay.stderr"), "w") as err, contextlib.redirect_stderr(err):
        for i, c in enumerate(cmds):
            tracer.command = i
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    start = time.perf_counter()
                    rc = vbcast.cli.main(list(c.argv))
                    seconds[traced] += time.perf_counter() - start
                finally:
                    if traced:
                        tracer.uninstall()
                why = W.check_command(c, rc, seed)
                if why:
                    failures.append(f"{c.name} ({'traced' if traced else 'untraced'}): {why}")
                elif traced:
                    read_facts(c, facts)
    return seconds[False], seconds[True], failures, facts


def read_facts(c, facts: dict):
    """Report sizes, skipped verify checks and diamond bracket violations of one checked report."""
    facts["report_bytes"] += os.path.getsize(c.out)
    if c.argv[0] == "verify":
        with open(c.out) as fp:
            checks = json.load(fp)["checks"]
        facts["verify_checks"] += len(checks)
        facts["skipped"] += sum(1 for ch in checks if ch["skipped"] is not None)
    elif c.argv[0] == "diamond":
        with open(c.out) as fp:
            facts["diamond_results"] += 1
            facts["outside"] += W.value_outside_bracket(json.load(fp))


def run_traced(workload: str, seed: int) -> dict:
    from spans import CALL_COUNTS, GROUPS, MODULES, Tracer

    env = child_env(None)
    out_dir = make_out_dir(workload, seed)
    tracer = Tracer()
    try:
        prepare(workload, seed, env, out_dir)
        import_s, jsonschema_s = import_times(env, out_dir)
        cmds = W.commands(workload, seed, out_dir)
        plain_s, traced_s, failures, facts = replay(cmds, seed, out_dir, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(OUT_ROOT, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, "spans", f"{workload}-seed{seed}.json")
    tracer.write(spans_path)
    print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")

    m: dict[str, tuple[float, str]] = {}
    for name, span in CALL_COUNTS.items():
        m[name] = (tracer.calls(span), "count")
    for name, group in GROUPS.items():
        m[name] = (tracer.group_time(group), "s")
    for name, value in tracer.counts.items():
        m[name] = (value, "MB" if name.endswith("_mb") else "count")
    selfs = tracer.self_times()
    for mod in MODULES:
        m[f"{mod}.self_s"] = (selfs[mod], "s")
    m["broadcast.verify_checks"] = (facts["verify_checks"], "count")
    m["broadcast.uniqueness_skipped"] = (facts["skipped"], "count")
    m["diamond.results"] = (facts["diamond_results"], "count")
    m["diamond.value_outside_bracket"] = (facts["outside"], "count")
    m["diamond.sdp_s_per_iteration"] = (ratio(m["diamond.sdp_s"][0], m["diamond.admm_iterations"][0]), "s")
    m["hovm.mp_samples_per_s"] = (ratio(m["hovm.mp_samples"][0], m["hovm.sample_s"][0]), "1/s")
    m["qsample.draws_per_s"] = (ratio(m["qsample.draws"][0], m["qsample.estimate_s"][0]), "1/s")
    m["cli.import_s"] = (import_s, "s")
    m["cli.jsonschema_import_s"] = (jsonschema_s, "s")
    m["cli.report_bytes"] = (facts["report_bytes"], "bytes")
    m["trace.untraced_s"] = (plain_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")

    ranked = sorted(((v, k) for k, v in selfs.items()), reverse=True)
    print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for v, k in ranked))
    return result(2 * len(cmds), failures, m)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# reporting


def result(attempted: int, failures: list[str], metrics: dict[str, tuple[float, str]]) -> dict:
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  failed_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def make_out_dir(workload: str, seed: int) -> str:
    path = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-pid{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def blas_threads_in_children(env: dict) -> int | None:
    if "OPENBLAS_NUM_THREADS" in env:
        return int(env["OPENBLAS_NUM_THREADS"])
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, blas_threads: int | None) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "vbcast", "*.py"))):
        with open(path, "rb") as fp:
            digest.update(fp.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_children(child_env(blas_threads)),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int | None) -> dict:
    print(f"vbcast benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("provenance " + json.dumps(provenance(workload, seed, blas_threads), sort_keys=True))
    if trace:
        return run_traced(workload, seed)
    return run_untraced(workload, seed, seconds, blas_threads)


def run_all(seed: int, seconds: float, blas_threads: int | None) -> dict:
    """Every workload once, untraced; prints each end-to-end metric by name and unit."""
    runs = {workload: run_one(workload, seed, seconds, False, blas_threads) for workload in W.WORKLOADS}
    print(f"{'workload':10s} {'metric':12s} {'value':>12s} unit")
    for workload, res in runs.items():
        for name, mv in res["metrics"].items():
            print(f"{workload:10s} {name:12s} {mv['value']:12.4f} {mv['unit']}")
        print(f"{workload:10s} {'failed_ratio':12s} {res['failed'] / res['attempted']:12.4f} ratio")
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {w: r["metrics"] for w, r in runs.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="set OPENBLAS_NUM_THREADS for the child processes (reference runs)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            res = run_all(args.seed, args.seconds, args.blas_threads)
        else:
            res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.blas_threads)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "vbcast", "cli.py")):
        print(f"error: no vbcast sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads as W

    sys.exit(main())
