"""Command lists of the three benchmark workloads and the checks on their outputs.

Each workload is a fixed list of ``vbcast`` CLI invocations, run in order
by one client (a closed loop).  The workload seed is passed to every
command as ``--seed``; the command list itself does not depend on it.
Every command writes its report to a file under the run's output
directory, and ``check_command`` compares that file against the paper's
closed forms:

* ``verify``: B passes every check; the deformed ``B_lambda:0.3`` exits 1
  and its permutation residual is out of gate.
* ``diamond``: ||B||<> = d and ||B - B+||<> = d - 1 (value and lower bound
  within 1e-4, upper bound exactly); a Choi file target has
  lower <= value + 1e-4.
* ``sample``: z-scores under 5 against Re Tr[rho O1 O2] for B, and against
  M(rho) = (B(rho) - (1 - p) I/d^2) / p for the measure-and-prepare map.
* ``dump``: the Choi spectrum of B is {(d+1)/2 x d, 0 x (d^3-2d),
  -(d-1)/2 x d}, and the Choi of M matches its closed form.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify", "bracket", "sample")

# Tolerances of the output checks; the diamond agreement is the one the
# README documents for SDP, ascent and decomposition bounds.
DIAMOND_TOL = 1e-4
SPECTRUM_TOL = 1e-8
CHOI_TOL = 1e-10
MAX_Z = 5.0

# The deformed broadcaster whose Choi JSON is the bracket workload's file target.
FILE_TARGET_OBJECT = "B_lambda:0.3"
FILE_TARGET_DIM = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv (after ``vbcast``), report path and expected exit code."""

    name: str
    argv: tuple[str, ...]
    out: str
    expect_rc: int = 0


def file_target_path(out_dir: str) -> str:
    return os.path.join(out_dir, "b_lambda_d4_supermap.json")


def file_target_setup_argv(out_dir: str, seed: int) -> list[str]:
    """The dump whose ``supermap`` part becomes the bracket workload's Choi file."""
    return [
        "dump", "--dim", str(FILE_TARGET_DIM), "--seed", str(seed),
        "--object", FILE_TARGET_OBJECT, "--out", os.path.join(out_dir, "file_target_dump.json"),
    ]


def write_file_target(out_dir: str):
    with open(os.path.join(out_dir, "file_target_dump.json")) as fp:
        doc = json.load(fp)
    with open(file_target_path(out_dir), "w") as fp:
        json.dump(doc["supermap"], fp)


def commands(workload: str, seed: int, out_dir: str) -> list[Command]:
    """The ordered command list of one pass of ``workload``."""
    cmds: list[Command] = []

    def add(name, args, fmt="json", expect_rc=0):
        out = os.path.join(out_dir, f"{name}.{fmt}")
        argv = (*args, "--seed", str(seed), "--format", fmt, "--out", out)
        cmds.append(Command(name, argv, out, expect_rc))

    if workload == "certify":
        for d in (2, 3, 4, 5, 6):
            add(f"verify_B_d{d}", ("verify", "--dim", str(d), "--target", "B"))
        add("verify_B_lambda_d2", ("verify", "--dim", "2", "--target", "B_lambda:0.3"), expect_rc=1)
    elif workload == "bracket":
        for d in (2, 3, 4, 5, 6):
            add(f"diamond_B_d{d}", ("diamond", "--dim", str(d), "--target", "B"))
        for d in (3, 4):
            add(f"diamond_BmBp_d{d}", ("diamond", "--dim", str(d), "--target", "B-minus-Bplus"))
        add(
            "diamond_file_d4",
            ("diamond", "--dim", str(FILE_TARGET_DIM), "--target", "file:" + file_target_path(out_dir)),
        )
    elif workload == "sample":
        add("sample_B_d2_zz", ("sample", "--dim", "2", "--object", "B", "--obs", "zz", "--n", "2000000"), "csv")
        add("sample_B_d6_random", ("sample", "--dim", "6", "--object", "B", "--obs", "random", "--n", "2000000"))
        add("sample_M_d3", ("sample", "--dim", "3", "--object", "M", "--n", "100000"), "csv")
        add("sample_M_d6", ("sample", "--dim", "6", "--object", "M", "--n", "50000"))
        add("dump_B_d6", ("dump", "--dim", "6", "--object", "B"))
        add("dump_M_d6", ("dump", "--dim", "6", "--object", "M"))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return cmds


# ---------------------------------------------------------------------------
# closed forms


def _arg(cmd: Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def b_output(rho: np.ndarray) -> np.ndarray:
    """B(rho) = (1/2){rho (x) I, SWAP}."""
    d = rho.shape[0]
    a = np.kron(rho, np.eye(d))
    s = swap_matrix(d)
    return (a @ s + s @ a) / 2


def theorem3_weight(d: int) -> float:
    return 4.0 * (d + 1) / (d + 2) ** 2


def m_output(rho: np.ndarray) -> np.ndarray:
    """M(rho) from B = p M + (1 - p) M', with M' the depolarizing map to I/d^2."""
    d = rho.shape[0]
    p = theorem3_weight(d)
    return (b_output(rho) - (1 - p) * np.trace(rho) * np.eye(d * d) / d**2) / p


def choi(action, d: int) -> np.ndarray:
    """Output-first Choi sum_ij L(E_ij) (x) E_ij."""
    rows = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0
            rows.append(np.kron(action(e), e))
    return np.sum(rows, axis=0)


def b_spectrum(d: int) -> np.ndarray:
    vals = [(d + 1) / 2] * d + [0.0] * (d**3 - 2 * d) + [-(d - 1) / 2] * d
    return np.array(sorted(vals, reverse=True))


def _operator(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])


def _sample_inputs(d: int, seed: int, random_obs: bool):
    """rho, O1, O2 exactly as ``vbcast sample`` draws them from the seed."""
    from vbcast.densemat import Rng, random_density, random_hermitian

    rho = random_density(d, Rng(seed, 10)).mat
    if not random_obs:
        z = np.diag([1.0, -1.0])
        return rho, z, z
    obs_rng = Rng(seed, 11)
    return rho, random_hermitian(d, obs_rng).mat, random_hermitian(d, obs_rng).mat


# ---------------------------------------------------------------------------
# checks


def check_command(cmd: Command, rc: int, seed: int) -> str | None:
    """None when the command's exit code and report match the closed forms, else why not."""
    if rc != cmd.expect_rc:
        return f"exit code {rc}, expected {cmd.expect_rc}"
    try:
        kind = cmd.argv[0]
        if cmd.out.endswith(".csv"):
            with open(cmd.out, newline="") as fp:
                report = list(csv.DictReader(fp))
        else:
            with open(cmd.out) as fp:
                report = json.load(fp)
        return _CHECKS[kind](cmd, report, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report {cmd.out}: {exc!r}"


def _check_verify(cmd, doc, seed):
    checks = {c["name"]: c for c in doc["checks"]}
    if _arg(cmd, "--target") == "B":
        if doc["pass"] is not True:
            failing = [n for n, c in checks.items() if not c["pass"]]
            return f"B failed checks {failing}"
        return None
    axioms = checks["broadcast_axioms"]
    gate = doc["tolerances"]["axioms"]
    if axioms["pass"] or not axioms["values"]["permutation"] > gate:
        return f"deformed broadcaster passed the permutation axiom: {axioms['values']}"
    return None


def _check_diamond(cmd, doc, seed):
    if not doc["converged"]:
        return "SDP did not converge"
    value, lower, upper = doc["value"], doc["lower_bound"], doc["upper_bound"]
    target = _arg(cmd, "--target")
    if target.startswith("file:"):
        if not lower <= value + DIAMOND_TOL:
            return f"lower bound {lower} above SDP value {value}"
        return None
    d = int(_arg(cmd, "--dim"))
    exact = float(d) if target == "B" else float(d - 1)
    if abs(value - exact) > DIAMOND_TOL or abs(lower - exact) > DIAMOND_TOL:
        return f"value {value} / lower {lower} not within {DIAMOND_TOL} of {exact}"
    if upper != exact:
        return f"upper bound {upper} is not exactly {exact}"
    return None


def value_outside_bracket(doc: dict) -> bool:
    """The reported value lies outside its own [lower, upper] bracket."""
    value, lower, upper = doc["value"], doc["lower_bound"], doc["upper_bound"]
    return value < lower or (upper is not None and value > upper)


def _check_sample(cmd, report, seed):
    d = int(_arg(cmd, "--dim"))
    n = int(_arg(cmd, "--n"))
    obj = _arg(cmd, "--object")
    if obj == "B":
        rho, o1, o2 = _sample_inputs(d, seed, _arg(cmd, "--obs") == "random")
        exact = float(np.real(np.trace(rho @ o1 @ o2)))
        if isinstance(report, list):
            last = report[-1]
            got_n, mean, stderr = int(last["n"]), float(last["running_mean"]), float(last["running_stderr"])
        else:
            res = report["result"]
            got_n, mean, stderr = report["n"], res["mean"], res["stderr"]
            if abs(res["exact"] - exact) > 1e-9:
                return f"reported exact {res['exact']} differs from Re Tr[rho O1 O2] = {exact}"
            if abs(res["l1_overhead"] - d) > 1e-12:
                return f"l1 overhead {res['l1_overhead']} is not d = {d}"
        if got_n != n:
            return f"{got_n} draws reported, {n} requested"
        z = abs(mean - exact) / stderr
        if not z < MAX_Z:
            return f"z-score {z:.2f} against Re Tr[rho O1 O2] = {exact}"
        return None
    if isinstance(report, list):
        last_block = max(int(r["sample_block"]) for r in report)
        rho, _, _ = _sample_inputs(d, seed, False)
        exact = m_output(rho)
        worst = 0.0
        for r in report:
            if int(r["sample_block"]) != last_block:
                continue
            i, j = int(r["entry_row"]), int(r["entry_col"])
            for part, key in ((exact[i, j].real, "re"), (exact[i, j].imag, "im")):
                delta, se = abs(float(r[f"{key}_mean"]) - part), float(r[f"{key}_stderr"])
                z = delta / se if se > 0 else (0.0 if delta < 1e-12 else np.inf)
                worst = max(worst, z)
    else:
        worst = report["result"]["max_zscore"]
        if report["result"]["n_blocks"] != 10:
            return f"{report['result']['n_blocks']} blocks reported, 10 expected"
    if not worst < MAX_Z:
        return f"max z-score {worst:.2f} against the closed form of M(rho)"
    return None


def _check_dump(cmd, doc, seed):
    d = int(_arg(cmd, "--dim"))
    obj = _arg(cmd, "--object")
    got = _operator(doc["supermap"]["choi"])
    if obj == "B":
        vals = np.asarray(doc["eigenvalues"])
        if vals.shape != (d**3,) or np.abs(vals - b_spectrum(d)).max() > SPECTRUM_TOL:
            return "Choi spectrum of B differs from {(d+1)/2 x d, 0 x (d^3-2d), -(d-1)/2 x d}"
        exact = choi(b_output, d)
    else:
        exact = choi(m_output, d)
    err = float(np.abs(got - exact).max())
    if err > CHOI_TOL:
        return f"Choi of {obj} differs from its closed form by {err:.2e}"
    return None


_CHECKS = {"verify": _check_verify, "diamond": _check_diamond, "sample": _check_sample, "dump": _check_dump}
