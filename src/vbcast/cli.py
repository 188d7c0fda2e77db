"""Command-line interface: verify / diamond / sample / dump.

Reports are single JSON documents with a versioned schema (``SCHEMA``),
deterministic for a fixed (flags, seed) pair -- the wall-clock timestamp
is the only field that varies between identical runs.  Exit codes:
0 success, 1 verification failure, 2 operational error (bad arguments,
unreadable files, solver non-convergence, or numpy missing where a command
reaches dense work).  The JSON Schema of each report is in
``tests/report_schemas.py``.

A ``diamond`` report's ``witness`` is the unit input vector vec A of its
lower bound, as two row-major lists ``re`` and ``im`` of d^2 floats each;
the bound is the trace norm of (id (x) m)(vec A vec A^dag).

This module also owns the Choi JSON layout of a map, ``{d_in, d_out, choi}``
with the Choi as ``{rows, cols, re, im}``: ``_supermap_doc`` writes it for
``dump`` and ``_read_supermap`` reads it back for ``diamond --target file:``.
The reader checks the lists with the standard library and returns a Choi
that ``match_covariant`` reproduces exactly as its six coefficients, so a
covariant ``file:`` target takes the closed-form bracket with no numpy;
any other Choi comes back dense.  The writer takes the covariant and
pattern maps that ``dump`` names and lays them out by equality pattern
(``supermap.pattern_positions``), with no ndarray; the report writer
``_dumps`` is standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

# One BLAS thread.  No matrix a command decomposes exceeds d^3 x d^3 = 216 x 216
# (--dim <= 6; the dense diamond ADMM works on three such blocks).  A second
# thread can shorten the larger products, such as the d = 6 moment blocks of
# sample --object M, but it spends CPU time spinning after every call, and the
# order of threaded reductions would make seeded reports depend on the core
# count.  Set before numpy loads BLAS; a thread count the caller chose wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, _lazy

# Each layer runs its code when a command first reads from it (``vbcast._lazy``);
# sot and mcstats are bound so that the benchmark's span tracer finds them; its vars() read runs each layer.
np = _lazy("numpy")
densemat = _lazy("vbcast.densemat")
supermap = _lazy("vbcast.supermap")
broadcast = _lazy("vbcast.broadcast")
diamond = _lazy("vbcast.diamond")
hovm = _lazy("vbcast.hovm")
qsample = _lazy("vbcast.qsample")
mcstats = _lazy("vbcast.mcstats")
sot = _lazy("vbcast.sot")

# Report schema version; bumped whenever a report's fields or the verify battery change.
SCHEMA = 10

# diamond's one settable tolerance (``--tol sdp=VAL``), and the gates a verify report lists:
# every residual verify reads is exact, so each of its checks passes only at 0.0.
DEFAULT_TOLERANCES = {"sdp": 1e-5}
VERIFY_TOLERANCES = {"axioms": 0.0, "eigenvalues": 0.0, "spectral": 0.0, "theorem3": 0.0}


class CliError(Exception):
    """Operational error: ``main`` prints its message and exits 2."""


class RunConfig(NamedTuple):
    """Run parameters shared by every command, as ``main`` validated them; ``tolerances`` are the command's gates."""

    dim: int
    seed: int
    tolerances: dict
    out: str | None
    fmt: str


def _meta(cfg: RunConfig, command: str) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "dim": cfg.dim,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# Written in place of an infinite value: JSON has no token for one.
_UNBOUNDED = 1e300
_NAN_ERROR = "the report holds a NaN, which JSON cannot represent; no report written"


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, with each ``_Indexed`` taken as its values.

    The indented layout is written here, and the document's parts are
    gathered in one list and joined once.  An ``_Indexed`` part is written
    from its values: each is formatted once, and each innermost row of their
    strings is joined, so a covariant Choi, with at most 203 nonzero
    patterns, costs at most 204 ``repr`` calls, not one per entry.
    No report holds a token that is not JSON: +-inf is written as +-1e300,
    and a NaN raises CliError.  The writer is standard library only; an
    ndarray raises TypeError, as in ``json.dumps``.
    """
    parts = []
    _write(obj, "", parts)
    return "".join(parts)


class _Indexed(NamedTuple):
    """An array of floats as its values and nested rows of indices into them.

    ``_dumps`` writes it as the nested list of the values the rows index.
    ``_map_operator_doc`` lays a covariant or pattern map out in it, one
    value per nonzero pattern.
    """

    values: list
    rows: list


def _write(obj, pad: str, parts: list):
    inner = pad + "  "
    if isinstance(obj, _Indexed):  # ahead of the tuples, which it is one of
        _write_rows(obj.rows, [repr(_finite(x)) for x in obj.values], pad, parts)
    elif isinstance(obj, dict) and obj:
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            parts.append(f"{sep}{json.dumps(key)}: ")
            _write(value, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n" + inner
        for value in obj:
            parts.append(sep)
            _write(value, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + pad + "]")
    else:
        parts.append(json.dumps(_finite(obj)))


def _write_rows(rows: list, tokens: list[str], pad: str, parts: list):
    """Nested rows of indices into ``tokens``, written as the nested JSON list of those tokens."""
    inner = pad + "  "
    if not rows:
        parts.append("[]")
    elif isinstance(rows[0], int):
        parts.append("[\n" + inner + (",\n" + inner).join(map(tokens.__getitem__, rows)) + "\n" + pad + "]")
    else:
        sep = "[\n" + inner
        for row in rows:
            parts.append(sep)
            _write_rows(row, tokens, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + pad + "]")


def _finite(x):
    """x with +-inf as +-1e300; a NaN raises CliError.  A float's JSON token is its ``repr``."""
    if not isinstance(x, float) or math.isfinite(x):
        return x
    if math.isnan(x):
        raise CliError(_NAN_ERROR)
    return math.copysign(_UNBOUNDED, x)


def _map_operator_doc(m: supermap.SuperMap, jamiolkowski: bool = False) -> dict:
    """The Choi of a covariant or pattern m, or its Jamiolkowski operator, as {rows, cols, re, im}.

    Each part is ``_Indexed``, laid out from ``pattern_floats`` with no
    ndarray: index 0 is 0j, and the ``pattern_positions`` of each nonzero
    pattern take that pattern's own index.  J's labels are the Choi's with
    the last one first, (in', out1, out2; in, out1', out2') for six, so the
    Jamiolkowski operator holds each value at the positions of the rotated
    pattern, renumbered.
    """
    n = m.d_in * m.d_out
    values, rows = [0j], [[0] * n for _ in range(n)]
    for pattern, value in supermap.pattern_floats(m).items():
        if jamiolkowski:
            pattern = supermap.pattern_of(pattern[-1:] + pattern[:-1])
        for pos in supermap.pattern_positions(m.d_in, pattern):
            rows[pos // n][pos % n] = len(values)
        values.append(value)
    re, im = [v.real for v in values], [v.imag for v in values]
    return {"rows": n, "cols": n, "re": _Indexed(re, rows), "im": _Indexed(im, rows)}


# The Python types of a JSON number as ``json`` loads it.
_JSON_NUMBERS = {int, float}


def _supermap_doc(m: supermap.SuperMap) -> dict:
    """A map as {d_in, d_out, choi}: ``dump`` writes this layout and ``diamond --target file:`` reads it back."""
    return {"d_in": m.d_in, "d_out": m.d_out, "choi": _map_operator_doc(m)}


def _read_supermap(doc) -> supermap.SuperMap:
    """The map of a loaded ``_supermap_doc``; a malformed document raises KeyError, TypeError or ValueError.

    The Choi's ``re`` and ``im`` are checked as lists first: ``rows`` lists
    of ``cols`` finite JSON numbers each.  A d^3 x d^3 Choi of a map
    d -> d^2, d >= 2, that ``match_covariant`` reproduces exactly comes back
    as its six coefficients, with no ndarray and no numpy; any other Choi is
    built as an ndarray from the checked lists.
    """
    for field in ("d_in", "d_out"):
        if type(doc[field]) is not int or doc[field] < 1:  # a JSON true loads as a bool, which is an int
            raise ValueError(f"{field} must be a positive integer, got {json.dumps(doc[field])}")
    d_in, d_out, choi = doc["d_in"], doc["d_out"], doc["choi"]
    re, im = choi["re"], choi["im"]
    for part in (re, im):
        if type(part) is not list or len(part) != choi["rows"] or any(
            type(row) is not list or len(row) != choi["cols"] for row in part
        ):
            raise ValueError("operator JSON has inconsistent dimensions")
    for row in (*re, *im):
        if not set(map(type, row)) <= _JSON_NUMBERS:  # a JSON true is a bool, "0.5" a str: neither is a number
            bad = next(x for x in row if type(x) not in _JSON_NUMBERS)
            raise ValueError(f"choi entries must be JSON numbers, got {json.dumps(bad)}")
        try:
            finite = all(map(math.isfinite, row))  # Python's json loads NaN, Infinity and -Infinity
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise ValueError("choi entries must be finite, got NaN or Infinity")
    if d_in >= 2 and d_out == d_in * d_in and choi["rows"] == choi["cols"] == d_in**3:
        m = supermap.match_covariant(d_in, re, im)
        if m is not None:
            return m
    choi = densemat.Operator(np.array(re, dtype=float) + 1j * np.array(im, dtype=float))
    return supermap.SuperMap(d_in, d_out, choi)


def _emit_json(cfg: RunConfig, doc: dict):
    _write_text(cfg.out, _dumps(doc) + "\n")


def _write_text(out: str | None, text: str):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fp:
            fp.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from None


def _status(ok: bool, name: str, detail: str = ""):
    mark = " ok " if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"[{mark}] {name}{suffix}", file=sys.stderr)


# ---------------------------------------------------------------------------
# object registry


# Largest |lambda| of B_lambda.  Every verify and dump value is finite up to 1e307 at
# d = 2..6; from 9e307 the exact permutation residual 2|lambda| is past the float range,
# where check_axioms raises OverflowError rather than return inf.  The bound keeps seven
# orders of magnitude of margin.
_MAX_LAMBDA = 1e300


def _parse_lambda(name: str) -> float:
    try:
        lam = float(name.split(":", 1)[1])
    except (IndexError, ValueError):
        raise CliError(f"cannot parse lambda from {name!r}; expected B_lambda:<float>") from None
    if not abs(lam) <= _MAX_LAMBDA:  # also false for NaN
        raise CliError(f"lambda must be finite with |lambda| <= {_MAX_LAMBDA:g}, got {name!r}")
    return lam


# The named constructors of dump, sample and verify.  Each entry reads its
# constructor from the layer when called, so the registry runs no layer's code
# and a wrapper bound over that name (the benchmark's span tracer) sees the
# construction.
OBJECTS = {
    "B": lambda d: broadcast.canonical_b(d),
    "B+": lambda d: broadcast.cloner(d),
    "B-": lambda d: broadcast.antisym(d),
    "B_cl": lambda d: broadcast.classical_bcl(d),
    "D": lambda d: broadcast.decoherence(d),
    "M": lambda d: hovm.exact_mp_map(d),
    "Mprime": lambda d: hovm.depolarizing_mp(d),
}


def build_object(name: str, d: int) -> supermap.SuperMap:
    """The map ``name`` at dimension d: a key of ``OBJECTS`` or ``B_lambda:<x>``."""
    if name in OBJECTS:
        return OBJECTS[name](d)
    if name.startswith("B_lambda:"):
        return broadcast.family_b_lambda(d, _parse_lambda(name))
    raise CliError(f"unknown object {name!r}; valid names: {', '.join(OBJECTS)}, B_lambda:<x>")


# ---------------------------------------------------------------------------
# verify


def _eigenvalue_residual(m: supermap.SuperMap) -> float:
    """Largest |v - w| over m's descending Choi spectrum and the paper's for B, paired; inf if m is not HP."""
    d = m.d_in  # B's Choi has (d + 1)/2 d times, 0 d^3 - 2d times and -(d - 1)/2 d times (arXiv:2310.13049)
    return supermap.spectral_distance(m, [(d + 1, d), (0, d**3 - 2 * d), (1 - d, d)], 2) if m.is_hp() else math.inf


def _verify_axioms(b: supermap.SuperMap, cfg: RunConfig):
    values = broadcast.check_axioms(b)._asdict()
    worst = max(values, key=values.get)
    return values[worst] == 0.0, values, f"worst: {worst} = {values[worst]:.3e}"


def _verify_uniqueness(b: supermap.SuperMap, cfg: RunConfig):
    cert = broadcast.verify_uniqueness(cfg.dim)
    ok = cert.nullity == 0 and cert.candidate_residual == 0.0
    values = {
        "nullity": float(cert.nullity),
        "rank": float(cert.rank),
        "unknowns": float(cert.unknowns),
        "candidate_residual": cert.candidate_residual,
        "constraint_rows": float(cert.constraint_rows),
    }
    return ok, values, f"nullity={cert.nullity} residual={cert.candidate_residual:.3e}"


def _verify_spectral(b: supermap.SuperMap, cfg: RunConfig):
    d = cfg.dim  # the paper's form of B: ((d + 1) B+ - (d - 1) B-) / 2
    dec_res = (b - (broadcast.cloner(d) * (d + 1) - broadcast.antisym(d) * (d - 1)) / 2).choi_absmax()
    values = {"decomposition_residual": dec_res, "eigenvalue_residual": _eigenvalue_residual(b)}
    return not any(values.values()), values, f"residual={dec_res:.3e}"


def _verify_theorem3(b: supermap.SuperMap, cfg: RunConfig):
    t3_res = hovm.verify_theorem3(b)
    values = {"residual": t3_res, "weight": hovm.theorem3_weight(b.d_in)}
    return t3_res == 0.0, values, f"residual={t3_res:.3e}"


# The verification battery, in report order; each check returns (pass, values, status detail).
VERIFY_CHECKS = (
    ("broadcast_axioms", _verify_axioms),
    ("uniqueness", _verify_uniqueness),
    ("spectral_decomposition", _verify_spectral),
    ("theorem3", _verify_theorem3),
)


def cmd_verify(cfg: RunConfig, target: str = "B") -> int:
    """Run the full verification battery against a broadcaster target."""
    b = build_object(target, cfg.dim)
    if b.d_out != cfg.dim**2:
        raise CliError(f"target {target!r} is not a broadcaster (d -> d^2)")
    checks = []
    for name, check in VERIFY_CHECKS:
        ok, values, detail = check(b, cfg)
        checks.append({"name": name, "pass": bool(ok), "skipped": None, "values": values})
        _status(ok, name, detail)

    failing = [c["name"] for c in checks if not c["pass"]]
    doc = _meta(cfg, "verify")
    doc.update({"target": target, "pass": not failing, "checks": checks})
    _emit_json(cfg, doc)

    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# diamond


def _resolve_diamond_target(cfg: RunConfig, target: str) -> supermap.SuperMap:
    d = cfg.dim
    if target == "B":
        return broadcast.canonical_b(d)
    if target == "B-minus-Bplus":
        return broadcast.canonical_b(d) - broadcast.cloner(d)
    path = target.removeprefix("file:")
    if not os.path.exists(path):
        raise CliError(f"diamond target {target!r} is neither B, B-minus-Bplus, nor a readable file")
    try:
        with open(path) as fp:
            m = _read_supermap(json.load(fp))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load supermap from {path}: {exc}") from None
    if m.d_in != d:
        raise CliError(f"diamond target {target!r} has input dimension {m.d_in}, but --dim is {d}")
    return m


def cmd_diamond(cfg: RunConfig, target: str = "B") -> int:
    """Certified diamond-norm bracket of a named map or a Choi JSON file."""
    m = _resolve_diamond_target(cfg, target)
    try:
        result = diamond.diamond_bracket(m, cfg.tolerances["sdp"])
    except ValueError as exc:
        raise CliError(f"diamond target {target!r}: {exc}") from None
    doc = _meta(cfg, "diamond")
    doc.update(target=target, **result._asdict(), gap=result.gap)
    doc["witness"] = {"re": [x.real for x in result.witness], "im": [x.imag for x in result.witness]}
    _emit_json(cfg, doc)

    bounds = (
        f"value={result.value:.6f} lower={result.lower_bound:.6f} "
        f"upper={result.upper_bound:.6f} gap={result.gap:.3e}"
    )
    if not result.converged:
        message = f"SDP did not converge within {result.iterations} iterations"
        if result.iterations == 0:  # no ADMM ran: the tolerance is below what any certificate can reach
            tol, floor = cfg.tolerances["sdp"], diamond.gap_floor(m, result.lower_bound, result.upper_bound)
            message = f"--tol sdp={tol:g} is below the bracket's rounding floor {floor:.3e}; no SDP run"
        print(f"{message} ({bounds})", file=sys.stderr)
        return 2
    _status(True, "diamond", bounds)
    return 0


# ---------------------------------------------------------------------------
# sample


_PAULI = {
    "i": [[1, 0], [0, 1]],
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
}


def _parse_observables(obs: str, d: int, rng: densemat.Rng) -> tuple[list, list]:
    if obs == "random":
        return densemat.random_hermitian_rows(d, rng), densemat.random_hermitian_rows(d, rng)
    if len(obs) == 2 and all(c in _PAULI for c in obs):
        if d != 2:
            raise CliError(f"Pauli observable {obs!r} needs --dim 2, got {d}")
        return _PAULI[obs[0]], _PAULI[obs[1]]
    raise CliError(f"--obs must be two of i/x/y/z or 'random', got {obs!r}")


# Monte-Carlo blocks of the measure-and-prepare pipeline; each needs 2 samples.
MP_BLOCKS = 10


def cmd_sample(cfg: RunConfig, n: int = 10000, observable: str | None = None, object_name: str = "B") -> int:
    """Quasi-probability (object B) or measure-and-prepare (object M) sampling.

    ``observable`` defaults to ``zz`` for object B; object M estimates a
    whole matrix and takes none.
    """
    if n < 2:
        raise CliError(f"--n must be at least 2, got {n}")
    d = cfg.dim
    rho = densemat.random_density_rows(d, densemat.Rng(cfg.seed, 10))

    if object_name == "B":
        observable = "zz" if observable is None else observable
        o1, o2 = _parse_observables(observable, d, densemat.Rng(cfg.seed, 11))
        b, rng = broadcast.canonical_b(d), densemat.Rng(cfg.seed, 12)
        est, rows, l1_overhead = qsample.estimate_with_trace(b, rho, o1, o2, n, rng)
        write_csv = qsample.write_trace_csv
        z = est.zscore()
        result = dict(mean=est.mean, stderr=est.stderr, exact=est.exact, l1_overhead=l1_overhead, zscore=z)
        detail = f"mean={est.mean:.6f} exact={est.exact:.6f} z={z:.2f}"
    elif object_name == "M":
        if observable is not None:
            raise CliError("--obs applies to --object B only; --object M estimates the whole output matrix")
        if n < 2 * MP_BLOCKS:
            raise CliError(f"--object M needs --n of at least {2 * MP_BLOCKS} ({MP_BLOCKS} blocks of 2), got {n}")
        rng = densemat.Rng(cfg.seed, 12)
        rows = hovm.sample_mp_blocks(densemat.Operator(rho), d, n, n_blocks=MP_BLOCKS, rng=rng)
        final = rows[-1][1]
        write_csv = hovm.write_sampling_csv
        observable = "zz"  # unused by M; kept so the report layout stays fixed
        z = final.max_zscore()
        result = {"max_zscore": z, "n_blocks": float(MP_BLOCKS)}
        detail = f"max_z={z:.2f} over {final.n} samples"
    else:
        raise CliError(f"sampling supports --object B or M, got {object_name!r}")

    if cfg.fmt == "csv":
        buf = io.StringIO()
        write_csv(buf, rows)
        _write_text(cfg.out, buf.getvalue())
    else:
        doc = _meta(cfg, "sample")
        doc.update({"object": object_name, "observable": observable, "n": n, "result": result})
        _emit_json(cfg, doc)
    _status(True, "sample", detail)
    return 0


# ---------------------------------------------------------------------------
# dump


def cmd_dump(cfg: RunConfig, object_name: str) -> int:
    """Write Choi/Jamiolkowski JSON of a named constructor."""
    m = build_object(object_name, cfg.dim)
    doc = _meta(cfg, "dump")
    doc.update(object=object_name, supermap=_supermap_doc(m), jamiolkowski=_map_operator_doc(m, jamiolkowski=True))
    doc["eigenvalues"] = m.spectrum() if m.is_hp() else []
    _emit_json(cfg, doc)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parse_tol(pairs: list[str]) -> dict:
    """diamond's default tolerances with each NAME=VALUE pair applied."""
    out = dict(DEFAULT_TOLERANCES)
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--tol expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise CliError(f"--tol {name} needs a numeric value, got {raw!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"--tol {name} must be finite and positive, got {raw!r}")
        if name not in DEFAULT_TOLERANCES:
            raise CliError(f"unknown tolerance {name!r}; known: {sorted(DEFAULT_TOLERANCES)}")
        out[name] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbcast", description="Virtual broadcasting maps: verification and sampling."
    )
    parser.add_argument("--version", action="version", version=f"vbcast {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--dim", type=int, default=2, help="system dimension (2-6)")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", default=None, choices=["json", "csv"])

    p = sub.add_parser("verify", help="run the verification battery")
    common(p)
    p.add_argument("--target", default="B", help="broadcaster to verify (default B)")

    p = sub.add_parser("diamond", help="certified diamond-norm bracket")
    common(p)
    p.add_argument("--target", default="B", help="B, B-minus-Bplus, or a supermap JSON path")
    p.add_argument("--tol", action="append", default=[], metavar="sdp=VAL", help="bracket gap tolerance")

    p = sub.add_parser("sample", help="sampling pipelines")
    common(p)
    p.add_argument("--object", dest="object_name", default="B", help="B (quasi-prob) or M (Haar MC)")
    p.add_argument("--n", type=int, default=10000, help="number of samples")
    p.add_argument("--obs", default=None, help="two Pauli letters or 'random' (object B only; default zz)")

    p = sub.add_parser("dump", help="write Choi/Jamiolkowski JSON of a named map")
    common(p)
    p.add_argument("--object", dest="object_name", required=True, help="named constructor")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.fmt == "csv" and args.cmd != "sample":
            raise CliError(f"--format csv is only supported by sample; {args.cmd} writes JSON")
        fmt = args.fmt if args.fmt is not None else ("csv" if args.cmd == "sample" else "json")
        tolerances = VERIFY_TOLERANCES if args.cmd == "verify" else {}
        if args.cmd == "diamond":
            tolerances = _parse_tol(args.tol)
        if not 2 <= args.dim <= 6:
            raise CliError(f"--dim must be between 2 and 6, got {args.dim}")
        if args.seed < 0:
            raise CliError(f"--seed must be a non-negative integer, got '{args.seed}'")
        cfg = RunConfig(dim=args.dim, seed=args.seed, tolerances=tolerances, out=args.out, fmt=fmt)
        if args.cmd == "verify":
            return cmd_verify(cfg, target=args.target)
        if args.cmd == "diamond":
            return cmd_diamond(cfg, target=args.target)
        if args.cmd == "sample":
            return cmd_sample(cfg, n=args.n, observable=args.obs, object_name=args.object_name)
        if args.cmd == "dump":
            return cmd_dump(cfg, object_name=args.object_name)
        raise CliError(f"unknown command {args.cmd!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # a dense path reached numpy where it is not installed (``vbcast._lazy``)
        if exc.name != "numpy":
            raise
        print(f"error: {args.cmd} needs numpy here, which is not installed; install vbcast[dense]", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
