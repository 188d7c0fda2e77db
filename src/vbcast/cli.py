"""Command-line interface: verify / diamond / sample / dump.

Reports are single JSON documents with a versioned schema (``SCHEMA``),
deterministic for a fixed (flags, seed) pair -- the wall-clock timestamp
is the only field that varies between identical runs.  Exit codes:
0 success, 1 verification failure, 2 operational error (bad arguments,
unreadable files, solver non-convergence).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .densemat import Operator, Rng, eigh, random_density, random_hermitian
from .supermap import AffineDecomposition, SuperMap
from .broadcast import (
    antisym,
    canonical_b,
    canonical_decomposition,
    check_axioms,
    classical_bcl,
    cloner,
    decoherence,
    family_b_lambda,
    verify_uniqueness,
)
from .diamond import diamond_bracket, hptp_upper
from .hovm import (
    depolarizing_mp, exact_mp_map, sample_mp_blocks, theorem3_weight, verify_theorem3, write_sampling_csv
)
from .qsample import estimate_with_trace, write_trace_csv
from .sot import check_sot_axioms

# Report schema version; bumped whenever a report's fields or the verify battery change.
SCHEMA = 5

DEFAULT_TOLERANCES = {
    "axioms": 1e-10,
    "uniqueness_residual": 1e-8,
    "spectral": 1e-10,
    "eigenvalues": 1e-8,
    "theorem3": 1e-10,
    "sdp": 1e-5,
}


class CliError(Exception):
    """Operational error; carries the process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Validated run parameters shared by every command."""

    dim: int = 2
    seed: int = 0
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not 2 <= self.dim <= 6:
            raise CliError(f"--dim must be between 2 and 6, got {self.dim}")
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise CliError(f"unknown tolerance {name!r}; known: {sorted(DEFAULT_TOLERANCES)}")
        self.tolerances = {**DEFAULT_TOLERANCES, **self.tolerances}


# ---------------------------------------------------------------------------
# report schemas (JSON Schema; the tests validate reports against them)


_BOOL = {"type": "boolean"}
_INT = {"type": "integer"}
_NUM = {"type": "number"}
_STR = {"type": "string"}
_NUMBERS = {"type": "object", "additionalProperties": _NUM}


def _record(**fields) -> dict:
    """JSON Schema of an object that holds exactly ``fields``, each required."""
    return {"type": "object", "properties": fields, "required": list(fields), "additionalProperties": False}


_OPERATOR = _record(rows=_INT, cols=_INT, re={"type": "array"}, im={"type": "array"})
_META = dict(
    schema={"const": SCHEMA}, version=_STR, command=_STR, dim=_INT, seed=_INT, tolerances=_NUMBERS, timestamp=_STR
)

REPORT_SCHEMAS = {
    "verify": _record(
        **_META,
        target=_STR,
        **{"pass": _BOOL},
        checks={
            "type": "array",
            "items": _record(name=_STR, **{"pass": _BOOL}, skipped={"type": "null"}, values=_NUMBERS),
        },
    ),
    "diamond": _record(
        **_META,
        target=_STR,
        value=_NUM,
        lower_bound=_NUM,
        upper_bound=_NUM,
        gap=_NUM,
        iterations=_INT,
        converged=_BOOL,
        witness_state=_OPERATOR,
    ),
    "sample": _record(**_META, object=_STR, observable=_STR, n=_INT, result=_NUMBERS),
    "dump": _record(
        **_META,
        object=_STR,
        supermap=_record(d_in=_INT, d_out=_INT, choi=_OPERATOR),
        jamiolkowski=_OPERATOR,
        eigenvalues={"type": "array", "items": _NUM},
    ),
}


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


_JSON_SCALARS = {float, int, bool, str, type(None)}

# Written in place of an infinite value: JSON has no token for one.
_UNBOUNDED = 1e300


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for string-keyed dicts of finite values.

    The indented layout is written here and every flat list of scalars goes
    to the C encoder in one call, because ``indent`` alone would force the
    pure-Python encoder onto every matrix entry.  No report holds a token
    that is not JSON: +-inf is written as +-1e300, and a NaN raises CliError.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _JSON_SCALARS:
            body = _encode(obj, (",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_dumps(x, inner) for x in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return _encode(obj)


def _encode(obj, separators=None) -> str:
    """One scalar or flat list of scalars; the values are scanned only when one is not finite."""
    try:
        return json.dumps(obj, separators=separators, allow_nan=False)
    except ValueError:
        values = [_finite(x) for x in obj] if isinstance(obj, (list, tuple)) else _finite(obj)
        return json.dumps(values, separators=separators)


def _finite(x):
    if not isinstance(x, float) or math.isfinite(x):
        return x
    if math.isnan(x):
        raise CliError("the report holds a NaN, which JSON cannot represent; no report written")
    return math.copysign(_UNBOUNDED, x)


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


def _parse_lambda(name: str) -> float:
    try:
        lam = float(name.split(":", 1)[1])
    except (IndexError, ValueError):
        raise CliError(f"cannot parse lambda from {name!r}; expected B_lambda:<float>") from None
    if not math.isfinite(lam):
        raise CliError(f"lambda must be finite, got {name!r}")
    return lam


# The named constructors of dump, sample and verify.  Each entry reads the
# module-level name when called, so a wrapper bound over that name (the
# benchmark's span tracer) sees the construction.
OBJECTS = {
    "B": lambda d: canonical_b(d),
    "B+": lambda d: cloner(d),
    "B-": lambda d: antisym(d),
    "B_cl": lambda d: classical_bcl(d),
    "D": lambda d: decoherence(d),
    "M": lambda d: exact_mp_map(d),
    "Mprime": lambda d: depolarizing_mp(d),
}


def build_object(name: str, d: int) -> SuperMap:
    """The map ``name`` at dimension d: a key of ``OBJECTS`` or ``B_lambda:<x>``."""
    if name in OBJECTS:
        return OBJECTS[name](d)
    if name.startswith("B_lambda:"):
        return family_b_lambda(d, _parse_lambda(name))
    raise CliError(f"unknown object {name!r}; valid names: {', '.join(OBJECTS)}, B_lambda:<x>")


# ---------------------------------------------------------------------------
# verify


# Hermiticity gate of a Choi whose spectrum a report holds.
_HP_TOL = 1e-8


def _choi_spectrum(m: SuperMap) -> np.ndarray | None:
    """Descending eigenvalues of m's Choi, or None when m is not Hermitian-preserving."""
    if not m.is_hp(_HP_TOL):
        return None
    return eigh(m.choi, _HP_TOL)[0]


def _expected_spectrum(d: int) -> np.ndarray:
    vals = [(d + 1) / 2] * d + [0.0] * (d**3 - 2 * d) + [-(d - 1) / 2] * d
    return np.array(sorted(vals, reverse=True))


def _verify_axioms(b: SuperMap, cfg: RunConfig):
    rep = check_axioms(b)
    values = asdict(rep)
    worst = max(values, key=values.get)
    return rep.passes(cfg.tolerances["axioms"]), values, f"worst: {worst} = {values[worst]:.3e}"


def _verify_uniqueness(b: SuperMap, cfg: RunConfig):
    cert = verify_uniqueness(cfg.dim)
    ok = cert.nullity == 0 and cert.candidate_residual < cfg.tolerances["uniqueness_residual"]
    values = {
        "nullity": float(cert.nullity),
        "candidate_residual": cert.candidate_residual,
        "singular_value_gap": cert.singular_value_gap,
        "constraint_rows": float(cert.constraint_rows),
    }
    return ok, values, f"nullity={cert.nullity} residual={cert.candidate_residual:.3e}"


def _verify_spectral(b: SuperMap, cfg: RunConfig):
    d = cfg.dim
    dec_res = (b.choi - canonical_decomposition(d).combined().choi).absmax()
    vals = _choi_spectrum(b)
    eig_res = float("inf") if vals is None else float(np.abs(vals - _expected_spectrum(d)).max())
    ok = dec_res < cfg.tolerances["spectral"] and eig_res < cfg.tolerances["eigenvalues"]
    values = {"decomposition_residual": dec_res, "eigenvalue_residual": eig_res}
    return ok, values, f"residual={dec_res:.3e}"


def _verify_theorem3(b: SuperMap, cfg: RunConfig):
    t3_res = verify_theorem3(b)
    values = {"residual": t3_res, "weight": theorem3_weight(b.d_in)}
    return t3_res < cfg.tolerances["theorem3"], values, f"residual={t3_res:.3e}"


def _verify_sot_axioms(b: SuperMap, cfg: RunConfig):
    values = asdict(check_sot_axioms(b))
    del values["broadcasting"]  # reported once, under broadcast_axioms
    worst = max(values.values())
    return worst < cfg.tolerances["axioms"], values, f"max={worst:.3e}"


# The verification battery, in report order; each check returns (pass, values, status detail).
VERIFY_CHECKS = (
    ("broadcast_axioms", _verify_axioms),
    ("uniqueness", _verify_uniqueness),
    ("spectral_decomposition", _verify_spectral),
    ("theorem3", _verify_theorem3),
    ("sot_axioms", _verify_sot_axioms),
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


def _resolve_diamond_target(cfg: RunConfig, target: str) -> tuple[SuperMap, float | None]:
    d = cfg.dim
    if target == "B":
        return canonical_b(d), hptp_upper(canonical_decomposition(d))
    if target == "B-minus-Bplus":
        m = canonical_b(d) - cloner(d)
        half = (d - 1) / 2
        return m, hptp_upper(AffineDecomposition(half, half, cloner(d), antisym(d)))
    path = target.removeprefix("file:")
    if not os.path.exists(path):
        raise CliError(f"diamond target {target!r} is neither B, B-minus-Bplus, nor a readable file")
    try:
        with open(path) as fp:
            m = SuperMap.from_json(json.load(fp))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load supermap from {path}: {exc}") from None
    if m.d_in != d:
        raise CliError(f"diamond target {target!r} has input dimension {m.d_in}, but --dim is {d}")
    return m, None


def cmd_diamond(cfg: RunConfig, target: str = "B") -> int:
    """Certified diamond-norm bracket of a named map or a Choi JSON file."""
    m, upper = _resolve_diamond_target(cfg, target)
    try:
        result = diamond_bracket(m, cfg.tolerances["sdp"], upper=upper)
    except ValueError as exc:
        raise CliError(f"diamond target {target!r}: {exc}") from None
    doc = _meta(cfg, "diamond")
    doc.update(target=target, **result.to_json())
    _emit_json(cfg, doc)

    bounds = (
        f"value={result.value:.6f} lower={result.lower_bound:.6f} "
        f"upper={result.upper_bound:.6f} gap={result.gap:.3e}"
    )
    if not result.converged:
        print(f"SDP did not converge within {result.iterations} iterations ({bounds})", file=sys.stderr)
        return 2
    _status(True, "diamond", bounds)
    return 0


# ---------------------------------------------------------------------------
# sample


_PAULI = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def _parse_observables(obs: str, d: int, rng: Rng) -> tuple[Operator, Operator]:
    if obs == "random":
        return random_hermitian(d, rng), random_hermitian(d, rng)
    if len(obs) == 2 and all(c in _PAULI for c in obs):
        if d != 2:
            raise CliError(f"Pauli observable {obs!r} needs --dim 2, got {d}")
        return Operator(_PAULI[obs[0]]), Operator(_PAULI[obs[1]])
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
    rho = random_density(d, Rng(cfg.seed, 10))

    if object_name == "B":
        observable = "zz" if observable is None else observable
        dec = canonical_decomposition(d)
        o1, o2 = _parse_observables(observable, d, Rng(cfg.seed, 11))
        est, rows = estimate_with_trace(dec, rho, o1, o2, n, Rng(cfg.seed, 12))
        write_csv = write_trace_csv
        result = dict(
            mean=est.mean, stderr=est.stderr, exact=est.exact, l1_overhead=hptp_upper(dec), zscore=est.zscore()
        )
        detail = f"mean={est.mean:.6f} exact={est.exact:.6f} z={est.zscore():.2f}"
    elif object_name == "M":
        if observable is not None:
            raise CliError("--obs applies to --object B only; --object M estimates the whole output matrix")
        if n < 2 * MP_BLOCKS:
            raise CliError(f"--object M needs --n of at least {2 * MP_BLOCKS} ({MP_BLOCKS} blocks of 2), got {n}")
        rows = sample_mp_blocks(rho, d, n, n_blocks=MP_BLOCKS, rng=Rng(cfg.seed, 12))
        final = rows[-1][1]
        write_csv = write_sampling_csv
        observable = "zz"  # unused by M; kept so the report layout stays fixed
        result = {"max_zscore": final.max_zscore(), "n_blocks": float(MP_BLOCKS)}
        detail = f"max_z={final.max_zscore():.2f} over {final.n} samples"
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
    vals = _choi_spectrum(m)
    doc = _meta(cfg, "dump")
    doc.update(object=object_name, supermap=m.to_json(), jamiolkowski=m.jamiolkowski().to_json())
    doc["eigenvalues"] = [] if vals is None else vals.tolist()
    _emit_json(cfg, doc)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parse_tol(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--tol expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            out[name] = float(raw)
        except ValueError:
            raise CliError(f"--tol {name} needs a numeric value, got {raw!r}") from None
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
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VAL")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", default=None, choices=["json", "csv"])

    p = sub.add_parser("verify", help="run the verification battery")
    common(p)
    p.add_argument("--target", default="B", help="broadcaster to verify (default B)")

    p = sub.add_parser("diamond", help="certified diamond-norm bracket")
    common(p)
    p.add_argument("--target", default="B", help="B, B-minus-Bplus, or a supermap JSON path")

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
        cfg = RunConfig(dim=args.dim, seed=args.seed, tolerances=_parse_tol(args.tol), out=args.out, fmt=fmt)
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
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
