"""Quasi-probability simulation of a covariant HPTP map from its CPTP decomposition.

An ``AffineDecomposition``  lambda_plus * plus - lambda_minus * minus  is a
signed mixture with weights (lambda_plus, -lambda_minus).  Drawing channel
i with probability |w_i| / L, L = lambda_plus + lambda_minus, and
reweighting its exact expectation by L * sign(w_i) estimates
Tr[m(rho) (O1 (x) O2)]  without bias, each draw bounded by
L * ||O1 (x) O2||_inf -- so L (the "overhead") is the simulation cost of
virtuality, and it bounds the map's diamond norm, as channels have norm
one.  The sampler accepts a split only when both weights are non-negative
and not both zero, and both parts share their dimensions and are covariant
and CPTP within ``HP_TOL``.  Each expectation is read off a part's six
coefficients against six trace invariants of (rho, O1, O2), in
standard-library arithmetic.
"""

from __future__ import annotations

import math

from .densemat import Rng, _csum, check_density, is_hermitian_rows, rows_of
from .mcstats import SamplingEstimate
from .supermap import HP_TOL, AffineDecomposition, SuperMap


def _trace(a: list, b: list | None = None) -> complex:
    """Tr a, or Tr ab, for matrices as rows."""
    if b is None:
        return _csum(row[i] for i, row in enumerate(a))
    return _csum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))


def _invariants(rho: list, o1: list, o2: list) -> list[complex]:
    """Tr[term (O1 (x) O2)] for each ``S3`` term of a covariant map at rho, in ``S3`` order.

    The terms send rho to Tr[rho] I, Tr[rho] SWAP, rho (x) I, I (x) rho, (I (x) rho) SWAP and (rho (x) I) SWAP,
    so the six are Tr rho Tr O1 Tr O2, Tr rho Tr O1O2, Tr rhoO1 Tr O2, Tr O1 Tr rhoO2, Tr rhoO1O2, Tr rhoO2O1.
    """
    r1, r2 = ([[_csum(x * y for x, y in zip(row, col)) for col in zip(*o)] for row in rho] for o in (o1, o2))
    t, t1, t2 = _trace(rho), _trace(o1), _trace(o2)
    return [t * t1 * t2, t * _trace(o1, o2), _trace(r1) * t2, t1 * _trace(r2), _trace(r1, o2), _trace(r2, o1)]


def _expectation(m: SuperMap, invariants: list[complex]) -> float:
    """Re Tr[m(rho) (O1 (x) O2)]: a covariant m's coefficients against ``invariants``."""
    return math.fsum((x * t).real for x, t in zip(m.coeffs, invariants))


def _value_table(dec: AffineDecomposition, rho, o1, o2) -> tuple[float, list[float], list[float]]:
    """(exact, values, probabilities): the single-draw distribution of the estimator.

    rho, O1 and O2 are Operators or rows, rho a state and O1, O2 Hermitian,
    all d x d.  A draw picks component i with probability |w_i| / L and
    contributes L sign(w_i) times its exact expectation.  A split the
    sampler does not accept (see the module docstring) raises ValueError.
    """
    lp, lm = float(dec.lambda_plus), float(dec.lambda_minus)
    if not (lp >= 0 and lm >= 0):
        raise ValueError(f"decomposition weights must be non-negative, got {lp} and {lm}")
    if lp + lm == 0:
        raise ValueError("all-zero weights cannot represent a map")
    plus, minus = dec.map_plus, dec.map_minus
    if (plus.d_in, plus.d_out) != (minus.d_in, minus.d_out):
        raise ValueError("decomposition parts have different dimensions")
    for part, name in ((plus, "plus"), (minus, "minus")):
        if part.coeffs is None:
            raise ValueError(f"the sampler reads covariant components, but map_{name} is not covariant")
        if not (part.is_cp() and part.is_tp()):
            raise ValueError(f"decomposition {name}-part is not CPTP within HP_TOL = {HP_TOL:g}")
    target = dec.combined()
    d, rho, o1, o2 = target.d_in, rows_of(rho), rows_of(o1), rows_of(o2)
    check_density(rho, d)
    if not all(len(o) == d and is_hermitian_rows(o) for o in (o1, o2)):
        raise ValueError(f"observables must be Hermitian {d}x{d} matrices")
    invariants = _invariants(rho, o1, o2)
    l1 = lp + lm
    values = [l1 * _expectation(plus, invariants), -l1 * _expectation(minus, invariants)]
    return _expectation(target, invariants), values, [lp / l1, lm / l1]


def estimate_with_trace(
    dec: AffineDecomposition, rho, o1, o2, n: int, rng: Rng, n_checkpoints: int = 20
) -> tuple[SamplingEstimate, list[tuple[int, float, float]]]:
    """Unbiased estimate of Tr[dec.combined()(rho) (O1 (x) O2)] from n channel draws.

    Each draw contributes the exact expectation of the drawn component, so
    the only sampling noise is that of the signed mixture.  Also returns
    running (n, mean, stderr) rows at ``n_checkpoints`` evenly spaced draw
    counts.  The components are (lambda_plus, plus) and (-lambda_minus,
    minus), in that order, and a split the sampler does not accept raises
    ValueError before any draw.

    A segment between checkpoints is drawn as its count of the first value,
    one ``Rng.binomial`` draw, and the running mean and stderr are read off
    the counts: the cost does not grow with n.
    """
    if n < 2 or n_checkpoints < 1:
        raise ValueError(f"need at least 2 draws and 1 checkpoint, got {n} and {n_checkpoints}")
    exact, vals, probs = _value_table(dec, rho, o1, o2)
    marks = sorted({max(2, (n * (k + 1)) // n_checkpoints) for k in range(n_checkpoints)})
    rows, done, first = [], 0, 0
    for m in marks:
        first += rng.binomial(m - done, probs[0])
        done, counts = m, (first, m - first)
        mean = math.fsum(c * v for c, v in zip(counts, vals)) / m
        var = math.fsum(c * (v - mean) ** 2 for c, v in zip(counts, vals)) / (m - 1)
        rows.append((m, mean, (var / m) ** 0.5))
    final = SamplingEstimate(mean=rows[-1][1], stderr=rows[-1][2], n=n, exact=exact)
    return final, rows


def write_trace_csv(fp, rows: list[tuple[int, float, float]]):
    """CSV rows (n, running_mean, running_stderr)."""
    fp.write("n,running_mean,running_stderr\n")
    for m, mean, se in rows:
        fp.write(f"{m},{mean!r},{se!r}\n")
