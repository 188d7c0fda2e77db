"""Quasi-probability simulation of a covariant HPTP map by the Jordan split of its Choi.

A covariant Choi C commutes with U (x) U (x) Ubar, and so do its positive
and negative parts P and N, so Tr_out P = (Tr P / d) I (Schur).  So an
HPTP map is m = lambda_plus plus - lambda_minus minus with CPTP parts, and
lambda_plus + lambda_minus = ||C||_1 / d = ||m||<>, which no split into
channels (of norm one) undercuts.  ``_jordan_split`` derives it exactly,
in integers; for B it is (d + 1)/2 B+ - (d - 1)/2 B-.  Drawing a part with
probability lambda / L, L = lambda_plus + lambda_minus, and weighting its
exact expectation by +-L estimates Tr[m(rho) (O1 (x) O2)] without bias, so
L, the overhead, is the simulation cost of virtuality.  Each expectation is
a part's six coefficients against six trace invariants of (rho, O1, O2),
in standard-library arithmetic.
"""

from __future__ import annotations

import math

from .broadcast import antisym, cloner
from .densemat import Rng, _csum, check_density, is_hermitian_rows, rows_of
from .mcstats import SamplingEstimate
from .supermap import SuperMap, choi_norm, covariant_blocks, covariant_map


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


def _jordan_split(m: SuperMap) -> tuple[int, int, int, SuperMap, SuperMap]:
    """(lp, lm, den, plus, minus): m = (lp plus - lm minus) / den, the Jordan split of a covariant HPTP m.

    C is a / den on Pi_sym - Q_sym and b / den on Pi_anti - Q_anti, with Pi = (I +- SWAP_12) / 2 and
    Q the Choi of ``cloner`` or ``antisym``.  On E = Q_sym + Q_anti, den C has the eigenvalues
    (s +- sqrt(w)) / 2 (``covariant_blocks``), so by Cayley-Hamilton, with x = s^2 - w,
    den |C_E| = (s den C_E + ((|x| - x) / 4) E) / sqrt(max(s^2, w)), or 0 where that root is.  Then
    P, N = (|C| +- C) / 2 and lambda_plus, lambda_minus = (||C||_1 / d +- 1) / 2 (``choi_norm``, whose
    sqrt(w) term vanishes unless w > s^2 or w is a square); a CP map has lambda_minus = 0 and both parts m.
    The split is irrational, and raises ValueError, where max(s^2, w) is not a square.
    """
    d, (den, a, b, s, w) = m.d_in, covariant_blocks(m.d_in, m.exact)
    top = max(s * s, w)
    root = math.isqrt(top)
    if root * root != top:
        raise ValueError(f"the Jordan split of this map is irrational: its weights hold sqrt({top})")
    p, q, _, r = choi_norm(m)
    r *= d
    sym = covariant_map(d, (1, 1, 0, 0, 0, 0), 2) - cloner(d)
    anti = covariant_map(d, (1, -1, 0, 0, 0, 0), 2) - antisym(d)
    block, x = m * den - sym * a - anti * b, s * s - w  # den C_E
    on_e = (block * s + (cloner(d) + antisym(d)) * (abs(x) - x) / 4) / (root or 1)
    absolute, norm = (sym * abs(a) + anti * abs(b) + on_e) / den, p + q * math.isqrt(w)  # |C|; ||C||_1 / d = norm / r
    plus, minus = ((absolute + m) * r / (norm + r), (absolute - m) * r / (norm - r)) if norm > r else (m, m)
    return norm + r, norm - r, 2 * r, plus, minus


def _value_table(m: SuperMap, rho, o1, o2) -> tuple[float, list[float], list[float], float]:
    """(exact, values, probabilities, overhead): the single-draw distribution of the estimator.

    rho, O1 and O2 are Operators or rows, rho a state and O1, O2 Hermitian,
    all d x d.  A draw picks part i of ``_jordan_split`` with probability
    lambda_i / L and contributes +-L times its exact expectation.  A map
    that is not covariant, or not exactly HP and TP, raises ValueError.
    """
    if m.coeffs is None:
        raise ValueError("the sampler reads a covariant map's six coefficients, and this map is not covariant")
    if not (m.is_hp() and m.is_tp()):
        raise ValueError("the sampler simulates a Hermitian-preserving, trace-preserving map, and this one is not")
    lp, lm, den, plus, minus = _jordan_split(m)
    d, rho, o1, o2 = m.d_in, rows_of(rho), rows_of(o1), rows_of(o2)
    check_density(rho, d)
    if not all(len(o) == d and is_hermitian_rows(o) for o in (o1, o2)):
        raise ValueError(f"observables must be Hermitian {d}x{d} matrices")
    invariants = _invariants(rho, o1, o2)
    l1 = (lp + lm) / den  # each an int/int division, rounded once
    values = [l1 * _expectation(plus, invariants), -l1 * _expectation(minus, invariants)]
    return _expectation(m, invariants), values, [lp / (lp + lm), lm / (lp + lm)], l1


def estimate_with_trace(
    m: SuperMap, rho, o1, o2, n: int, rng: Rng, n_checkpoints: int = 20
) -> tuple[SamplingEstimate, list[tuple[int, float, float]], float]:
    """Unbiased estimate of Tr[m(rho) (O1 (x) O2)] from n draws of m's Jordan split, trace rows and overhead L.

    Each draw contributes the exact expectation of the drawn part, so the
    only sampling noise is that of the signed mixture.  The rows are the
    running (n, mean, stderr) at ``n_checkpoints`` evenly spaced draw counts.
    A map the sampler does not take raises ValueError before any draw.

    A segment between checkpoints is drawn as its count of the first value,
    one ``Rng.binomial`` draw, and the running mean and stderr are read off
    the counts: the cost does not grow with n.
    """
    if n < 2 or n_checkpoints < 1:
        raise ValueError(f"need at least 2 draws and 1 checkpoint, got {n} and {n_checkpoints}")
    exact, vals, probs, l1 = _value_table(m, rho, o1, o2)
    marks = sorted({max(2, (n * (k + 1)) // n_checkpoints) for k in range(n_checkpoints)})
    rows, done, first = [], 0, 0
    for mark in marks:
        first += rng.binomial(mark - done, probs[0])
        done, counts = mark, (first, mark - first)
        mean = math.fsum(c * v for c, v in zip(counts, vals)) / mark
        var = math.fsum(c * (v - mean) ** 2 for c, v in zip(counts, vals)) / (mark - 1)
        rows.append((mark, mean, (var / mark) ** 0.5))
    final = SamplingEstimate(mean=rows[-1][1], stderr=rows[-1][2], n=n, exact=exact)
    return final, rows, l1


def write_trace_csv(fp, rows: list[tuple[int, float, float]]):
    """CSV rows (n, running_mean, running_stderr)."""
    fp.write("n,running_mean,running_stderr\n")
    for m, mean, se in rows:
        fp.write(f"{m},{mean!r},{se!r}\n")
