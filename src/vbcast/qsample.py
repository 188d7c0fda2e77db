"""Quasi-probability simulation of an HPTP map from its CPTP decomposition.

An ``AffineDecomposition``  lambda_plus * plus - lambda_minus * minus  is a
signed mixture with weights (lambda_plus, -lambda_minus).  Drawing channel
i with probability |w_i| / L, L = lambda_plus + lambda_minus, and
reweighting its outcome by L * sign(w_i) estimates
Tr[m(rho) (O1 (x) O2)]  without bias, with standard deviation bounded by
L * ||O1 (x) O2||_inf per shot -- so L (the "overhead") is the simulation
cost of virtuality.  ``diamond.hptp_upper`` checks that both parts are
CPTP and returns L, which also bounds the map's diamond norm.
"""

from __future__ import annotations

from . import _lazy_numpy
from .densemat import Rng, check_density, is_hermitian_rows, kron, rows_of
from .mcstats import SamplingEstimate
from .supermap import AffineDecomposition, SuperMap

np = _lazy_numpy()


def _trace(a: list, b: list | None = None) -> complex:
    """Tr a, or Tr ab, for matrices as rows."""
    if b is None:
        return sum(row[i] for i, row in enumerate(a))
    return sum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))


def _invariants(rho: list, o1: list, o2: list) -> list[complex]:
    """Tr[term (O1 (x) O2)] for each ``S3`` term of a covariant map at rho, in ``S3`` order.

    The terms send rho to Tr[rho] I, Tr[rho] SWAP, rho (x) I, I (x) rho, (I (x) rho) SWAP and (rho (x) I) SWAP,
    so the six are Tr rho Tr O1 Tr O2, Tr rho Tr O1O2, Tr rhoO1 Tr O2, Tr O1 Tr rhoO2, Tr rhoO1O2, Tr rhoO2O1.
    """
    r1, r2 = ([[sum(x * y for x, y in zip(row, col)) for col in zip(*o)] for row in rho] for o in (o1, o2))
    t, t1, t2 = _trace(rho), _trace(o1), _trace(o2)
    return [t * t1 * t2, t * _trace(o1, o2), _trace(r1) * t2, t1 * _trace(r2), _trace(r1, o2), _trace(r2, o1)]


def _expectation(m: SuperMap, rho: list, o1: list, o2: list, invariants: list[complex]) -> float:
    """Re Tr[m(rho) (O1 (x) O2)]: a covariant m's coefficients against ``invariants``, a dense m through ``apply``."""
    if m.coeffs is not None:
        return sum(x * t for x, t in zip(m.coeffs, invariants)).real
    return float(np.real(np.trace(m.apply(rho).mat @ kron(o1, o2).mat)))


def _value_table(dec: AffineDecomposition, rho, o1, o2, shot_noise: bool) -> tuple[float, list[float], list[float]]:
    """(exact, values, probabilities): the single-draw distribution of the estimator.

    rho, O1 and O2 are Operators or rows.  A draw picks component i with
    probability |w_i| / L and contributes L sign(w_i) times its exact
    expectation; with ``shot_noise`` the draw ranges over (component,
    observable eigenvalue) pairs, weighted by the Born rule of the
    component's output.
    """
    target = dec.combined()
    rho, o1, o2 = rows_of(rho), rows_of(o1), rows_of(o2)
    check_density(rho, target.d_in)
    if not (is_hermitian_rows(o1) and is_hermitian_rows(o2)):
        raise ValueError("observables must be Hermitian")
    invariants = _invariants(rho, o1, o2)
    exact = _expectation(target, rho, o1, o2, invariants)
    lp, lm = float(dec.lambda_plus), float(dec.lambda_minus)
    l1 = lp + lm
    probs = [lp / l1, lm / l1]
    if not shot_noise:
        plus, minus = (_expectation(ch, rho, o1, o2, invariants) for ch in (dec.map_plus, dec.map_minus))
        return exact, [l1 * plus, -l1 * minus], probs
    evals, evecs = np.linalg.eigh(kron(o1, o2).mat)
    outs = [ch.apply(rho).mat for ch in (dec.map_plus, dec.map_minus)]
    born = np.array([np.real(np.einsum("ji,jk,ki->i", evecs.conj(), o, evecs)) for o in outs])
    born = np.clip(born, 0.0, None)
    born /= born.sum(axis=1, keepdims=True)
    joint = (np.array(probs)[:, np.newaxis] * born).reshape(-1)
    return exact, np.outer([l1, -l1], evals).reshape(-1).tolist(), (joint / joint.sum()).tolist()


def _multinomial(rng: Rng, k: int, probs: list[float]) -> list[int]:
    """A Multinomial(k, probs) draw as chained binomials: each value's count among the draws still unassigned."""
    counts, rest = [], 1.0
    for p in probs[:-1]:
        counts.append(rng.binomial(k, p / rest if p < rest else 1.0))
        k, rest = k - counts[-1], rest - p
    return counts + [k]


def estimate_with_trace(
    dec: AffineDecomposition, rho, o1, o2, n: int, rng: Rng, n_checkpoints: int = 20, shot_noise: bool = False
) -> tuple[SamplingEstimate, list[tuple[int, float, float]]]:
    """Unbiased estimate of Tr[dec.combined()(rho) (O1 (x) O2)] from n channel draws.

    In the default mode each draw contributes the exact component
    expectation (sampling noise from the signed mixture only); with
    ``shot_noise`` each draw also samples an eigenvalue of the observable
    from the Born rule of the drawn channel's output.  Also returns running
    (n, mean, stderr) rows at ``n_checkpoints`` evenly spaced draw counts.
    The components are (lambda_plus, plus) and (-lambda_minus, minus), in
    that order; ``diamond.hptp_upper`` validates ``dec`` beforehand.

    The draws take finitely many values, so a segment between checkpoints
    is drawn as its count of each value (``_multinomial``), and the running
    mean and stderr are read off the counts: the cost does not grow with n.
    """
    if n < 2:
        raise ValueError("need at least 2 draws")
    exact, vals, probs = _value_table(dec, rho, o1, o2, shot_noise)
    marks = sorted({max(2, (n * (k + 1)) // n_checkpoints) for k in range(n_checkpoints)})
    counts = [0] * len(vals)
    rows, done = [], 0
    for m in marks:
        counts = [c + new for c, new in zip(counts, _multinomial(rng, m - done, probs))]
        done = m
        mean = sum(c * v for c, v in zip(counts, vals)) / m
        var = sum(c * (v - mean) ** 2 for c, v in zip(counts, vals)) / (m - 1)
        rows.append((m, mean, (var / m) ** 0.5))
    final = SamplingEstimate(mean=rows[-1][1], stderr=rows[-1][2], n=n, exact=exact)
    return final, rows


def write_trace_csv(fp, rows: list[tuple[int, float, float]]):
    """CSV rows (n, running_mean, running_stderr)."""
    fp.write("n,running_mean,running_stderr\n")
    for m, mean, se in rows:
        fp.write(f"{m},{mean!r},{se!r}\n")
