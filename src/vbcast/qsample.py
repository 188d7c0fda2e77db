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
from .densemat import Operator, Rng, check_density, kron
from .mcstats import SamplingEstimate
from .supermap import AffineDecomposition

np = _lazy_numpy()

# Most uniforms held at once (8 MB) by ``estimate_with_trace``.
DRAW_CHUNK = 1 << 20


def _value_table(
    dec: AffineDecomposition, rho: Operator, o1: Operator, o2: Operator, shot_noise: bool
) -> tuple[float, np.ndarray, np.ndarray]:
    """(exact, values, probabilities): the single-draw distribution of the estimator.

    A draw picks component i with probability |w_i| / L and contributes
    L sign(w_i) times its exact expectation; with ``shot_noise`` the draw
    ranges over (component, observable eigenvalue) pairs, weighted by the
    Born rule of the component's output.
    """
    target = dec.combined()
    d = target.d_in
    check_density(rho, d)
    for o in (o1, o2):
        if not o.is_hermitian():
            raise ValueError("observables must be Hermitian")
    obs = kron(o1, o2).mat
    exact = float(np.real(np.trace(target.apply(rho).mat @ obs)))

    weights = np.array([float(dec.lambda_plus), -float(dec.lambda_minus)])
    l1 = np.abs(weights).sum()
    probs = np.abs(weights) / l1
    scales = l1 * np.sign(weights)
    outs = [ch.apply(rho).mat for ch in (dec.map_plus, dec.map_minus)]

    if not shot_noise:
        return exact, scales * np.array([np.real(np.trace(o @ obs)) for o in outs]), probs
    evals, evecs = np.linalg.eigh(obs)
    born = np.array([np.real(np.einsum("ji,jk,ki->i", evecs.conj(), o, evecs)) for o in outs])
    born = np.clip(born, 0.0, None)
    born /= born.sum(axis=1, keepdims=True)
    joint = (probs[:, np.newaxis] * born).reshape(-1)
    return exact, np.outer(scales, evals).reshape(-1), joint / joint.sum()


def estimate_with_trace(
    dec: AffineDecomposition,
    rho: Operator,
    o1: Operator,
    o2: Operator,
    n: int,
    rng: Rng,
    n_checkpoints: int = 20,
    shot_noise: bool = False,
) -> tuple[SamplingEstimate, list[tuple[int, float, float]]]:
    """Unbiased estimate of Tr[dec.combined()(rho) (O1 (x) O2)] from n channel draws.

    In the default mode each draw contributes the exact component
    expectation (sampling noise from the signed mixture only); with
    ``shot_noise`` each draw also samples an eigenvalue of the observable
    from the Born rule of the drawn channel's output.  Also returns running
    (n, mean, stderr) rows at ``n_checkpoints`` evenly spaced draw counts.
    The components are (lambda_plus, plus) and (-lambda_minus, minus), in
    that order; ``diamond.hptp_upper`` validates ``dec`` beforehand.

    Each segment between checkpoints draws the uniforms that one ``choice``
    call with ``p=probs`` draws -- the stream equals a single size-n call --
    and counts them against the cumulative distribution, so value j counts
    #(u < cdf[j]) - #(u < cdf[j-1]); cdf[-1] is exactly 1.0 and ``random``
    draws from [0, 1), so the last count is the chunk size, with no pass.
    The uniforms are drawn in chunks of at most ``DRAW_CHUNK``, which
    consecutive ``random`` calls continue as one stream, so memory does not
    grow with n.
    """
    if n < 2:
        raise ValueError("need at least 2 draws")
    exact, vals, probs = _value_table(dec, rho, o1, o2, shot_noise)
    cdf = probs.cumsum()
    cdf /= cdf[-1]

    marks = sorted({max(2, (n * (k + 1)) // n_checkpoints) for k in range(n_checkpoints)})
    counts = np.zeros(vals.size)
    rows = []
    done = 0
    for m in marks:
        while done < m:
            u = rng.gen.random(min(m - done, DRAW_CHUNK))
            counts += np.diff([*(np.count_nonzero(u < c) for c in cdf[:-1]), u.size], prepend=0)
            done += u.size
        mean = counts @ vals / m
        var = counts @ (vals - mean) ** 2 / (m - 1)
        rows.append((m, float(mean), float(np.sqrt(var / m))))
    final = SamplingEstimate(mean=rows[-1][1], stderr=rows[-1][2], n=n, exact=exact)
    return final, rows


def write_trace_csv(fp, rows: list[tuple[int, float, float]]):
    """CSV rows (n, running_mean, running_stderr)."""
    fp.write("n,running_mean,running_stderr\n")
    for m, mean, se in rows:
        fp.write(f"{m},{mean!r},{se!r}\n")
