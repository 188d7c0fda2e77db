"""Quasi-probability simulation of HPTP maps from CPTP decompositions.

An HPTP map written as  sum_i w_i E_i  with signed weights and physical
channels can be estimated by sampling channel i with probability
|w_i| / L, L = sum |w_i|, and reweighting outcomes by L * sign(w_i).
Estimates of  Tr[m(rho) (O1 (x) O2)]  are unbiased with standard
deviation bounded by L * ||O1 (x) O2||_inf per shot -- so L (the
"overhead") is the simulation cost of virtuality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import Operator, Rng, kron
from .mcstats import SamplingEstimate
from .supermap import AffineDecomposition, SuperMap


@dataclass(frozen=True)
class QuasiSampler:
    """Signed mixture of channels reproducing a target HPTP map."""

    components: tuple[tuple[float, SuperMap], ...]
    target: SuperMap

    def __post_init__(self):
        if not self.components:
            raise ValueError("sampler needs at least one component")
        weights = np.array([w for w, _ in self.components])
        if np.abs(weights).sum() < 1e-14:
            raise ValueError("all-zero weights cannot represent a map")
        recon = np.zeros_like(self.target.choi.mat)
        for w, ch in self.components:
            if (ch.d_in, ch.d_out) != (self.target.d_in, self.target.d_out):
                raise ValueError("component dimensions do not match the target")
            if not (ch.is_cp(1e-8) and ch.is_tp(1e-8)):
                raise ValueError("components must be CPTP within 1e-8")
            recon = recon + w * ch.choi.mat
        err = float(np.abs(recon - self.target.choi.mat).max())
        if err > 1e-10:
            raise ValueError(f"weights do not reconstruct the target Choi (residual {err:.2e})")

    @property
    def l1_weight(self) -> float:
        return float(sum(abs(w) for w, _ in self.components))


def sampler_from_decomposition(dec: AffineDecomposition) -> QuasiSampler:
    """Sampler for lambda_plus * plus - lambda_minus * minus."""
    return QuasiSampler(
        components=(
            (float(dec.lambda_plus), dec.map_plus),
            (-float(dec.lambda_minus), dec.map_minus),
        ),
        target=dec.combined(),
    )


def overhead(s: QuasiSampler) -> float:
    """The l1 sampling overhead L."""
    return s.l1_weight


def _value_table(
    s: QuasiSampler, rho: Operator, o1: Operator, o2: Operator, shot_noise: bool
) -> tuple[float, np.ndarray, np.ndarray]:
    """(exact, values, probabilities): the single-draw distribution of the estimator.

    A draw picks component i with probability |w_i| / L and contributes
    L sign(w_i) times its exact expectation; with ``shot_noise`` the draw
    ranges over (component, observable eigenvalue) pairs, weighted by the
    Born rule of the component's output.
    """
    d = s.target.d_in
    if rho.rows != d or not rho.is_hermitian(1e-9) or abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError("rho must be a unit-trace Hermitian d x d matrix")
    for o in (o1, o2):
        if o.rows != o.cols or not o.is_hermitian(1e-9):
            raise ValueError("observables must be Hermitian")
    obs = kron(o1, o2).mat
    exact = float(np.real(np.trace(s.target.apply(rho).mat @ obs)))

    weights = np.array([w for w, _ in s.components])
    l1 = np.abs(weights).sum()
    probs = np.abs(weights) / l1
    scales = l1 * np.sign(weights)
    outs = [ch.apply(rho).mat for _, ch in s.components]

    if not shot_noise:
        return exact, scales * np.array([np.real(np.trace(o @ obs)) for o in outs]), probs
    evals, evecs = np.linalg.eigh(obs)
    born = np.array([np.real(np.einsum("ji,jk,ki->i", evecs.conj(), o, evecs)) for o in outs])
    born = np.clip(born, 0.0, None)
    born /= born.sum(axis=1, keepdims=True)
    joint = (probs[:, np.newaxis] * born).reshape(-1)
    return exact, np.outer(scales, evals).reshape(-1), joint / joint.sum()


def estimate_with_trace(
    s: QuasiSampler,
    rho: Operator,
    o1: Operator,
    o2: Operator,
    n: int,
    rng: Rng,
    n_checkpoints: int = 20,
    shot_noise: bool = False,
) -> tuple[SamplingEstimate, list[tuple[int, float, float]]]:
    """Unbiased estimate of Tr[target(rho) (O1 (x) O2)] from n channel draws.

    In the default mode each draw contributes the exact component
    expectation (sampling noise from the signed mixture only); with
    ``shot_noise`` each draw also samples an eigenvalue of the observable
    from the Born rule of the drawn channel's output.  Also returns running
    (n, mean, stderr) rows at ``n_checkpoints`` evenly spaced draw counts.

    Each segment between checkpoints is drawn by one ``choice`` call -- the
    index stream equals a single size-n call -- and reduced to per-value
    counts, so only one segment of draws is held at a time.
    """
    if n < 2:
        raise ValueError("need at least 2 draws")
    exact, vals, probs = _value_table(s, rho, o1, o2, shot_noise)

    marks = sorted({max(2, (n * (k + 1)) // n_checkpoints) for k in range(n_checkpoints)})
    counts = np.zeros(vals.size)
    rows = []
    done = 0
    for m in marks:
        draws = rng.gen.choice(vals.size, size=m - done, p=probs)
        counts += np.bincount(draws, minlength=vals.size)
        done = m
        mean = counts @ vals / m
        var = counts @ (vals - mean) ** 2 / (m - 1)
        rows.append((m, float(mean), float(np.sqrt(var / m))))
    final = SamplingEstimate(mean=rows[-1][1], stderr=rows[-1][2], n=n, exact=exact)
    return final, rows


def estimate_expectation(
    s: QuasiSampler,
    rho: Operator,
    o1: Operator,
    o2: Operator,
    n: int,
    rng: Rng,
    shot_noise: bool = False,
) -> SamplingEstimate:
    """The final estimate of :func:`estimate_with_trace`, with one checkpoint."""
    return estimate_with_trace(s, rho, o1, o2, n, rng, n_checkpoints=1, shot_noise=shot_noise)[0]


def write_trace_csv(fp, rows: list[tuple[int, float, float]]):
    """CSV rows (n, running_mean, running_stderr)."""
    fp.write("n,running_mean,running_stderr\n")
    for m, mean, se in rows:
        fp.write(f"{m},{mean!r},{se!r}\n")
