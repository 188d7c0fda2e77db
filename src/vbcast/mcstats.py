"""Streaming Monte-Carlo statistics.

Welford-style accumulation of entrywise means and variances for complex
matrix samples, with pairwise chunk merging so accumulation order does not
matter beyond float roundoff.  Callers compute a chunk's moments without
materialising its samples and feed them to ``MatrixWelford.merge``.  Real
and imaginary parts get separate standard errors, since downstream gates
check them separately.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _lazy_numpy
from .densemat import Operator

np = _lazy_numpy()


class MatrixWelford:
    """Entrywise running mean / variance over complex matrix samples."""

    def __init__(self, shape: tuple[int, int]):
        self.n = 0
        self.mean = np.zeros(shape, dtype=np.complex128)
        self.m2_re = np.zeros(shape)
        self.m2_im = np.zeros(shape)

    def merge(self, n: int, mean: np.ndarray, m2_re: np.ndarray, m2_im: np.ndarray):
        """Merge the moments of n samples: their mean and summed squared deviations (re, im)."""
        if n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2_re, self.m2_im = n, mean, m2_re, m2_im
            return
        total = self.n + n
        delta = mean - self.mean
        factor = self.n * n / total
        self.mean = self.mean + delta * (n / total)
        self.m2_re = self.m2_re + m2_re + delta.real**2 * factor
        self.m2_im = self.m2_im + m2_im + delta.imag**2 * factor
        self.n = total

    def stderr(self) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) standard errors of the mean; requires n >= 2."""
        if self.n < 2:
            raise ValueError("need at least 2 samples for a standard error")
        scale = 1.0 / (self.n * (self.n - 1))
        return np.sqrt(self.m2_re * scale), np.sqrt(self.m2_im * scale)


class SamplingEstimate(NamedTuple):
    """Scalar Monte-Carlo estimate with its standard error and exact reference."""

    mean: float
    stderr: float
    n: int
    exact: float | None = None

    def zscore(self) -> float:
        """|mean - exact| in units of stderr (0 when both deviations vanish)."""
        if self.exact is None:
            raise ValueError("no exact reference recorded")
        delta = abs(self.mean - self.exact)
        if self.stderr == 0.0:
            import math

            return 0.0 if delta < 1e-12 else math.inf
        return delta / self.stderr


class MatrixSamplingEstimate(NamedTuple):
    """Entrywise Monte-Carlo estimate of a matrix, with per-entry errors."""

    mean: Operator
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n: int
    exact: Operator | None = None

    def max_zscore(self) -> float:
        """Worst entrywise deviation from ``exact`` in standard-error units."""
        if self.exact is None:
            raise ValueError("no exact reference recorded")
        delta = self.mean.mat - self.exact.mat
        z_re = _z(np.abs(delta.real), self.stderr_re)
        z_im = _z(np.abs(delta.imag), self.stderr_im)
        return float(max(z_re.max(), z_im.max()))


def _z(delta: np.ndarray, stderr: np.ndarray) -> np.ndarray:
    z = np.zeros_like(delta)
    live = stderr > 0
    z[live] = delta[live] / stderr[live]
    z[~live & (delta > 1e-12)] = np.inf
    return z
