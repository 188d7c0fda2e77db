"""Dense complex linear algebra: operators, the trace norm, seeded randomness.

Everything downstream is built on the small vocabulary defined here: an
immutable :class:`Operator` wrapper around a complex matrix, the SWAP and
the factor permutations ``S3`` of three tensor factors, the trace norm, and
a seeded :class:`Rng` that is the only stateful object in the library.

The Hermitian predicates ``is_hermitian`` and ``is_hermitian_rows`` and
the input check ``check_density`` gate at ``DEFAULT_TOL``; an operator's
JSON layout belongs to ``cli``.
"""

from __future__ import annotations

import math

from . import _lazy

np = _lazy("numpy")

# Gate of ``is_hermitian`` and the input checks (``check_density``).
DEFAULT_TOL = 1e-9


class Operator:
    """Immutable dense complex matrix with dimension metadata.

    Thin wrapper over a read-only ``complex128`` ndarray, the raw array
    ``.mat``, with its shape and a Hermiticity test.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        arr = np.array(mat, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ValueError(f"Operator requires a 2-d array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "_mat", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def rows(self) -> int:
        return self._mat.shape[0]

    @property
    def cols(self) -> int:
        return self._mat.shape[1]

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.rows == self.cols and np.abs(self._mat - self._mat.conj().T).max() <= tol

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"


def _csum(values) -> complex:
    """A sum of complex numbers, real and imaginary parts each by ``math.fsum``: correctly rounded on every Python.

    The builtin ``sum`` of floats compensates its rounding from Python 3.12 on, so it differs across versions.
    """
    values = list(values)
    return complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))


def _raw(x) -> np.ndarray:
    """Unwrap an Operator or pass an ndarray through."""
    return x.mat if isinstance(x, Operator) else np.asarray(x, dtype=np.complex128)


def rows_of(x) -> list[list[complex]]:
    """The entries of an Operator or of nested rows of numbers, as rows of Python complex numbers."""
    return x.mat.tolist() if isinstance(x, Operator) else [[complex(v) for v in row] for row in x]


def is_hermitian_rows(m: list, tol: float = DEFAULT_TOL) -> bool:
    """``Operator.is_hermitian`` on ``rows_of`` entries: square, and each |m_ij - conj(m_ji)| <= tol."""
    pairs = ((a, b) for row, col in zip(m, zip(*m)) for a, b in zip(row, col))
    return all(len(row) == len(m) for row in m) and all(abs(a - b.conjugate()) <= tol for a, b in pairs)


def check_density(rho, d: int):
    """Raise ``ValueError`` unless rho (Operator or rows) is a unit-trace Hermitian d x d matrix, to ``DEFAULT_TOL``."""
    m = rows_of(rho)
    if len(m) != d or not is_hermitian_rows(m) or abs(sum(m[i][i] for i in range(d)) - 1.0) > DEFAULT_TOL:
        raise ValueError(f"rho must be a unit-trace Hermitian {d}x{d} matrix")


# ---------------------------------------------------------------------------
# constructors


def swap(d: int) -> Operator:
    """SWAP on C^d (x) C^d:  sum_ij |i><j| (x) |j><i|."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return Operator(s)


# The six permutations of three tensor factors: identity, (12), (13), (23),
# then the two mutually inverse 3-cycles.  Entry k names the factor whose
# index lands in slot k.
S3 = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))


# ---------------------------------------------------------------------------
# norms


def trace_norm(o) -> float:
    """Sum of singular values (for Hermitian o, the sum of |eigenvalues|)."""
    return float(np.linalg.svd(_raw(o), compute_uv=False).sum())


# ---------------------------------------------------------------------------
# randomness


class Rng:
    """Seeded random stream; identical (seed, stream) pairs reproduce draws exactly.

    The only stateful object in the library.  Each independent draw (the
    sampled state, the observables, the sampler) takes its own ``stream``.
    States, observables and ``binomial`` use ``random()`` alone, the one method
    of ``random.Random`` whose stream Python keeps across versions, seeded with
    "seed:stream"; ``gen``, numpy's PCG64 Generator of the pair, is built on
    first read (the Haar draws of ``hovm``).
    """

    def __init__(self, seed: int, stream: int = 0):
        from random import Random  # imported here, so that a bare ``import vbcast.cli`` does not load it

        self.seed, self.stream, self._gen = int(seed), int(stream), None
        if self.seed < 0 or self.stream < 0:
            raise ValueError(f"seed and stream must be non-negative, got {self.seed} and {self.stream}")
        self.random = Random(f"{self.seed}:{self.stream}").random

    @property
    def gen(self):
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def binomial(self, n: int, p: float) -> int:
        """A Binomial(n, p) count, 0 <= p <= 1, as CPython 3.12's ``random.binomialvariate`` draws it.

        p > 1/2 counts failures; below n p = 10 Devroye's geometric skips, above it Hormann's BTRS.
        A p outside [0, 1], NaN included, raises ValueError.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"binomial needs 0 <= p <= 1, got {p!r}")
        if p > 0.5:
            return n - self.binomial(n, 1.0 - p)
        if n * p < 10.0:
            x, y, c = -1, 0, math.log1p(-p)  # x counts the skips that land at y <= n; c = 0 only at p = 0
            while c and y <= n:
                y += math.floor(math.log(1.0 - self.random()) / c) + 1
                x += 1
            return max(x, 0)
        spq = math.sqrt(n * p * (1.0 - p))
        b = 1.15 + 2.53 * spq
        a, c, vr, alpha = -0.0873 + 0.0248 * b + 0.01 * p, n * p + 0.5, 0.92 - 4.2 / b, (2.83 + 5.1 / b) * spq
        m, lpq = math.floor((n + 1) * p), math.log(p / (1.0 - p))
        h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
        while True:
            u = self.random() - 0.5
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + c) if us else -1  # us = 0 only when random() is 0.0
            if not 0 <= k <= n:
                continue
            v = 1.0 - self.random()
            if us >= 0.07 and v <= vr:
                return k
            log_ratio = h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq
            if math.log(v * alpha / (a / (us * us) + b)) <= log_ratio:
                return k

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _ginibre_rows(d: int, rng: Rng) -> list[list[complex]]:
    """A d x d complex Ginibre matrix as rows, E|g_ij|^2 = 1: Box-Muller, each entry sqrt(-ln(1 - u)) e^(2 pi i v)."""
    polar = ((math.sqrt(-math.log(1.0 - rng.random())), 2.0 * math.pi * rng.random()) for _ in range(d * d))
    g = [complex(r * math.cos(t), r * math.sin(t)) for r, t in polar]
    return [g[i * d : i * d + d] for i in range(d)]


def random_density_rows(d: int, rng: Rng) -> list[list[complex]]:
    """Trace-normalized Wishart state G G^dag / Tr[G G^dag] as rows, full rank a.s. and exactly Hermitian."""
    g = _ginibre_rows(d, rng)
    w = [[_csum(a * b.conjugate() for a, b in zip(gi, gj)) for gj in g] for gi in g]
    t = math.fsum(w[i][i].real for i in range(d))
    return [[x / t for x in row] for row in w]


def random_hermitian_rows(d: int, rng: Rng) -> list[list[complex]]:
    """GUE-style random Hermitian matrix (G + G^dag) / 2 as rows, entries O(1)."""
    g = _ginibre_rows(d, rng)
    return [[(g[i][j] + g[j][i].conjugate()) / 2 for j in range(d)] for i in range(d)]


def random_density(d: int, rng: Rng) -> Operator:
    """``random_density_rows`` as an Operator."""
    return Operator(random_density_rows(d, rng))


def random_hermitian(d: int, rng: Rng) -> Operator:
    """``random_hermitian_rows`` as an Operator."""
    return Operator(random_hermitian_rows(d, rng))
