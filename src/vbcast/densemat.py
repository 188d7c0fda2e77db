"""Dense complex linear algebra: operators, tensor calculus, spectra, seeded randomness.

Everything downstream is built on the small vocabulary defined here: an
immutable :class:`Operator` wrapper around a complex matrix, Kronecker
products and partial traces for two-factor tensor spaces, a Hermitian
eigensolver with a descending-eigenvalue convention, and a seeded
:class:`Rng` that is the only stateful object in the library.
"""

from __future__ import annotations

import numpy as np

# Default tolerance for algebraic predicates (hermiticity, unitarity, ...).
DEFAULT_TOL = 1e-9


class Operator:
    """Immutable dense complex matrix with dimension metadata.

    Thin wrapper over a read-only ``complex128`` ndarray.  Arithmetic
    (``+``, ``-``, scalar ``*``, ``@``) returns new operators; the raw
    array is available as ``.mat`` for numerics-heavy code.
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

    @property
    def dim(self) -> int:
        """Side length of a square operator."""
        if self.rows != self.cols:
            raise ValueError(f"operator is {self.rows}x{self.cols}, not square")
        return self.rows

    def dagger(self) -> "Operator":
        return Operator(self._mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self._mat))

    def absmax(self) -> float:
        """Largest absolute entry."""
        return float(np.abs(self._mat).max())

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.rows == self.cols and np.abs(self._mat - self._mat.conj().T).max() <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        if self.rows != self.cols:
            return False
        d = self.rows
        return np.abs(self._mat.conj().T @ self._mat - np.eye(d)).max() <= tol

    def is_psd(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian with spectrum bounded below by ``-tol``."""
        if not self.is_hermitian(tol):
            return False
        evals = np.linalg.eigvalsh(self._mat)
        return bool(evals.min() >= -tol)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return Operator(self._mat + _raw(other))

    def __sub__(self, other):
        return Operator(self._mat - _raw(other))

    def __neg__(self):
        return Operator(-self._mat)

    def __mul__(self, scalar):
        return Operator(self._mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Operator(self._mat / scalar)

    def __matmul__(self, other):
        return Operator(self._mat @ _raw(other))

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Row-major JSON form: {"rows", "cols", "re", "im"}."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": self._mat.real.tolist(),
            "im": self._mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Operator":
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
        if re.shape != (obj["rows"], obj["cols"]) or im.shape != re.shape:
            raise ValueError("operator JSON has inconsistent dimensions")
        return cls(re + 1j * im)


def _raw(x) -> np.ndarray:
    """Unwrap an Operator or pass an ndarray through."""
    return x.mat if isinstance(x, Operator) else np.asarray(x, dtype=np.complex128)


# ---------------------------------------------------------------------------
# constructors


def identity(d: int) -> Operator:
    return Operator(np.eye(d))


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
# tensor calculus


def kron(a, b) -> Operator:
    """Kronecker product, first factor slowest (row-major convention)."""
    return Operator(np.kron(_raw(a), _raw(b)))


def partial_trace(o, dims: tuple[int, int], keep: str) -> Operator:
    """Trace out one factor of a two-factor tensor space.

    Parameters
    ----------
    o : Operator on C^(d1*d2)
    dims : (d1, d2) factor dimensions
    keep : "first" keeps factor 1 (traces out 2), "second" keeps factor 2.
    """
    d1, d2 = dims
    m = _raw(o)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == "first":
        return Operator(np.einsum("ikjk->ij", t))
    if keep == "second":
        return Operator(np.einsum("kikj->ij", t))
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


# ---------------------------------------------------------------------------
# spectra


def eigh(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, Operator]:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    Returns (values, vectors) with values real in descending order and
    vectors unitary, columns matching values:  h = V diag(values) V^dag.
    Raises on non-Hermitian input.
    """
    m = _raw(h)
    if m.shape[0] != m.shape[1] or np.abs(m - m.conj().T).max() > tol:
        raise ValueError("eigh requires a Hermitian operator")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), Operator(vecs[:, ::-1])


def trace_norm(o) -> float:
    """Sum of singular values (for Hermitian o, the sum of |eigenvalues|)."""
    return float(np.linalg.svd(_raw(o), compute_uv=False).sum())


# ---------------------------------------------------------------------------
# randomness


class Rng:
    """Seeded random stream; identical (seed, stream) pairs reproduce draws exactly.

    The only stateful object in the library.  Each independent draw (the
    sampled state, the observables, the sampler) takes its own ``stream``.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _ginibre(d: int, rng: Rng) -> np.ndarray:
    g = rng.gen.standard_normal((d, d)) + 1j * rng.gen.standard_normal((d, d))
    return g / np.sqrt(2)


def random_density(d: int, rng: Rng) -> Operator:
    """Trace-normalized Wishart state G G^dag / Tr[G G^dag], full rank a.s."""
    g = _ginibre(d, rng)
    w = g @ g.conj().T
    return Operator(w / np.trace(w).real)


def random_hermitian(d: int, rng: Rng) -> Operator:
    """GUE-style random Hermitian matrix, entries O(1)."""
    g = _ginibre(d, rng)
    return Operator((g + g.conj().T) / 2)
