"""Dense complex linear algebra: operators, tensor calculus, the trace norm, seeded randomness.

Everything downstream is built on the small vocabulary defined here: an
immutable :class:`Operator` wrapper around a complex matrix, Kronecker
products and partial traces for two-factor tensor spaces, the trace norm,
and a seeded :class:`Rng` that is the only stateful object in the library.

The operator predicate ``is_hermitian`` and the input check
``check_density`` gate at ``DEFAULT_TOL``; an operator's JSON layout
belongs to ``cli``.
"""

from __future__ import annotations

from . import _lazy_numpy

np = _lazy_numpy()

# Gate of ``is_hermitian`` and the input checks (``check_density``).
DEFAULT_TOL = 1e-9


class Operator:
    """Immutable dense complex matrix with dimension metadata.

    Thin wrapper over a read-only ``complex128`` ndarray.  Arithmetic
    (``+``, ``-``, scalar ``*``) returns new operators; the raw
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

    def trace(self) -> complex:
        return complex(np.trace(self._mat))

    def absmax(self) -> float:
        """Largest absolute entry."""
        return float(np.abs(self._mat).max())

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.rows == self.cols and np.abs(self._mat - self._mat.conj().T).max() <= tol

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return Operator(self._mat + _raw(other))

    def __sub__(self, other):
        return Operator(self._mat - _raw(other))

    def __mul__(self, scalar):
        return Operator(self._mat * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"


def _raw(x) -> np.ndarray:
    """Unwrap an Operator or pass an ndarray through."""
    return x.mat if isinstance(x, Operator) else np.asarray(x, dtype=np.complex128)


def check_density(rho: Operator, d: int):
    """Raise ``ValueError`` unless rho is a d x d Hermitian matrix of unit trace, within ``DEFAULT_TOL``."""
    if rho.rows != d or not rho.is_hermitian() or abs(rho.trace() - 1.0) > DEFAULT_TOL:
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
