"""Linear maps on operators, stored through their Choi representation.

Conventions (fixed across the library):

* The Choi operator of ``m: Lin(C^d_in) -> Lin(C^d_out)`` lives on
  ``C^d_out (x) C^d_in`` and equals ``sum_ij m(E_ij) (x) E_ij`` for matrix
  units ``E_ij`` -- equivalently ``(m (x) id)(Omega)`` with the unnormalized
  maximally entangled ``Omega = sum_ij |ii><jj|``.  Output factor first.
* The Jamiolkowski form lives on ``C^d_in (x) C^d_out`` and equals
  ``sum_ij E_ij (x) m(E_ji)``, i.e. ``(id (x) m)`` applied to the SWAP of the
  doubled input space.  For the identity map it *is* SWAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import DEFAULT_TOL, Operator, _raw, partial_trace


def omega(d: int) -> Operator:
    """Unnormalized maximally entangled operator sum_ij |ii><jj| on C^d (x) C^d."""
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + i, j * d + j] = 1.0
    return Operator(m)


class SuperMap:
    """Linear map Lin(C^d_in) -> Lin(C^d_out), represented by its Choi operator."""

    __slots__ = ("d_in", "d_out", "choi")

    def __init__(self, d_in: int, d_out: int, choi: Operator):
        choi = choi if isinstance(choi, Operator) else Operator(choi)
        n = d_out * d_in
        if choi.rows != n or choi.cols != n:
            raise ValueError(
                f"choi must be {n}x{n} for d_in={d_in}, d_out={d_out}, got {choi.rows}x{choi.cols}"
            )
        object.__setattr__(self, "d_in", int(d_in))
        object.__setattr__(self, "d_out", int(d_out))
        object.__setattr__(self, "choi", choi)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMap is immutable")

    def _c4(self) -> np.ndarray:
        """Choi as a 4-tensor indexed [out, in, out', in']."""
        return self.choi.mat.reshape(self.d_out, self.d_in, self.d_out, self.d_in)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_action(cls, d_in: int, d_out: int, action) -> "SuperMap":
        """Build the Choi by evaluating ``action`` on every matrix unit E_ij."""
        c4 = np.zeros((d_out, d_in, d_out, d_in), dtype=np.complex128)
        e = np.zeros((d_in, d_in), dtype=np.complex128)
        for i in range(d_in):
            for j in range(d_in):
                e[i, j] = 1.0
                out = _raw(action(Operator(e)))
                if out.shape != (d_out, d_out):
                    raise ValueError(
                        f"action returned shape {out.shape}, expected ({d_out}, {d_out})"
                    )
                c4[:, i, :, j] = out
                e[i, j] = 0.0
        n = d_out * d_in
        return cls(d_in, d_out, Operator(c4.reshape(n, n)))

    @classmethod
    def identity(cls, d: int) -> "SuperMap":
        return cls(d, d, omega(d))

    # -- action -------------------------------------------------------------

    def apply(self, x) -> Operator:
        """Evaluate the map:  Tr_in[choi (I_out (x) x^T)]."""
        xm = _raw(x)
        if xm.shape != (self.d_in, self.d_in):
            raise ValueError(f"input must be {self.d_in}x{self.d_in}, got {xm.shape}")
        return Operator(np.einsum("uivj,ij->uv", self._c4(), xm))

    def compose(self, other: "SuperMap") -> "SuperMap":
        """self after other:  (self . other)(x) = self(other(x))."""
        if other.d_out != self.d_in:
            raise ValueError(
                f"cannot compose: inner dims {other.d_out} (out) vs {self.d_in} (in)"
            )
        c4 = np.einsum("ukvl,kilj->uivj", self._c4(), other._c4())
        n = self.d_out * other.d_in
        return SuperMap(other.d_in, self.d_out, Operator(c4.reshape(n, n)))

    def tensor(self, other: "SuperMap") -> "SuperMap":
        """Tensor product map, self on the first factor."""
        c8 = np.einsum("uivj,apbq->uaipvbjq", self._c4(), other._c4())
        d_in = self.d_in * other.d_in
        d_out = self.d_out * other.d_out
        return SuperMap(d_in, d_out, Operator(c8.reshape(d_out * d_in, d_out * d_in)))

    def hs_adjoint(self) -> "SuperMap":
        """Adjoint with respect to <A, B> = Tr[A^dag B]."""
        c4 = self._c4().conj().transpose(1, 0, 3, 2)
        n = self.d_in * self.d_out
        return SuperMap(self.d_out, self.d_in, Operator(c4.reshape(n, n)))

    def jamiolkowski(self) -> Operator:
        j4 = self._c4().transpose(3, 0, 1, 2)
        n = self.d_in * self.d_out
        return Operator(j4.reshape(n, n))

    # -- predicates ---------------------------------------------------------

    def is_hp(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian-preserving, i.e. Hermitian Choi."""
        return self.choi.is_hermitian(tol)

    def is_cp(self, tol: float = DEFAULT_TOL) -> bool:
        """Completely positive, i.e. PSD Choi."""
        return self.choi.is_psd(tol)

    def is_tp(self, tol: float = DEFAULT_TOL) -> bool:
        """Trace-preserving:  Tr_out[choi] = I_in."""
        red = partial_trace(self.choi, (self.d_out, self.d_in), keep="second")
        return bool(np.abs(red.mat - np.eye(self.d_in)).max() <= tol)

    # -- linear structure ---------------------------------------------------

    def _check_same_dims(self, other):
        if (self.d_in, self.d_out) != (other.d_in, other.d_out):
            raise ValueError("supermap dimensions do not match")

    def __add__(self, other: "SuperMap") -> "SuperMap":
        self._check_same_dims(other)
        return SuperMap(self.d_in, self.d_out, self.choi + other.choi)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        self._check_same_dims(other)
        return SuperMap(self.d_in, self.d_out, self.choi - other.choi)

    def __mul__(self, scalar) -> "SuperMap":
        return SuperMap(self.d_in, self.d_out, self.choi * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperMap":
        return SuperMap(self.d_in, self.d_out, -self.choi)

    def __repr__(self):
        return f"SuperMap(d_in={self.d_in}, d_out={self.d_out})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"d_in": self.d_in, "d_out": self.d_out, "choi": self.choi.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "SuperMap":
        return cls(obj["d_in"], obj["d_out"], Operator.from_json(obj["choi"]))


# ---------------------------------------------------------------------------
# acting on one factor of a larger space


def apply_right(m: SuperMap, x, d_left: int) -> Operator:
    """(id_left (x) m)(x) for x on C^d_left (x) C^d_in."""
    xm = _raw(x)
    n = d_left * m.d_in
    if xm.shape != (n, n):
        raise ValueError(f"input must be {n}x{n}, got {xm.shape}")
    x4 = xm.reshape(d_left, m.d_in, d_left, m.d_in)
    out4 = np.einsum("uivj,aibj->aubv", m._c4(), x4)
    k = d_left * m.d_out
    return Operator(out4.reshape(k, k))


def apply_left(m: SuperMap, x, d_right: int) -> Operator:
    """(m (x) id_right)(x) for x on C^d_in (x) C^d_right."""
    xm = _raw(x)
    n = m.d_in * d_right
    if xm.shape != (n, n):
        raise ValueError(f"input must be {n}x{n}, got {xm.shape}")
    x4 = xm.reshape(m.d_in, d_right, m.d_in, d_right)
    out4 = np.einsum("uivj,iajb->uavb", m._c4(), x4)
    k = m.d_out * d_right
    return Operator(out4.reshape(k, k))


@dataclass(frozen=True)
class AffineDecomposition:
    """HPTP map written as lambda_plus * plus - lambda_minus * minus with CPTP parts."""

    lambda_plus: float
    lambda_minus: float
    map_plus: SuperMap
    map_minus: SuperMap

    def combined(self) -> SuperMap:
        """The map this decomposition represents."""
        return self.lambda_plus * self.map_plus - self.lambda_minus * self.map_minus
