"""Dense map operations that only the tests use.

The identity operator, the maximally entangled operator Omega, the
descending-order Hermitian eigensolver ``eigh``, the witness state of a
diamond bracket, maps built from their action on matrix units, the
identity map, composition, tensor products, Hilbert-Schmidt adjoints, action on the left
or right factor of a product space, decoherence in a chosen orthonormal basis, and
the unitarity and positivity tests of an operator.
No ``vbcast`` command needs them, so they live here, on top of the
library's ``SuperMap`` and ``Operator``.
"""

import numpy as np

from vbcast.densemat import DEFAULT_TOL, Operator, _raw
from vbcast.supermap import SuperMap


def identity(d: int) -> Operator:
    return Operator(np.eye(d))


def omega(d: int) -> Operator:
    """Unnormalized maximally entangled operator sum_ij |ii><jj| on C^d (x) C^d."""
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + i, j * d + j] = 1.0
    return Operator(m)


def eigh(h) -> tuple[np.ndarray, Operator]:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    Returns (values, vectors) with values real in descending order and
    vectors unitary, columns matching values:  h = V diag(values) V^dag.
    Raises on input that is not Hermitian within ``DEFAULT_TOL``.
    """
    m = _raw(h)
    if m.shape[0] != m.shape[1] or np.abs(m - m.conj().T).max() > DEFAULT_TOL:
        raise ValueError("eigh requires a Hermitian operator")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), Operator(vecs[:, ::-1])


def witness_state(result) -> Operator:
    """The witness state vec A vec A^dag of a ``DiamondResult``, from its input vec A."""
    w = np.asarray(result.witness)
    return Operator(np.outer(w, w.conj()))


def from_action(d_in: int, d_out: int, action) -> SuperMap:
    """Build the Choi by evaluating ``action`` on every matrix unit E_ij."""
    c4 = np.zeros((d_out, d_in, d_out, d_in), dtype=np.complex128)
    e = np.zeros((d_in, d_in), dtype=np.complex128)
    for i in range(d_in):
        for j in range(d_in):
            e[i, j] = 1.0
            out = _raw(action(Operator(e)))
            if out.shape != (d_out, d_out):
                raise ValueError(f"action returned shape {out.shape}, expected ({d_out}, {d_out})")
            c4[:, i, :, j] = out
            e[i, j] = 0.0
    n = d_out * d_in
    return SuperMap(d_in, d_out, Operator(c4.reshape(n, n)))


def identity_map(d: int) -> SuperMap:
    return SuperMap(d, d, omega(d))


def compose(outer: SuperMap, inner: SuperMap) -> SuperMap:
    """outer after inner:  (outer . inner)(x) = outer(inner(x))."""
    if inner.d_out != outer.d_in:
        raise ValueError(f"cannot compose: inner dims {inner.d_out} (out) vs {outer.d_in} (in)")
    c4 = np.einsum("ukvl,kilj->uivj", outer._c4(), inner._c4())
    n = outer.d_out * inner.d_in
    return SuperMap(inner.d_in, outer.d_out, Operator(c4.reshape(n, n)))


def tensor(first: SuperMap, second: SuperMap) -> SuperMap:
    """Tensor product map, ``first`` on the first factor."""
    c8 = np.einsum("uivj,apbq->uaipvbjq", first._c4(), second._c4())
    d_in = first.d_in * second.d_in
    d_out = first.d_out * second.d_out
    return SuperMap(d_in, d_out, Operator(c8.reshape(d_out * d_in, d_out * d_in)))


def hs_adjoint(m: SuperMap) -> SuperMap:
    """Adjoint with respect to <A, B> = Tr[A^dag B]."""
    c4 = m._c4().conj().transpose(1, 0, 3, 2)
    n = m.d_in * m.d_out
    return SuperMap(m.d_out, m.d_in, Operator(c4.reshape(n, n)))


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


def dagger(o: Operator) -> Operator:
    return Operator(o.mat.conj().T)


def conjugate(u: Operator, x: Operator) -> Operator:
    """U X U^dag."""
    return Operator(u.mat @ x.mat @ u.mat.conj().T)


def is_unitary(o: Operator, tol: float = DEFAULT_TOL) -> bool:
    if o.rows != o.cols:
        return False
    return np.abs(o.mat.conj().T @ o.mat - np.eye(o.rows)).max() <= tol


def is_psd(o: Operator, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian with spectrum bounded below by ``-tol``."""
    return bool(o.is_hermitian(tol) and np.linalg.eigvalsh(o.mat).min() >= -tol)


def decoherence_in(basis: Operator) -> SuperMap:
    """Full decoherence in the basis of the columns b_i:  Choi  sum_i |b_i><b_i| (x) |conj b_i><conj b_i|."""
    if not is_unitary(basis):
        raise ValueError("basis must be unitary")
    d, v = basis.rows, basis.mat
    x = np.einsum("ai,bi->iab", v, v.conj()).reshape(d, d * d)
    return SuperMap(d, d, Operator(x.T @ x.conj()))
