"""Dense map operations that only the tests use.

The dense Choi of any map (``dense_choi``, filled by pattern for a
covariant or pattern map, which holds none), its 4-tensor, Jamiolkowski
operator and action, sums, differences and scalar multiples of maps on
their dense Chois, the dense CP and TP tests and the exact CP test of a
structured map (``exact_cp``); the largest entry and
the trace of an operator, the identity operator, the maximally entangled
operator Omega, Kronecker products and partial traces on two-factor
tensor spaces, SWAP, the descending-order Hermitian eigensolver ``eigh``, the
witness state of a diamond bracket, maps built from their action on
matrix units, the identity map, composition, tensor products,
Hilbert-Schmidt adjoints, action on the left or right factor of a product
space, decoherence in a chosen orthonormal basis, the unitarity and
positivity tests of an operator, the state over time E * rho of a
broadcaster (``star``; ``vbcast.sot`` states its reduction to the
broadcaster's axioms), and the dense Choi JSON layout that
``diamond --target file:`` reads (``operator_doc``).
No ``vbcast`` command needs them, so they live here, on top of the
library's ``SuperMap`` and ``Operator``.
"""

import numpy as np

from vbcast.cli import _Indexed
from vbcast.densemat import DEFAULT_TOL, Operator, _raw
from vbcast.supermap import HP_TOL, SuperMap, _surd_spectrum, pattern_floats, pattern_positions, surd_sign


def dense_choi(m: SuperMap) -> Operator:
    """m's Choi: a dense map's own; a structured map's, each ``pattern_floats`` value at its ``pattern_positions``."""
    if m.choi is not None:
        return m.choi
    n = m.d_out * m.d_in
    choi = np.zeros(n * n, dtype=np.complex128)
    for pattern, value in pattern_floats(m).items():
        choi[list(pattern_positions(m.d_in, pattern))] = value
    return Operator(choi.reshape(n, n))


def dense(m: SuperMap) -> SuperMap:
    """m as a dense map, built from its ``dense_choi``."""
    return SuperMap(m.d_in, m.d_out, dense_choi(m))


def c4(m: SuperMap) -> np.ndarray:
    """The ``dense_choi`` as a 4-tensor indexed [out, in, out', in']."""
    return dense_choi(m).mat.reshape(m.d_out, m.d_in, m.d_out, m.d_in)


def jamiolkowski(m: SuperMap) -> Operator:
    """sum_ij E_ij (x) m(E_ji), on C^d_in (x) C^d_out."""
    n = m.d_in * m.d_out
    return Operator(c4(m).transpose(3, 0, 1, 2).reshape(n, n))


def apply(m: SuperMap, x) -> Operator:
    """m(x) = Tr_in[choi (I_out (x) x^T)] for any map, from its ``dense_choi``."""
    xm = _raw(x)
    if xm.shape != (m.d_in, m.d_in):
        raise ValueError(f"input must be {m.d_in}x{m.d_in}, got {xm.shape}")
    return Operator(np.einsum("uivj,ij->uv", c4(m), xm))


def dense_add(a: SuperMap, b: SuperMap) -> SuperMap:
    """a + b on the dense Chois."""
    return SuperMap(a.d_in, a.d_out, Operator(dense_choi(a).mat + dense_choi(b).mat))


def dense_sub(a: SuperMap, b: SuperMap) -> SuperMap:
    """a - b on the dense Chois."""
    return SuperMap(a.d_in, a.d_out, Operator(dense_choi(a).mat - dense_choi(b).mat))


def dense_scale(m: SuperMap, scalar) -> SuperMap:
    """scalar * m on the dense Choi."""
    return SuperMap(m.d_in, m.d_out, Operator(dense_choi(m).mat * scalar))


def is_cp(m: SuperMap, tol: float = HP_TOL) -> bool:
    """Completely positive: ``is_psd`` of the dense Choi."""
    return is_psd(dense_choi(m), tol)


def exact_cp(m: SuperMap) -> bool:
    """Completely positive, exactly: m is HP and its smallest ``_surd_spectrum`` pair is >= 0 by ``surd_sign``.

    A map without an exact spectrum, dense or a pattern map that is not diagonal, raises ValueError.
    """
    if not m.is_hp():
        return False
    _, w, pairs = _surd_spectrum(m)
    return surd_sign(*pairs[-1][0], w) >= 0


def is_tp(m: SuperMap, tol: float = HP_TOL) -> bool:
    """Trace-preserving: Tr_out of the dense Choi is I_in within ``tol``."""
    red = partial_trace(dense_choi(m), (m.d_out, m.d_in), keep="second")
    return bool(np.abs(red.mat - np.eye(m.d_in)).max() <= tol)


def absmax(x) -> float:
    """Largest absolute entry of an Operator or array."""
    return float(np.abs(_raw(x)).max())


def trace(x) -> complex:
    """Trace of an Operator or array."""
    return complex(np.trace(_raw(x)))


def operator_doc(op) -> dict:
    """An operator as {rows, cols, re, im}, its row-major parts ``_Indexed`` with one index per entry."""
    mat = _raw(op)
    n_rows, n_cols = mat.shape
    flat = mat.ravel().tolist()
    rows = [list(range(r * n_cols, (r + 1) * n_cols)) for r in range(n_rows)]
    re, im = [z.real for z in flat], [z.imag for z in flat]
    return {"rows": n_rows, "cols": n_cols, "re": _Indexed(re, rows), "im": _Indexed(im, rows)}


def identity(d: int) -> Operator:
    return Operator(np.eye(d))


def swap(d: int) -> Operator:
    """SWAP on C^d (x) C^d:  sum_ij |i><j| (x) |j><i|."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return Operator(s)


def omega(d: int) -> Operator:
    """Unnormalized maximally entangled operator sum_ij |ii><jj| on C^d (x) C^d."""
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + i, j * d + j] = 1.0
    return Operator(m)


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
    out4 = np.einsum("ukvl,kilj->uivj", c4(outer), c4(inner))
    n = outer.d_out * inner.d_in
    return SuperMap(inner.d_in, outer.d_out, Operator(out4.reshape(n, n)))


def tensor(first: SuperMap, second: SuperMap) -> SuperMap:
    """Tensor product map, ``first`` on the first factor."""
    c8 = np.einsum("uivj,apbq->uaipvbjq", c4(first), c4(second))
    d_in = first.d_in * second.d_in
    d_out = first.d_out * second.d_out
    return SuperMap(d_in, d_out, Operator(c8.reshape(d_out * d_in, d_out * d_in)))


def hs_adjoint(m: SuperMap) -> SuperMap:
    """Adjoint with respect to <A, B> = Tr[A^dag B]."""
    adj4 = c4(m).conj().transpose(1, 0, 3, 2)
    n = m.d_in * m.d_out
    return SuperMap(m.d_out, m.d_in, Operator(adj4.reshape(n, n)))


def apply_right(m: SuperMap, x, d_left: int) -> Operator:
    """(id_left (x) m)(x) for x on C^d_left (x) C^d_in."""
    xm = _raw(x)
    n = d_left * m.d_in
    if xm.shape != (n, n):
        raise ValueError(f"input must be {n}x{n}, got {xm.shape}")
    x4 = xm.reshape(d_left, m.d_in, d_left, m.d_in)
    out4 = np.einsum("uivj,aibj->aubv", c4(m), x4)
    k = d_left * m.d_out
    return Operator(out4.reshape(k, k))


def apply_left(m: SuperMap, x, d_right: int) -> Operator:
    """(m (x) id_right)(x) for x on C^d_in (x) C^d_right."""
    xm = _raw(x)
    n = m.d_in * d_right
    if xm.shape != (n, n):
        raise ValueError(f"input must be {n}x{n}, got {xm.shape}")
    x4 = xm.reshape(m.d_in, d_right, m.d_in, d_right)
    out4 = np.einsum("uivj,iajb->uavb", c4(m), x4)
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


def star(e: SuperMap, rho: Operator, b: SuperMap) -> Operator:
    """E * rho = (id (x) E)(b(rho)) for a broadcaster b: d -> d*d, on (input system, output system).

    E is a dense map, read off its Choi, and b a covariant one (``SuperMap.apply``).
    """
    d = b.d_in
    if b.d_out != d * d:
        raise ValueError("broadcaster must map d -> d^2")
    if e.d_in != d:
        raise ValueError(f"channel input dim {e.d_in} does not match state dim {d}")
    if rho.rows != d or rho.cols != d:
        raise ValueError(f"rho must be {d}x{d}")
    c4 = e.choi.mat.reshape(e.d_out, d, e.d_out, d)  # [out, in, out', in']
    x4 = b.apply(rho).mat.reshape(d, d, d, d)
    n = d * e.d_out
    return Operator(np.einsum("uivj,aibj->aubv", c4, x4).reshape(n, n))


def decoherence_in(basis: Operator) -> SuperMap:
    """Full decoherence in the basis of the columns b_i:  Choi  sum_i |b_i><b_i| (x) |conj b_i><conj b_i|."""
    if not is_unitary(basis):
        raise ValueError("basis must be unitary")
    d, v = basis.rows, basis.mat
    x = np.einsum("ai,bi->iab", v, v.conj()).reshape(d, d * d)
    return SuperMap(d, d, Operator(x.T @ x.conj()))
