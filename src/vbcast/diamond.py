"""Diamond-norm computation for Hermitian-preserving maps.

``diamond_bracket`` is the entry point.  It closes a certified bracket
``lower <= ||m||<> <= upper`` and reports its midpoint.  With J the
input-first Choi and n = d_in d_out, the norm is the value of the SDP

    max <J, Q0 - Q1>  s.t.  n x n Q0, Q1, S >= 0,  Q0 + Q1 + S = rho (x) I,  Tr rho = 1.

* one certificate, ``_dual_upper``, gives every upper bound: for any
  Hermitian Z shifted by t I so that Z - J >= 0 and Z + J >= 0,
  <J, Q0 - Q1> <= <Z, Q0 + Q1 + S> = Tr[rho Tr_out Z], so
  lambda_max(Tr_out Z) + t d_out bounds the norm.  The Jordan bound
  (``_jordan_certificate``) is Z = |J| = P + N for the split J = P - N,
  where t is rounding alone; it is tight for B, B - B+ and B_lambda.
* the reference-state lower bound -- when the Jordan bound is tight,
  complementary slackness puts an optimal primal reference state on the
  top eigenspace of K = Tr_out |J|, so the bracket takes rho0, the
  normalised projector onto that eigenspace, and bounds the norm from below
  by ``||(id (x) m)(w w^dag)||_1`` with w = vec sqrt(rho0).  For CP maps
  |J| = J and rho0 is optimal.  For covariant maps K = ||C||_1/d I and w is
  the maximally entangled input, so both bounds equal ||C||_1/d.  It is
  read off the exact coefficients in integers and rounded down and up by
  ``surd`` (``_covariant_bounds``), with no ``eigh``, no d^3 x d^3 array,
  no numpy and no ADMM: the bracket is exact, [d, d] for B, and one ulp
  wide where the norm is irrational.  A ``file:`` target of ``cli`` whose Choi is covariant
  arrives as its six coefficients too, so it has the bracket of the
  coefficients it holds.
* ``diamond_sdp`` -- the SDP above, solved by a self-contained ADMM
  splitting (affine projection / PSD projection / dual update) on the three
  blocks, which stops once the bracket certified by its dual variable and
  PSD iterate closes, or stops narrowing.  It serves dense maps the bounds
  above leave open, such as channel differences.

Every bound but the covariant one reads a dense Choi, so a pattern map
raises ValueError.

On a dense map every bound is rounded outward by ``float_slack`` of n, so
``lower <= upper`` holds despite rounding in the eigendecompositions.  That
rounding also sets ``gap_floor``, the narrowest bracket any certificate can
reach; below it ``diamond_bracket`` runs no ADMM.

A ``DiamondResult`` carries its witness as the unit input vector vec A: a
list of floats on the covariant path, an ndarray otherwise.  It is the
certificate of the lower bound, whose state vec A vec A^dag has d^2 times
as many entries; the ``diamond`` report of ``cli`` writes vec A itself.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import _lazy
from .densemat import trace_norm
from .supermap import SuperMap, choi_norm, surd

np = _lazy("numpy")

# ADMM step: penalty sigma of the augmented Lagrangian and over-relaxation alpha in [1, 2).
ADMM_PENALTY = 1.0
ADMM_OVER_RELAXATION = 1.6
ADMM_MAX_ITERATIONS = 50000
# ADMM steps per certified bracket; one certificate costs about as much as a step.
ADMM_CERTIFY_EVERY = 8
# Certificates in a row without a narrower best bracket, after which ADMM stops unconverged: 1024 steps, four
# times the longest stall of a converging run seen on seeded d -> d^2 channel differences (240 steps, at d = 4).
ADMM_STALL_CERTIFICATES = 128


def float_slack(n: int, value: float) -> float:
    """Rounding allowance of a norm ``value`` computed from n x n eigendecompositions.

    Every dense bound is one, with n = d_in d_out: the lower bounds, and the
    Jordan and ADMM upper bounds alike, whose certificate is n x n.
    Backward-stable ``eigh`` and the sums after it are exact for a matrix
    within O(n eps ||.||) of the true one; 16 n eps max(1, |value|) covers
    that with room to spare (5e-12 at n = 216, value = 6).  The machine
    epsilon is ``sys.float_info.epsilon``, the double ``np.finfo(float).eps``
    holds, so the allowance needs no numpy.
    """
    return float(16.0 * n * sys.float_info.epsilon * max(1.0, abs(value)))


class DiamondResult(NamedTuple):
    """A certified bracket lower <= ||m||<> <= upper, its midpoint and its witness input vec A."""

    value: float
    lower_bound: float
    upper_bound: float
    witness: list | np.ndarray
    iterations: int
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


# ---------------------------------------------------------------------------
# SDP via ADMM splitting


def _input_first_choi(m: SuperMap) -> np.ndarray:
    """sum_ij E_ij (x) m(E_ij) -- the Choi with the input factor first -- of a dense map."""
    if m.choi is None:
        raise ValueError("the dense bracket reads a dense Choi, which a covariant or pattern map does not hold")
    c4 = m.choi.mat.reshape(m.d_out, m.d_in, m.d_out, m.d_in)
    r4 = c4.transpose(1, 0, 3, 2)
    n = m.d_in * m.d_out
    return r4.reshape(n, n).copy()


def _trace_out(blk: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Partial trace over the output factor of a (d_in d_out)-square block, or a stack of them."""
    return np.einsum("...iuju->...ij", blk.reshape(*blk.shape[:-2], d_in, d_out, d_in, d_out))


def _hermitian(v: np.ndarray) -> np.ndarray:
    return (v + v.conj().swapaxes(-1, -2)) / 2


def _project_affine(v: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Orthogonal projection of Hermitian blocks (Q0, Q1, S) onto Q0 + Q1 + S = rho (x) I_out, Tr[rho] = 1.

    The nearest admissible sum is the projection of the blocks' sum, and the
    residual between the two is spread equally over the three blocks.
    """
    v = _hermitian(v)
    total = v.sum(axis=0)
    rho = _trace_out(total, d_in, d_out) / d_out
    rho = rho + np.eye(d_in) * ((1.0 - np.trace(rho).real) / d_in)
    return v + (np.kron(rho, np.eye(d_out)) - total) / 3


def _project_psd(v: np.ndarray) -> np.ndarray:
    """Nearest PSD blocks of a stack of Hermitian blocks: one batched ``eigh``."""
    vals, vecs = np.linalg.eigh(v)
    pos = np.clip(vals, 0.0, None)
    return (vecs * pos[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)


def _dual_upper(r: np.ndarray, z: np.ndarray, d_in: int, d_out: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Upper bound on the norm from any Hermitian Z, and the eigenpairs of Tr_out(Z + t I).

    Z + t I with t = max(0, -lambda_min(Z - R), -lambda_min(Z + R)) is dual
    feasible, so lambda_max(Tr_out Z) + t d_out, rounded up by
    ``float_slack``, bounds the norm.  The eigenvalues returned are those of
    Tr_out Z shifted by t d_out, in ascending order.
    """
    z = _hermitian(z)
    t = max(0.0, -float(np.linalg.eigvalsh(np.stack((z - r, z + r)))[:, 0].min()))
    vals, vecs = np.linalg.eigh(_trace_out(z, d_in, d_out))
    vals = vals + t * d_out
    value = float(vals[-1])
    return value + float_slack(d_in * d_out, value), vals, vecs


def _reference_lower(r: np.ndarray, rho: np.ndarray, d_in: int, d_out: int) -> tuple[float, np.ndarray]:
    """Lower bound and its input vec A from a candidate reference state rho.

    rho, clipped to PSD and normalised, gives A = sqrt(rho) with ||vec A|| = 1,
    so ||(A (x) I) R (A (x) I)||_1 = ||(id (x) m)(vec A vec A^dag)||_1 <= ||m||<>.
    """
    n = d_in * d_out
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    a = (vecs * np.sqrt(vals / vals.sum())[np.newaxis, :]) @ vecs.conj().T
    a_big = np.kron(a, np.eye(d_out))
    value = trace_norm(a_big @ r @ a_big)
    return value - float_slack(n, value), a.reshape(-1)


def diamond_sdp(m: SuperMap, tolerance: float = 1e-5) -> DiamondResult:
    """Certified diamond-norm bracket of a Hermitian-preserving map via ADMM.

    Splits the SDP on the blocks (Q0, Q1, S) into an affine part (their sum
    is rho (x) I with Tr rho = 1, plus the linear objective <R, Q0 - Q1>)
    and a PSD cone part, coupled by a scaled dual variable u.  Every
    ``ADMM_CERTIFY_EVERY`` steps certify an upper bound from the dual point
    Z = -sigma u_S (``_dual_upper``) and a lower bound with its witness from
    the reference state Tr_out(Q0 + Q1 + S) of the PSD iterate
    (``_reference_lower``).  The best bracket is reported by its midpoint
    once its gap is <= ``tolerance``, or with ``converged=False`` after
    ``ADMM_MAX_ITERATIONS`` steps or once ``ADMM_STALL_CERTIFICATES``
    certificates in a row have not narrowed it.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if not m.is_hp():
        raise ValueError("diamond_sdp requires a Hermitian-preserving map")

    d_in, d_out = m.d_in, m.d_out
    r = _input_first_choi(m)
    q = np.stack((r, -r, np.zeros_like(r)))

    sigma = ADMM_PENALTY
    alpha = ADMM_OVER_RELAXATION

    s = np.zeros_like(q)
    u = np.zeros_like(q)

    lower, upper, witness = -np.inf, np.inf, None
    iterations = stalled = 0
    while iterations < ADMM_MAX_ITERATIONS and upper - lower > tolerance and stalled < ADMM_STALL_CERTIFICATES:
        gap = upper - lower
        for _ in range(ADMM_CERTIFY_EVERY):
            m_var = _project_affine(s - u + q / sigma, d_in, d_out)
            m_relaxed = alpha * m_var + (1 - alpha) * s
            s = _project_psd(m_relaxed + u)
            u = u + m_relaxed - s
        iterations += ADMM_CERTIFY_EVERY

        upper = min(upper, _dual_upper(r, -sigma * u[2], d_in, d_out)[0])
        rho = _trace_out(s.sum(axis=0), d_in, d_out)
        if np.trace(rho).real > 0:  # the PSD iterate of an oscillating ADMM can vanish
            low, vec_a = _reference_lower(r, rho, d_in, d_out)
            if low > lower:
                lower, witness = low, vec_a
        stalled = stalled + 1 if upper - lower >= gap else 0

    return DiamondResult(
        value=(lower + upper) / 2,
        lower_bound=lower,
        upper_bound=upper,
        witness=witness,
        iterations=iterations,
        converged=upper - lower <= tolerance,
    )


# ---------------------------------------------------------------------------
# upper bounds and the certified bracket


def _jordan_abs(r: np.ndarray) -> np.ndarray:
    """|J| = P + N for the Jordan split J = P - N of a Hermitian J, which ``is_hp`` gated.

    The eigenpairs run in descending order, with C-contiguous vectors: the
    rounding of the product, and so the bytes of a ``file:`` report, depend
    on that order and layout.
    """
    vals, vecs = np.linalg.eigh(r)
    vals, v = vals[::-1], np.ascontiguousarray(vecs[:, ::-1])
    return (v * np.abs(vals)[np.newaxis, :]) @ v.conj().T


def _jordan_certificate(m: SuperMap) -> tuple[float, np.ndarray, np.ndarray]:
    """The Jordan upper bound, the reference state it suggests, and R.

    ``_dual_upper`` at Z = |J|, with |J| from one ``eigh`` of the
    input-first Choi R = J, gives the bound and the eigenpairs of
    K = Tr_out |J| (shifted by the rounding t d_out); rho0 is the normalised
    projector onto the eigenvectors of K within ``float_slack`` of its top
    eigenvalue.
    """
    if not m.is_hp():
        raise ValueError("the Jordan bound requires a Hermitian-preserving map")
    r = _input_first_choi(m)
    upper, vals, vecs = _dual_upper(r, _jordan_abs(r), m.d_in, m.d_out)
    top = float(vals[-1])
    v = vecs[:, vals >= top - float_slack(m.d_in * m.d_out, top)]
    return upper, (v @ v.conj().T) / v.shape[1], r


def _covariant_bounds(m: SuperMap) -> tuple[float, float, list[float]]:
    """The exact bracket of a covariant map's diamond norm, and its input vec A.

    Tr_out |J| commutes with every Ubar, so it is ||C||_1 / d times I: the
    Jordan bound is ||C||_1 / d, rho0 is I/d, and A = I/sqrt(d) gives the
    lower bound ||(A (x) I) R (A (x) I)||_1 = ||C||_1 / d as well, the
    surd of ``choi_norm`` over d, which ``surd`` rounds down and up.
    vec A is 1/sqrt(d) at the diagonal positions i (d + 1), 0.0 elsewhere.
    """
    if not m.is_hp():
        raise ValueError("the Jordan bound requires a Hermitian-preserving map")
    d, (p, q, w, r) = m.d_in, choi_norm(m)
    lower, upper = (surd(p, q, w, d * r, mode) for mode in ("down", "up"))
    entry = 1.0 / math.sqrt(d)
    vec_a = [0.0] * (d * d)
    vec_a[:: d + 1] = [entry] * d
    return lower, upper, vec_a


def gap_floor(m: SuperMap, lower: float, upper: float) -> float:
    """The narrowest bracket of m that any certificate can reach from the bracket [lower, upper]: at most its gap.

    A covariant map's bracket is exact, so its floor is its gap.  On a dense
    map each certified lower bound is a value v' <= ||m||<> rounded down by
    ``float_slack(n, v')``, and a lower bound that improves on ``lower`` has
    v' > ``lower``, so every bracket is at least ``float_slack(n, lower)``
    wide; every upper bound, Jordan or ADMM, comes from the one n x n
    certificate and is rounded up by at least as much again.
    """
    if m.coeffs is not None:
        return upper - lower
    return min(2 * float_slack(m.d_in * m.d_out, max(lower, 0.0)), upper - lower)


def diamond_bracket(m: SuperMap, tolerance: float = 1e-5) -> DiamondResult:
    """Certified bracket lower <= ||m||<> <= upper, reporting its midpoint.

    A covariant map's bracket is exact (``_covariant_bounds``), read off its
    coefficients with no ``eigh`` and no ADMM.  Otherwise the upper bound is
    the Jordan bound, and the lower bound and its witness come from the
    reference state on the top eigenspace of Tr_out |J|; a bracket closed
    that way has 0 iterations.  If it is still open, ``diamond_sdp`` runs,
    and the bracket is the larger lower and the smaller upper bound of the
    two, with the SDP's iteration count.  A ``tolerance`` below ``gap_floor``
    can never be met, so the SDP is not run.  The bracket is ``converged``
    when its gap is <= ``tolerance``.  A pattern map, which holds no dense
    Choi, raises ValueError.
    """
    iterations = 0
    if m.coeffs is not None:
        lower, up, witness = _covariant_bounds(m)
    else:
        up, rho0, r = _jordan_certificate(m)
        lower, witness = _reference_lower(r, rho0, m.d_in, m.d_out)
        if gap_floor(m, lower, up) <= tolerance < up - lower:
            sdp = diamond_sdp(m, tolerance)
            if sdp.lower_bound > lower:
                lower, witness = sdp.lower_bound, sdp.witness
            up = min(up, sdp.upper_bound)
            iterations = sdp.iterations
    return DiamondResult(
        value=(lower + up) / 2,
        lower_bound=lower,
        upper_bound=up,
        witness=witness,
        iterations=iterations,
        converged=up - lower <= tolerance,
    )

