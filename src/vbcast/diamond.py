"""Diamond-norm computation for Hermitian-preserving maps.

``diamond_bracket`` is the entry point.  It closes a certified bracket
``lower <= ||m||<> <= upper`` and reports its midpoint:

* the Jordan upper bound (``_jordan_certificate``) -- with the Jordan
  split J = P - N of the input-first Choi, Y0 = Y1 = P + N = |J| is
  feasible for the dual SDP of Watrous (arXiv:1207.5726), since
  [[|J|, -J], [-J, |J|]] = P (x) [[1, -1], [-1, 1]] + N (x) [[1, 1], [1, 1]],
  so ``||K||_inf`` with K = Tr_out |J| bounds the norm from above.  One
  ``eigh`` of J gives it.  It is tight for B, B - B+ and B_lambda.
* the reference-state lower bound -- when the Jordan bound is tight,
  complementary slackness puts an optimal primal reference state on the
  top eigenspace of K, so the bracket takes rho0, the normalised projector
  onto that eigenspace, and bounds the norm from below by
  ``||(id (x) m)(w w^dag)||_1`` with w = vec sqrt(rho0).  For CP maps
  |J| = J and rho0 is optimal.  For covariant maps K = ||C||_1/d I and w is
  the maximally entangled input, so both bounds equal ||C||_1/d.  It is
  read off the exact coefficients in integers and rounded down and up by
  ``surd`` (``_covariant_bounds``), with no ``eigh``, no d^3 x d^3 array,
  no numpy and no ADMM: the bracket is exact, [d, d] for B, and one ulp
  wide where the norm is irrational.  A ``file:`` target of ``cli`` whose Choi is covariant
  arrives as its six coefficients too, so it has the bracket of the
  coefficients it holds.
* ``diamond_sdp`` -- the semidefinite characterization
  ``max Re<R, X>  s.t.  [[rho0 (x) I, X], [X^dag, rho1 (x) I]] >= 0``
  with R the input-first Choi operator, solved by a self-contained ADMM
  splitting (affine projection / PSD projection / dual update) that stops
  once the bracket certified by its dual variable and PSD iterate closes.
  It serves dense maps the bounds above leave open, such as channel
  differences.

On a dense map every bound is rounded outward by ``float_slack``, so
``lower <= upper`` holds despite rounding in the eigendecompositions.  That
rounding also sets ``gap_floor``, the narrowest bracket any certificate can
reach; below it ``diamond_bracket`` runs no ADMM.  ``hptp_upper`` --
lambda_plus + lambda_minus of a CPTP decomposition, an upper bound because
channels have diamond norm one -- validates the quasi-sampler's split at the
map gate ``HP_TOL`` and gives its overhead.

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
from .supermap import HP_TOL, AffineDecomposition, SuperMap, covariant_blocks, surd

np = _lazy("numpy")

# ADMM step: penalty sigma of the augmented Lagrangian and over-relaxation alpha in [1, 2).
ADMM_PENALTY = 1.0
ADMM_OVER_RELAXATION = 1.6
ADMM_MAX_ITERATIONS = 50000
# ADMM steps per certified bracket; one certificate costs about as much as a step.
ADMM_CERTIFY_EVERY = 8


def float_slack(n: int, value: float) -> float:
    """Rounding allowance of a norm ``value`` computed from n x n eigendecompositions.

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
    """sum_ij E_ij (x) m(E_ij) -- the Choi with the input factor first."""
    c4 = m.choi.mat.reshape(m.d_out, m.d_in, m.d_out, m.d_in)
    r4 = c4.transpose(1, 0, 3, 2)
    n = m.d_in * m.d_out
    return r4.reshape(n, n).copy()


def _trace_out(blk: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Partial trace over the output factor of a (d_in d_out)-square block."""
    return np.einsum("iuju->ij", blk.reshape(d_in, d_out, d_in, d_out))


def _project_affine(v: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Orthogonal projection onto Hermitian block matrices with diagonal
    blocks of the form rho (x) I_out, Tr[rho] = 1."""
    n = d_in * d_out
    v = (v + v.conj().T) / 2
    out = v.copy()
    for b in (0, 1):
        blk = v[b * n : (b + 1) * n, b * n : (b + 1) * n]
        rho = _trace_out(blk, d_in, d_out) / d_out
        rho = rho + np.eye(d_in) * ((1.0 - np.trace(rho).real) / d_in)
        out[b * n : (b + 1) * n, b * n : (b + 1) * n] = np.einsum(
            "ij,uv->iujv", rho, np.eye(d_out)
        ).reshape(n, n)
    return out


def _project_psd(v: np.ndarray) -> np.ndarray:
    v = (v + v.conj().T) / 2
    vals, vecs = np.linalg.eigh(v)
    pos = np.clip(vals, 0.0, None)
    return (vecs * pos[np.newaxis, :]) @ vecs.conj().T


def _dual_upper(r: np.ndarray, u: np.ndarray, d_in: int, d_out: int) -> tuple[float, np.ndarray]:
    """Upper bound on the SDP, and its dual point Z, from any Hermitian u.

    Z = -sigma u with its off-diagonal blocks set to -R/2, -R^dag/2 and
    shifted by t I, t = max(0, -lambda_min), is PSD.  For every feasible M,
    <Q, M> <= <Q + Z, M> = Tr[(Tr_out Z00) rho0] + Tr[(Tr_out Z11) rho1],
    so the sum of the top eigenvalues of the two reduced diagonal blocks
    bounds the norm; the Jordan bound is Z = [[|J|, -J], [-J, |J|]] / 2.
    """
    n = d_in * d_out
    z = -ADMM_PENALTY * (u + u.conj().T) / 2
    z[:n, n:] = -r / 2
    z[n:, :n] = -r.conj().T / 2
    z += max(0.0, -float(np.linalg.eigvalsh(z)[0])) * np.eye(2 * n)
    blocks = (z[:n, :n], z[n:, n:])
    value = sum(float(np.linalg.eigvalsh(_trace_out(b, d_in, d_out))[-1]) for b in blocks)
    return value + float_slack(2 * n, value), z


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

    Splits the SDP into an affine part (block structure, unit-trace
    reference states, linear objective) and a PSD cone part, coupled by a
    scaled dual variable.  Every ``ADMM_CERTIFY_EVERY`` steps certify an
    upper bound from the dual variable (``_dual_upper``) and a lower bound
    with its witness from the reference state Tr_out(s00 + s11) of the PSD
    iterate (``_reference_lower``).  The best bracket is reported by its
    midpoint once its gap is <= ``tolerance``, or with ``converged=False``
    after ``ADMM_MAX_ITERATIONS`` steps.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if not m.is_hp():
        raise ValueError("diamond_sdp requires a Hermitian-preserving map")

    d_in, d_out = m.d_in, m.d_out
    n = d_in * d_out
    big = 2 * n

    r = _input_first_choi(m)
    q = np.zeros((big, big), dtype=np.complex128)
    q[:n, n:] = r / 2
    q[n:, :n] = r.conj().T / 2

    sigma = ADMM_PENALTY
    alpha = ADMM_OVER_RELAXATION

    s = np.zeros((big, big), dtype=np.complex128)
    u = np.zeros((big, big), dtype=np.complex128)

    lower, upper, witness = -np.inf, np.inf, None
    iterations = 0
    while iterations < ADMM_MAX_ITERATIONS and upper - lower > tolerance:
        for _ in range(ADMM_CERTIFY_EVERY):
            m_var = _project_affine(s - u + q / sigma, d_in, d_out)
            m_relaxed = alpha * m_var + (1 - alpha) * s
            s = _project_psd(m_relaxed + u)
            u = u + m_relaxed - s
        iterations += ADMM_CERTIFY_EVERY

        upper = min(upper, _dual_upper(r, u, d_in, d_out)[0])
        rho = _trace_out(s[:n, :n] + s[n:, n:], d_in, d_out)
        low, vec_a = _reference_lower(r, rho, d_in, d_out)
        if low > lower:
            lower, witness = low, vec_a

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

    K = Tr_out |J| is reduced from one ``eigh`` of the input-first Choi R = J;
    one ``eigh`` of K gives the bound lambda_max(K), rounded up by
    ``float_slack``, and rho0, the normalised projector onto the eigenvectors
    of K within that slack of lambda_max.
    """
    if not m.is_hp():
        raise ValueError("the Jordan bound requires a Hermitian-preserving map")
    r = _input_first_choi(m)
    vals, vecs = np.linalg.eigh(_trace_out(_jordan_abs(r), m.d_in, m.d_out))
    top = float(vals[-1])
    slack = float_slack(m.d_in * m.d_out, top)
    v = vecs[:, vals >= top - slack]
    return top + slack, (v @ v.conj().T) / v.shape[1], r


def _covariant_bounds(m: SuperMap) -> tuple[float, float, list[float]]:
    """The exact bracket of a covariant map's diamond norm, and its input vec A.

    Tr_out |J| commutes with every Ubar, so it is ||C||_1 / d times I: the
    Jordan bound is ||C||_1 / d, rho0 is I/d, and A = I/sqrt(d) gives the
    lower bound ||(A (x) I) R (A (x) I)||_1 = ||C||_1 / d as well.  From
    ``covariant_blocks``, |lambda+| + |lambda-| = max(|s|, sqrt(w)) / den, so
    ||C||_1 / d = (K + d sqrt(max(s^2, w))) / (d den) with K = m1 |a| + m2 |b|
    (m1, m2 the multiplicities of a and b), which ``surd`` rounds down and up.
    vec A is 1/sqrt(d) at the diagonal positions i (d + 1), 0.0 elsewhere.
    """
    if not m.is_hp():
        raise ValueError("the Jordan bound requires a Hermitian-preserving map")
    d = m.d_in
    den, a, b, s, w = covariant_blocks(d, m.exact)
    rational = (d * d * (d + 1) // 2 - d) * abs(a) + (d * d * (d - 1) // 2 - d) * abs(b)
    lower, upper = (surd(rational, d, max(s * s, w), d * den, mode) for mode in ("down", "up"))
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
    wide; each upper bound is rounded up by as much again.
    """
    if m.exact is not None:
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
    when its gap is <= ``tolerance``.
    """
    iterations = 0
    if m.exact is not None:
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


def hptp_upper(decomposition: AffineDecomposition) -> float:
    """lambda_plus + lambda_minus of a validated split; channels have diamond norm 1.

    It bounds the diamond norm of the split's map and is the quasi-sampler's
    l1 overhead.  It raises ``ValueError`` unless both
    weights are non-negative and not both zero, the parts share their
    dimensions, and both parts are CPTP within ``HP_TOL``; covariant parts
    are tested on their closed-form spectrum.
    """
    lp, lm = float(decomposition.lambda_plus), float(decomposition.lambda_minus)
    if not (lp >= 0 and lm >= 0):
        raise ValueError(f"decomposition weights must be non-negative, got {lp} and {lm}")
    if lp + lm == 0:
        raise ValueError("all-zero weights cannot represent a map")
    plus, minus = decomposition.map_plus, decomposition.map_minus
    if (plus.d_in, plus.d_out) != (minus.d_in, minus.d_out):
        raise ValueError("decomposition parts have different dimensions")
    for part, name in ((plus, "plus"), (minus, "minus")):
        if not (part.is_cp() and part.is_tp()):
            raise ValueError(f"decomposition {name}-part is not CPTP within HP_TOL = {HP_TOL:g}")
    return lp + lm
