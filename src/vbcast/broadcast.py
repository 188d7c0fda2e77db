"""The virtual broadcasting map, its relatives, and its characterizing axioms.

The canonical broadcaster is the HPTP map

    B(rho) = (1/2) { rho (x) I , SWAP }

whose two marginals both reproduce rho.  This module constructs B, the
optimal-cloner and antisymmetric channels whose affine combination it is,
the decohered/classical variants, and the one-parameter commutator family
B_lambda, all from closed-form Choi operators.

Covariant maps are six coefficients over the table of partially
transposed factor permutations (``vbcast.supermap``).  Their span is
described by one integer Gram matrix, Tr[P_s^T P_t] = d^c(t s^-1) with c
counting cycles; its rank k (5 at d = 2, 6 above) is the dimension of
the span, so no dense basis is ever built.  ``check_axioms`` reads all
four axioms exactly, with no sampling.  On a covariant map, covariance is
0 by construction, and each linear residual (both marginals, permutation
symmetry, classical consistency) takes one value per equality pattern of
its labels (``_axiom_patterns``): an integer row of six numbers, an
integer target and a count, so its largest entry is a maximum over at
most 203 rows, computed with the standard library alone.  On a dense map,
covariance is the distance to the span, whose projection solves the Gram
against the Choi's six overlaps with the table, and the residuals are
taken entry by entry.  ``verify_uniqueness`` ranks the integer pattern
rows over the six coefficients: the nullity is k minus that rank, both
ranks taken by fraction-free integer elimination.  The dense residual
system is kept in the tests as the reference.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _lazy_numpy
from .densemat import S3, Operator
from .supermap import (
    AffineDecomposition,
    SuperMap,
    _cycles,
    _require_dim,
    covariant_map,
    equality_patterns,
    omega,
    table_entries,
    table_support,
)

np = _lazy_numpy()


def canonical_b(d: int) -> SuperMap:
    """The virtual broadcasting map rho -> (1/2){rho (x) I, SWAP}."""
    return family_b_lambda(d, 0.0)


def _b_lambda_coeffs(lam: float) -> tuple:
    return (0, 0, 0, 0, 0.5 - 1j * lam, 0.5 + 1j * lam)


def family_b_lambda(d: int, lam: float) -> SuperMap:
    """Commutator deformation (1/2){rho (x) I, S} + i*lam*[rho (x) I, S].

    HPTP and trace-preserving for every real lam; permutation-symmetric
    only at lam = 0.  Its Choi is (1/2){Omega_13, S_12} + i*lam*[Omega_13, S_12]
    with S_12 = P_(12) and Omega_13 = P_(13) partially transposed on the input.
    """
    return covariant_map(d, _b_lambda_coeffs(lam))


def cloner(d: int) -> SuperMap:
    """Optimal universal cloning channel  rho -> 2/(d+1) P+ (I (x) rho) P+."""
    _require_dim(d)
    return covariant_map(d, [c / (2 * (d + 1)) for c in (0, 0, 1, 1, 1, 1)])


def antisym(d: int) -> SuperMap:
    """Antisymmetric counterpart  rho -> 2/(d-1) P- (I (x) rho) P-."""
    _require_dim(d)
    return covariant_map(d, [c / (2 * (d - 1)) for c in (0, 0, 1, 1, -1, -1)])


def canonical_decomposition(d: int) -> AffineDecomposition:
    """B = (d+1)/2 * cloner - (d-1)/2 * antisym, both parts CPTP."""
    return AffineDecomposition((d + 1) / 2, (d - 1) / 2, cloner(d), antisym(d))


def decoherence(d: int) -> SuperMap:
    """Full decoherence in the computational basis:  Choi  sum_i |i><i| (x) |i><i|."""
    choi = np.zeros((d * d, d * d))
    diag = np.arange(d) * (d + 1)
    choi[diag, diag] = 1.0
    return SuperMap(d, d, Operator(choi))


def classical_bcl(d: int) -> SuperMap:
    """Classical broadcaster  |i><j| -> delta_ij |ii><ii|:  Choi  sum_i |ii><ii| (x) |i><i|."""
    _require_dim(d)
    choi = np.zeros((d**3, d**3))
    diag = np.arange(d) * (d * d + d + 1)
    choi[diag, diag] = 1.0
    return SuperMap(d, d * d, Operator(choi))


# ---------------------------------------------------------------------------
# the commutant core


def commutant_gram(d: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix  Tr[P_s^T P_t] = d^c(t s^-1)  of the table elements, c counting cycles: 6 x 6 ints.

    Partial transposition preserves the Hilbert-Schmidt product, and
    P_s^T P_t fixes the basis states whose labels agree on each cycle.
    """
    _require_dim(d)
    return tuple(tuple(d ** _cycles(tuple(t[s.index(i)] for i in range(3))) for t in S3) for s in S3)


def _primitive(row) -> tuple[int, ...] | None:
    """The integer row divided by the gcd of its entries, leading entry positive; None for a zero row."""
    lead = next((v for v in row if v), 0)
    if not lead:
        return None
    g = math.gcd(*row) * (1 if lead > 0 else -1)
    return tuple(v // g for v in row)


def _exact_rank(rows) -> int:
    """Rank over the rationals of integer rows, by fraction-free Gaussian elimination.

    Row operations  pivot[col] * row - row[col] * pivot  keep the rows
    integer and the rank exact.  Rows are kept primitive in a set, so
    repeated and parallel rows are eliminated once, and each step updates
    only the rows that have an entry in the pivot's column.
    """
    rest = {_primitive(row) for row in rows} - {None}
    rank = 0
    while rest:
        pivot = rest.pop()
        col = next(j for j, v in enumerate(pivot) if v)
        rest = {
            _primitive([pivot[col] * a - row[col] * b for a, b in zip(row, pivot)]) if row[col] else row
            for row in rest
        }
        rest.discard(None)
        rank += 1
    return rank


def commutant_projection(choi: Operator, d: int) -> Operator:
    """Orthogonal projection of a Choi operator on C^d (x) C^d (x) C^d onto the covariant span.

    This is the Haar twirl  Integral W C W+ dU  with W = U (x) U (x) Ubar.
    Each overlap  <P_j^T3, C>  sums C over the d^3 entries where table
    element j is 1, in the ascending order of ``table_support``, and the
    coefficients x solve  Gram x = overlaps.  With k the Gram's rank, the
    first k table elements are independent: at d = 2 the one dependency is
    the antisymmetrizer, whose six signs are all nonzero, so any five
    elements are.  So the leading k x k block is solved against the first
    k overlaps and the rest of x is zero.
    """
    flat = choi.mat.ravel()
    support = table_support(d)
    overlaps = np.array([flat[[pos for pos, mask in support if mask >> j & 1]].sum() for j in range(6)])
    gram = commutant_gram(d)
    k = _exact_rank(gram)
    x = np.zeros(6, dtype=complex)
    x[:k] = np.linalg.solve(np.array(gram, dtype=float)[:k, :k], overlaps[:k])
    return covariant_map(d, x).choi


def _permutation_residual(c: np.ndarray, d: int) -> np.ndarray:
    """S_12 C S_12 - C: swapping the two outputs must leave the Choi unchanged."""
    c6 = c.reshape((d,) * 6)
    return c6.transpose(1, 0, 2, 4, 3, 5) - c6


def _classical_residual(c: np.ndarray, d: int) -> np.ndarray:
    """C[(ab,i),(ab,i)] - delta_{a=b=i}: the Choi diagonal against classical copying.

    These entries are the Choi of (D (x) D) . m . D, and the classical
    broadcaster's Choi is delta_{a=b=i} there and zero everywhere else.
    """
    target = np.zeros((d, d, d))
    idx = np.arange(d)
    target[idx, idx, idx] = 1.0
    return np.diagonal(c).reshape(d, d, d) - target


def _marginal_residuals(c: np.ndarray, d: int) -> list[np.ndarray]:
    """Tr_out1[C] - Omega and Tr_out2[C] - Omega: both marginals are the identity map."""
    c6 = c.reshape((d,) * 6)
    om = omega(d).mat.reshape(d, d, d, d)
    return [np.einsum("pxypuv->xyuv", c6) - om, np.einsum("xpyupv->xyuv", c6) - om]


@functools.cache
def _axiom_patterns(d: int) -> dict[str, tuple[tuple[tuple[int, ...], int, int], ...]]:
    """Each axiom residual of a covariant Choi as (row, target, count) triples over the patterns that occur at d.

    On count entries the residual of  C = sum_k x_k P_k^T3  equals
    row . x - target, and those entries cover it; rows are six ints, and
    patterns with the same row and target are merged into one triple.  A
    marginal entry sums the traced label over the k groups of its other
    four labels' pattern and over d - k new values, which all give one
    pattern.  Permutation symmetry compares each pattern with the one that
    swaps the two outputs; classical consistency reads the diagonal
    patterns (a, b, i, a, b, i).  Keys: "marginal1", "marginal2",
    "permutation", "classical".
    """
    _require_dim(d)
    systems = {"marginal1": [], "marginal2": [], "permutation": [], "classical": []}
    for x, y, u, v in equality_patterns(4):  # labels of the marginal entry (xy, uv)
        k = max(x, y, u, v) + 1
        weights = [1] * k + [d - k]  # the traced label p runs over the k groups, then d - k new values
        first = [(p, x, y, p, u, v) for p in range(k + 1)]
        second = [(x, p, y, u, p, v) for p in range(k + 1)]
        for name, labels in (("marginal1", first), ("marginal2", second)):
            entries = [table_entries(lab) for lab in labels]
            row = tuple(sum(w * e[j] for w, e in zip(weights, entries)) for j in range(6))
            systems[name].append((row, int(x == y and u == v), k))
    for six in equality_patterns(6):
        o1, o2, i, o1p, o2p, ip = six
        row = tuple(a - b for a, b in zip(table_entries((o2, o1, i, o2p, o1p, ip)), table_entries(six)))
        systems["permutation"].append((row, 0, max(six) + 1))
    for a, b, i in equality_patterns(3):
        systems["classical"].append((table_entries((a, b, i, a, b, i)), int(a == b == i), max(a, b, i) + 1))

    out = {}
    for name, triples in systems.items():
        merged = {}
        for row, target, groups in triples:
            merged[row, target] = merged.get((row, target), 0) + math.perm(d, groups)
        out[name] = tuple((row, target, count) for (row, target), count in merged.items() if count)
    return out


def _dot(row, x) -> complex:
    """row . x, skipping the zero entries of the integer row."""
    return sum(r * c for r, c in zip(row, x) if r)


# ---------------------------------------------------------------------------
# axiom checking


class AxiomReport(NamedTuple):
    """Max-absolute-entry residuals of the four broadcasting axioms.

    Each is the largest absolute entry of a linear residual of the Choi
    operator C: broadcasting is the worse of the two marginal residuals
    ``Tr_out1[C] - Omega`` and ``Tr_out2[C] - Omega``, covariance is
    ``C - Pi(C)`` for the projection Pi onto the covariant span, permutation
    symmetry is ``S_12 C S_12 - C``, and classical consistency compares the
    Choi diagonal with the classical broadcaster's.
    """

    broadcasting: float
    covariance: float
    permutation: float
    classical: float

    def max_residual(self) -> float:
        return max(self.broadcasting, self.covariance, self.permutation, self.classical)

    def passes(self, tol: float) -> bool:
        return self.max_residual() < tol


def check_axioms(m: SuperMap) -> AxiomReport:
    """Measure a candidate broadcaster d -> d^2 exactly against the four defining axioms."""
    d = m.d_in
    if m.d_out != d * d:
        raise ValueError(f"broadcaster must map d -> d^2, got {m.d_in} -> {m.d_out}")
    if m.coeffs is not None:
        worst = {
            name: float(max(abs(_dot(row, m.coeffs) - target) for row, target, _ in triples))
            for name, triples in _axiom_patterns(d).items()
        }
        return AxiomReport(
            broadcasting=max(worst["marginal1"], worst["marginal2"]),
            covariance=0.0,
            permutation=worst["permutation"],
            classical=worst["classical"],
        )
    c = m.choi.mat
    return AxiomReport(
        broadcasting=max(float(np.abs(r).max()) for r in _marginal_residuals(c, d)),
        covariance=(m.choi - commutant_projection(m.choi, d)).absmax(),
        permutation=float(np.abs(_permutation_residual(c, d)).max()),
        classical=float(np.abs(_classical_residual(c, d)).max()),
    )


# ---------------------------------------------------------------------------
# uniqueness certificate


class UniquenessCertificate(NamedTuple):
    """Certificate that the axioms admit exactly one solution.

    The unknowns are the six complex coefficients of a Choi operator over
    the table, so covariance holds by construction; the included
    broadcasting, permutation and classical residuals are the constraint
    rows.  ``unknowns`` is the dimension of the covariant span, ``rank``
    the rank of the homogeneous system over the coefficients, and
    ``nullity`` their difference, the dimension of the span's homogeneous
    solutions, all exact; ``candidate_residual`` is the violation of the
    affine system by the canonical map's coefficients, also exact.
    """

    constraint_rows: int
    unknowns: int
    rank: int
    nullity: int
    candidate_residual: float


def verify_uniqueness(
    d: int, include_broadcasting: bool = True, include_permutation: bool = True, include_classical: bool = True
) -> UniquenessCertificate:
    """Certify that broadcasting + covariance + permutation + classical consistency force B.

    Reads the included axioms' linear residuals on the six table elements
    off their equality patterns (``_axiom_patterns``): each pattern row r
    gives  r . x, one residual entry of the Choi  sum_j x_j P_j^T3.  The
    span has dimension k = rank(``commutant_gram``), and its homogeneous
    solutions have dimension  nullity = k - rank(rows).  Two facts make
    this the count over Hermitian Chois.  The 6 - k coefficient vectors
    that give the zero operator lie in the null space of the rows, because
    each row evaluates an entry of that operator.  And the solutions are
    closed under the adjoint, because every axiom target is Hermitian, so
    their complex dimension is the real dimension of their Hermitian part.
    Both ranks are exact, by fraction-free integer elimination.
    ``constraint_rows`` counts the rows of the full real system,
    2 (2d^4 + d^6 + d^3) with every axiom included; ``candidate_residual``
    multiplies the integer rows by B's half-integer coefficients, so it is
    exact.  The ``include_*`` switches drop axiom groups to exhibit the
    solution families that appear without them.
    """
    systems = _axiom_patterns(d)
    names = (
        ["marginal1", "marginal2"] * include_broadcasting
        + ["permutation"] * include_permutation
        + ["classical"] * include_classical
    )
    triples = [t for name in names for t in systems[name]]
    b = _b_lambda_coeffs(0.0)
    residual = float(max((abs(_dot(row, b) - target) for row, target, _ in triples), default=0.0))
    unknowns = _exact_rank(commutant_gram(d))
    rank = _exact_rank([row for row, _, _ in triples])
    return UniquenessCertificate(
        constraint_rows=2 * sum(count for _, _, count in triples),
        unknowns=unknowns,
        rank=rank,
        nullity=unknowns - rank,
        candidate_residual=residual,
    )
