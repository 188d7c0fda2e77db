"""The virtual broadcasting map, its relatives, and its characterizing axioms.

The canonical broadcaster is the HPTP map

    B(rho) = (1/2) { rho (x) I , SWAP }

whose two marginals both reproduce rho.  This module constructs B, the
optimal-cloner and antisymmetric channels whose affine combination it is,
the decohered/classical variants, and the one-parameter commutator family
B_lambda, all from closed-form Choi operators, none of them dense.

Covariant maps are six coefficients over the table of partially
transposed factor permutations (``vbcast.supermap``); the classical
broadcaster is a pattern map, 1 where its six Choi labels are all equal,
and the decoherence D one with four labels, 1 where they are all equal.
The covariant span is described by one integer Gram matrix,
Tr[P_s^T P_t] = d^c(t s^-1) with c counting cycles; its rank k (5 at
d = 2, 6 above) is the dimension of the span.  ``check_axioms`` reads the
four axioms of a covariant or pattern map exactly, with no sampling and no
numpy: the Choi's value on each equality pattern of its labels is an
integer over one denominator (``exact_values``), each linear residual is a set
of integer rows over the patterns (``_axiom_patterns``), and covariance is
the distance to the span, projected by the Gram's leading block in
integers.  A dense map has no exact path; its residuals are the tests'
reference.  ``verify_uniqueness`` ranks the same pattern rows, taken on
the six coefficients, by fraction-free integer elimination.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .densemat import S3
from .supermap import (
    SuperMap,
    _largest,
    _pattern_table,
    _require_dim,
    covariant_map,
    equality_patterns,
    exact_values,
    pattern_of,
)


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
    return covariant_map(d, (0, 0, 1, 1, 1, 1), 2 * (d + 1))


def antisym(d: int) -> SuperMap:
    """Antisymmetric counterpart  rho -> 2/(d-1) P- (I (x) rho) P-."""
    _require_dim(d)
    return covariant_map(d, (0, 0, 1, 1, -1, -1), 2 * (d - 1))


def decoherence(d: int) -> SuperMap:
    """Full decoherence in the computational basis:  Choi  sum_i |i><i| (x) |i><i|.

    A pattern map of four labels (out, in; out', in'), 1 where all four are equal.
    """
    return SuperMap(d, d, patterns={(0, 0, 0, 0): 1.0})


def classical_bcl(d: int) -> SuperMap:
    """Classical broadcaster  |i><j| -> delta_ij |ii><ii|:  Choi 1 where all six labels are equal, 0 elsewhere."""
    return SuperMap(d, d * d, patterns={(0, 0, 0, 0, 0, 0): 1.0})


# ---------------------------------------------------------------------------
# the commutant core


def _cycles(p: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of three factors."""
    return len({frozenset((i, p[i], p[p[i]])) for i in range(3)})


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


@functools.cache
def _gram_inverse(d: int) -> tuple[int, list[list[int]]]:
    """(det, adj) of the leading k x k block of ``commutant_gram``, k its rank.

    The first k table elements are independent (at d = 2 the one
    dependency, the antisymmetrizer, has six nonzero signs), so the block is
    positive definite: fraction-free Gauss-Jordan (Bareiss) elimination of
    [block | I] needs no pivot search, divides exactly and ends at [det I | adj].
    """
    gram = commutant_gram(d)
    k = _exact_rank(gram)
    m, prev = [list(row[:k]) + [int(i == j) for j in range(k)] for i, row in enumerate(gram[:k])], 1
    for i in range(k):
        pivot = m[i]
        m = [row if row is pivot else [(pivot[i] * a - row[i] * b) // prev for a, b in zip(row, pivot)] for row in m]
        prev = m[i][i]
    return prev, [row[k:] for row in m]


@functools.cache
def _axiom_patterns(d: int) -> dict[str, tuple]:
    """Each axiom residual of a Choi as (row, target, count) triples over the patterns that occur at d.

    A row is a tuple of (pattern, int weight) pairs: on the count Choi
    entries it stands for, the residual is  sum weight * C[pattern] - target,
    and the triples cover the residual.  A marginal entry sums the traced
    label over the k groups of its other four labels' pattern and over
    d - k new values, which all give one pattern.  Permutation symmetry
    compares each pattern with its swap of the two outputs (an empty row
    where they agree); classical consistency reads the diagonal patterns
    (a, b, i, a, b, i).  Keys: marginal1, marginal2, permutation, classical.
    """
    _require_dim(d)
    systems = {"marginal1": [], "marginal2": [], "permutation": [], "classical": []}
    for x, y, u, v in equality_patterns(4):  # labels of the marginal entry (xy, uv)
        k = max(x, y, u, v) + 1
        weights = [1] * k + [d - k]  # the traced label p runs over the k groups, then d - k new values
        first = [(p, x, y, p, u, v) for p in range(k + 1)]
        second = [(x, p, y, u, p, v) for p in range(k + 1)]
        for name, labels in (("marginal1", first), ("marginal2", second)):
            row = tuple((pattern_of(lab), w) for lab, w in zip(labels, weights) if w)
            systems[name].append((row, int(x == y and u == v), math.perm(d, k)))
    for six, count, _ in _pattern_table(d):
        o1, o2, i, o1p, o2p, ip = six
        swapped = pattern_of((o2, o1, i, o2p, o1p, ip))
        systems["permutation"].append((((swapped, 1), (six, -1)) if swapped != six else (), 0, count))
    for a, b, i in equality_patterns(3):
        systems["classical"].append(((((a, b, i, a, b, i), 1),), int(a == b == i), math.perm(d, max(a, b, i) + 1)))
    return {name: tuple(t for t in triples if t[2]) for name, triples in systems.items()}  # count 0: k > d


def _twirl_residuals(d: int, values: dict) -> list[int]:
    """det (C - Pi(C)) on each pattern that occurs at d, for one real part of C, Pi the projection onto the span.

    Pi(C) = sum_j x_j P_j^T3 solves  Gram x = overlaps, where overlap j
    sums C over the entries where table element j is 1.  Only the leading
    k x k block is solved and the rest of x is zero, so det x = adj . overlaps.
    """
    det, adj = _gram_inverse(d)
    overlaps = [0] * 6
    for p, count, support in _pattern_table(d):
        for j in support:
            overlaps[j] += count * values.get(p, 0)
    x = [sum(a * o for a, o in zip(row, overlaps)) for row in adj] + [0] * (6 - len(adj))
    return [det * values.get(p, 0) - sum(x[j] for j in support) for p, _, support in _pattern_table(d)]


def _worst(rows, den: int, re: dict, im: dict) -> float:
    """Largest  |sum weight * C[pattern] - target|  over (row, target, count) triples, C from ``exact_values``."""
    def entry(part, row):  # a pattern that ``exact_values`` leaves out holds 0
        return sum(w * part.get(p, 0) for p, w in row)

    return _largest(((entry(re, row) - t * den, entry(im, row)) for row, t, _ in rows), den)


# ---------------------------------------------------------------------------
# axiom checking


class AxiomReport(NamedTuple):
    """Max-absolute-entry residuals of the four broadcasting axioms.

    Each is the largest absolute entry of a linear residual of the Choi
    operator C: broadcasting is the worse of the two marginal residuals
    ``Tr_out1[C] - Omega`` and ``Tr_out2[C] - Omega``, covariance is
    ``C - Pi(C)`` for the projection Pi onto the covariant span, permutation
    symmetry is ``S_12 C S_12 - C``, and classical consistency compares the
    Choi diagonal with the classical broadcaster's.  ``max(report)`` is the worst.
    """

    broadcasting: float
    covariance: float
    permutation: float
    classical: float


def check_axioms(m: SuperMap) -> AxiomReport:
    """Measure a candidate broadcaster d -> d^2 exactly against the four defining axioms.

    m must be a covariant or a pattern map, whose Choi is read off its
    equality patterns; a dense map raises ValueError (``exact_values``).
    """
    d = m.d_in
    if m.d_out != d * d:
        raise ValueError(f"broadcaster must map d -> d^2, got {m.d_in} -> {m.d_out}")
    den, re, im = exact_values(m)
    systems = _axiom_patterns(d)
    return AxiomReport(
        broadcasting=max(_worst(systems["marginal1"], den, re, im), _worst(systems["marginal2"], den, re, im)),
        covariance=_largest(zip(_twirl_residuals(d, re), _twirl_residuals(d, im)), _gram_inverse(d)[0] * den),
        permutation=_worst(systems["permutation"], den, re, im),
        classical=_worst(systems["classical"], den, re, im),
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

    Takes the included axioms' pattern rows (``_axiom_patterns``) on the
    six table elements: each gives a row r of six ints, and r . x is one
    residual entry of the Choi  sum_j x_j P_j^T3.  The span has dimension
    k = rank(``commutant_gram``), and its homogeneous solutions have
    dimension  nullity = k - rank(rows).  Two facts make this the count
    over Hermitian Chois.  The 6 - k coefficient vectors that give the zero
    operator lie in the null space of the rows, because each row evaluates
    an entry of that operator.  And the solutions are closed under the
    adjoint, because every axiom target is Hermitian, so their complex
    dimension is the real dimension of their Hermitian part.  Both ranks
    are exact, by fraction-free integer elimination.  ``constraint_rows``
    counts the rows of the full real system, 2 (2d^4 + d^6 + d^3) with
    every axiom included; ``candidate_residual`` evaluates the rows on B,
    exactly.  The ``include_*`` switches drop axiom groups to exhibit the
    solution families that appear without them.
    """
    systems = _axiom_patterns(d)
    names = (
        ["marginal1", "marginal2"] * include_broadcasting
        + ["permutation"] * include_permutation
        + ["classical"] * include_classical
    )
    triples = [t for name in names for t in systems[name]]
    unknowns = _exact_rank(commutant_gram(d))
    supports, rows = {p: support for p, _, support in _pattern_table(d)}, set()
    for row, _, _ in triples:  # the pattern row on the table: sum weight * table_entries(pattern)
        on_table = [0] * 6
        for p, w in row:
            for j in supports[p]:
                on_table[j] += w
        rows.add(tuple(on_table))
    rank = _exact_rank(rows)
    return UniquenessCertificate(
        constraint_rows=2 * sum(count for _, _, count in triples),
        unknowns=unknowns,
        rank=rank,
        nullity=unknowns - rank,
        candidate_residual=_worst(triples, *exact_values(canonical_b(d))),
    )
