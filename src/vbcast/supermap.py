"""Linear maps on operators, stored through their Choi representation.

Conventions (fixed across the library):

* The Choi operator of ``m: Lin(C^d_in) -> Lin(C^d_out)`` lives on
  ``C^d_out (x) C^d_in`` and equals ``sum_ij m(E_ij) (x) E_ij`` for matrix
  units ``E_ij`` -- equivalently ``(m (x) id)(Omega)`` with the unnormalized
  maximally entangled ``Omega = sum_ij |ii><jj|``.  Output factor first.
* The Jamiolkowski form lives on ``C^d_in (x) C^d_out`` and equals
  ``sum_ij E_ij (x) m(E_ji)``, i.e. ``(id (x) m)`` applied to the SWAP of the
  doubled input space.  For the identity map it *is* SWAP.

A map d -> d^2 is covariant, (U (x) U) m(rho) (U (x) U)+ = m(U rho U+), exactly
when its Choi commutes with U (x) U (x) Ubar.  By mixed Schur-Weyl duality
(the walled Brauer algebra B_{2,1}(d); Benkart et al., J. Algebra 166
(1994)) such Chois are the combinations  sum_k x_k P_k^T3  of the six factor
permutations of ``S3`` transposed on the input factor, the table elements.
``covariant_map`` keeps a map as those six coefficients, a tuple of Python
complex numbers: sums, differences and scalar multiples stay six
coefficients.  ``table_support`` lists the at most 6 d^3 nonzero positions
of the d^3 x d^3 table with the elements that are 1 at each, and
``covariant_entries`` expands the coefficients over it with the standard
library.  That one expansion fills the dense Choi, built only when
something reads it, and the Choi and Jamiolkowski operators that ``dump``
writes; ``match_covariant`` runs it backwards, reading the six
coefficients off a Choi's entries and keeping them only if they reproduce
every entry.  Each entry of such a Choi depends only on which of its six
labels (out1, out2, in; out1', out2', in') are equal, so the largest entry, the
Hermiticity and trace-preservation tests and the axiom residuals are read
off the at most 203 equality patterns (``equality_patterns``, ``_pattern_table``),
and the spectrum has the closed form of ``covariant_spectrum``.  Those reads
are standard-library arithmetic on integer tuples and touch no numpy.
``apply`` sums the six terms' actions on a d x d input
(``_covariant_apply``) in O(d^4).  A pattern map keeps any such Choi as one
value per pattern; only its axiom residuals are read off the patterns.

``is_hp``, ``is_cp`` and ``is_tp`` gate at ``HP_TOL``, the one tolerance of
the map predicates; a map's Choi JSON layout belongs to ``cli``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from . import _lazy_numpy
from .densemat import S3, Operator, _raw, partial_trace

np = _lazy_numpy()


# The gate of ``SuperMap.is_hp``, ``is_cp`` and ``is_tp``: the one tolerance of the map predicates.
HP_TOL = 1e-8


class SuperMap:
    """Linear map Lin(C^d_in) -> Lin(C^d_out), represented by its Choi operator.

    Give one of three forms: the Choi; for a covariant map d -> d^2 the
    six coefficients ``coeffs`` of the table elements, a tuple of Python
    complex numbers; or for a map d -> d^2 whose Choi entry depends only on
    which of its six labels are equal, ``patterns``, a dict of complex
    values from equality patterns (``equality_patterns(6)``), 0 on those it
    leaves out.  The other forms are None.  A covariant or pattern map fills
    its Choi on the first read of ``choi`` and keeps it.
    """

    __slots__ = ("d_in", "d_out", "coeffs", "patterns", "_choi")

    def __init__(self, d_in: int, d_out: int, choi: Operator | None = None, coeffs=None, patterns=None):
        if sum(form is not None for form in (choi, coeffs, patterns)) != 1:
            raise ValueError("give a SuperMap either its Choi, its six covariant coefficients or its patterns")
        if choi is None:
            _require_dim(d_in)
            if d_out != d_in * d_in:
                raise ValueError(f"a covariant or pattern map goes d -> d^2, got {d_in} -> {d_out}")
        if coeffs is not None:
            if len(coeffs) != 6:
                raise ValueError(f"a covariant map needs 6 coefficients, got {len(coeffs)}")
            coeffs = tuple(complex(c) for c in coeffs)
        elif patterns is not None:
            if not set(patterns) <= set(equality_patterns(6)):
                raise ValueError("pattern keys must be equality patterns of six labels, labelled by first occurrence")
            patterns = {p: complex(v) for p, v in patterns.items()}
        else:
            choi = choi if isinstance(choi, Operator) else Operator(choi)
            n = d_out * d_in
            if choi.rows != n or choi.cols != n:
                raise ValueError(
                    f"choi must be {n}x{n} for d_in={d_in}, d_out={d_out}, got {choi.rows}x{choi.cols}"
                )
        object.__setattr__(self, "d_in", int(d_in))
        object.__setattr__(self, "d_out", int(d_out))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "_choi", choi)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMap is immutable")

    @property
    def choi(self) -> Operator:
        """The Choi, filled on the first read from ``covariant_entries`` or from the nonzero patterns."""
        if self._choi is None:
            d, n = self.d_in, self.d_in**3
            choi = np.zeros(n * n, dtype=np.complex128)
            if self.coeffs is not None:
                values, entries = covariant_entries(d, self.coeffs)
                positions, indices = zip(*entries)
                choi[list(positions)] = np.array(values)[list(indices)]
            for pattern, value in (self.patterns or {}).items():
                for labels in itertools.permutations(range(d), max(pattern) + 1) if value else ():  # one per group
                    choi[sum(labels[g] * d ** (5 - k) for k, g in enumerate(pattern))] = value
            object.__setattr__(self, "_choi", Operator(choi.reshape(n, n)))
        return self._choi

    def _c4(self) -> np.ndarray:
        """Choi as a 4-tensor indexed [out, in, out', in']."""
        return self.choi.mat.reshape(self.d_out, self.d_in, self.d_out, self.d_in)

    # -- action -------------------------------------------------------------

    def apply(self, x) -> Operator:
        """Evaluate the map:  Tr_in[choi (I_out (x) x^T)]; a covariant map reads its six coefficients."""
        xm = _raw(x)
        if xm.shape != (self.d_in, self.d_in):
            raise ValueError(f"input must be {self.d_in}x{self.d_in}, got {xm.shape}")
        if self.coeffs is not None:
            return Operator(_covariant_apply(self.coeffs, xm))
        return Operator(np.einsum("uivj,ij->uv", self._c4(), xm))

    def jamiolkowski(self) -> Operator:
        j4 = self._c4().transpose(3, 0, 1, 2)
        n = self.d_in * self.d_out
        return Operator(j4.reshape(n, n))

    # -- predicates ---------------------------------------------------------

    def choi_absmax(self) -> float:
        """Largest absolute entry of the Choi."""
        if self.coeffs is None:
            return self.choi.absmax()
        return _pattern_absmax(self.d_in, self.coeffs)

    def spectrum(self) -> list[float]:
        """Descending eigenvalues of the Choi, taken as Hermitian (``eigvalsh`` reads its lower triangle)."""
        if self.coeffs is None:
            return np.linalg.eigvalsh(self.choi.mat)[::-1].tolist()
        return covariant_spectrum(self.d_in, self.coeffs)

    def is_hp(self) -> bool:
        """Hermitian-preserving, i.e. Hermitian Choi within ``HP_TOL``.

        The Choi's adjoint has the coefficients conj(x_s^-1); only the two
        3-cycles are not their own inverses.
        """
        if self.coeffs is None:
            return bool(self.choi.is_hermitian(HP_TOL))
        x = self.coeffs
        adjoint = (x[0], x[1], x[2], x[3], x[5], x[4])
        return _pattern_absmax(self.d_in, [a - b.conjugate() for a, b in zip(x, adjoint)]) <= HP_TOL

    def is_cp(self) -> bool:
        """Completely positive, i.e. PSD Choi within ``HP_TOL``."""
        return bool(self.is_hp() and self.spectrum()[-1] >= -HP_TOL)

    def is_tp(self) -> bool:
        """Trace-preserving:  Tr_out[choi] = I_in within ``HP_TOL``.

        A covariant Choi's Tr_out commutes with every Ubar, so it is
        Tr[choi]/d times I; Tr[P_s^T3] = d^c(s), c counting cycles.
        """
        if self.coeffs is None:
            red = partial_trace(self.choi, (self.d_out, self.d_in), keep="second")
            return bool(np.abs(red.mat - np.eye(self.d_in)).max() <= HP_TOL)
        d = self.d_in
        trace = sum(c * float(d) ** _cycles(s) for c, s in zip(self.coeffs, S3))
        return abs(trace / d - 1) <= HP_TOL

    # -- linear structure ---------------------------------------------------

    def _check_same_dims(self, other):
        if (self.d_in, self.d_out) != (other.d_in, other.d_out):
            raise ValueError("supermap dimensions do not match")

    def __add__(self, other: "SuperMap") -> "SuperMap":
        self._check_same_dims(other)
        if self.coeffs is not None and other.coeffs is not None:
            return SuperMap(self.d_in, self.d_out, coeffs=[a + b for a, b in zip(self.coeffs, other.coeffs)])
        return SuperMap(self.d_in, self.d_out, self.choi + other.choi)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        self._check_same_dims(other)
        if self.coeffs is not None and other.coeffs is not None:
            return SuperMap(self.d_in, self.d_out, coeffs=[a - b for a, b in zip(self.coeffs, other.coeffs)])
        return SuperMap(self.d_in, self.d_out, self.choi - other.choi)

    def __mul__(self, scalar) -> "SuperMap":
        if self.coeffs is not None:
            return SuperMap(self.d_in, self.d_out, coeffs=[c * scalar for c in self.coeffs])
        return SuperMap(self.d_in, self.d_out, self.choi * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SuperMap(d_in={self.d_in}, d_out={self.d_out})"


# ---------------------------------------------------------------------------
# covariant maps d -> d^2 as six coefficients


def _require_dim(d: int):
    if d < 2:
        raise ValueError(f"maps d -> d^2 need dimension >= 2, got {d}")


@functools.cache
def table_support(d: int) -> tuple[tuple[int, int], ...]:
    """Each nonzero position of the d^3 x d^3 table with the bit mask of the elements that are 1 there.

    Positions are row-major flat indices, in ascending order; bit k of a
    mask stands for ``S3[k]``.  Element s is 1 at row (i_s0, i_s1, i_2) and
    column (i_0, i_1, i_s2) for each of the d^3 label triples (i_0, i_1, i_2).
    """
    _require_dim(d)
    n = d**3
    masks = {}
    for i in itertools.product(range(d), repeat=3):
        col = (i[0] * d + i[1]) * d
        for k, s in enumerate(S3):
            pos = ((i[s[0]] * d + i[s[1]]) * d + i[2]) * n + col + i[s[2]]
            masks[pos] = masks.get(pos, 0) | 1 << k
    return tuple(sorted(masks.items()))


def covariant_entries(d: int, coeffs) -> tuple[list[complex], list[tuple[int, int]]]:
    """The Choi  sum_k coeffs[k] P_k^T3  as its distinct entries and its nonzero positions.

    Returns (values, entries): ``values[0]`` is the 0j of every position
    that ``table_support`` leaves out, one value follows per distinct mask,
    and ``entries`` pairs each position of ``table_support(d)`` with the
    index of its value.  A mask's value is 0j plus its coefficients, added
    left to right in ``S3`` order: bit for bit the entry that adding each
    coeffs[k] P_k^T3 in turn into a zero complex array forms.
    """
    values, index, entries = [0j], {}, []
    for pos, mask in table_support(d):
        if mask not in index:
            value = 0j
            for k in range(6):
                if mask >> k & 1:
                    value += coeffs[k]
            index[mask] = len(values)
            values.append(value)
        entries.append((pos, index[mask]))
    return values, entries


def covariant_map(d: int, coeffs) -> SuperMap:
    """The covariant map d -> d^2 whose Choi is  sum_k coeffs[k] P_k^T3, k indexing ``S3``."""
    return SuperMap(d, d * d, coeffs=coeffs)


def match_covariant(d: int, re: list, im: list) -> SuperMap | None:
    """The covariant map d -> d^2 whose Choi has the rows ``re`` + i ``im``, or None when it has none.

    ``re`` and ``im`` are d^3 rows of d^3 numbers each.  At d >= 3 each
    table element k is 1 alone at some positions, so coefficient k reads off
    the first position of ``table_support(d)`` whose mask is ``1 << k``; at
    d = 2 two of any three labels agree, no position holds one element
    alone, and the answer is None.  The Choi is covariant exactly when
    ``covariant_entries`` of those six reproduces it: every support entry
    equals its expanded value and every other entry is 0.0, compared as
    floats with no tolerance.
    """
    if d < 3:
        return None
    n = d**3
    first = {}
    for pos, mask in table_support(d):
        first.setdefault(mask, pos)
    coeffs = [complex(re[row][col], im[row][col]) for row, col in (divmod(first[1 << k], n) for k in range(6))]
    values, entries = covariant_entries(d, coeffs)
    want_re, want_im = [[0.0] * n for _ in range(n)], [[0.0] * n for _ in range(n)]
    for pos, index in entries:
        row, col = divmod(pos, n)
        want_re[row][col], want_im[row][col] = values[index].real, values[index].imag
    return covariant_map(d, coeffs) if re == want_re and im == want_im else None


def _cycles(p: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of three factors."""
    return len({frozenset((i, p[i], p[p[i]])) for i in range(3)})


@functools.cache
def equality_patterns(n: int) -> tuple[tuple[int, ...], ...]:
    """Every equality pattern of n labels, each labelled by first occurrence: Bell(n) tuples of n ints.

    Pattern (0, 0, 1) stands for the label triples whose first two labels
    are equal and differ from the third.  A pattern with k groups
    (``max(pattern) + 1``) occurs d(d-1)...(d-k+1) times among the d^n
    label tuples (``math.perm(d, k)``).
    """
    patterns = [()]
    for _ in range(n):
        patterns = [p + (v,) for p in patterns for v in range(max(p, default=-1) + 2)]
    return tuple(patterns)


def table_entries(labels) -> tuple[int, ...]:
    """Entries of the six table elements at the Choi position with the given labels: six 0/1 ints.

    ``labels`` name (out1, out2, in, out1', out2', in').  Element s is 1
    where (out1, out2, in') = (i_s0, i_s1, i_s2) for
    (i_0, i_1, i_2) = (out1', out2', in), and 0 elsewhere.
    """
    out1, out2, inp, out1p, out2p, inp_p = labels
    i = (out1p, out2p, inp)
    return tuple(int(out1 == i[s[0]] and out2 == i[s[1]] and inp_p == i[s[2]]) for s in S3)


@functools.cache
def _pattern_table(d: int) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
    """(pattern, count, support) for each equality pattern of six labels that occurs at d.

    ``count`` is the number of Choi positions with that pattern, and
    ``support`` lists the table elements that are 1 there (``table_entries``).
    """
    table = [(p, math.perm(d, max(p) + 1), table_entries(p)) for p in equality_patterns(6) if max(p) < d]
    return tuple((p, count, tuple(k for k, e in enumerate(entries) if e)) for p, count, entries in table)


def _covariant_apply(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] Tr_in[P_k^T3 (I (x) x^T)] for a d x d input x: (d^2, d^2), complex.

    In ``S3`` order the six terms act on x as Tr[x] I, Tr[x] SWAP, x (x) I,
    I (x) x, (I (x) x) SWAP and (x (x) I) SWAP, and right multiplication by
    SWAP swaps the two column factors.
    """
    d = x.shape[0]
    eye, tr = np.eye(d), np.trace(x)
    x_i, i_x = np.kron(x, eye), np.kron(eye, x)
    left = coeffs[2] * x_i + coeffs[3] * i_x
    right = coeffs[4] * i_x + coeffs[5] * x_i
    left[np.diag_indices(d * d)] += coeffs[0] * tr
    right[np.diag_indices(d * d)] += coeffs[1] * tr
    return left + right.reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def _pattern_absmax(d: int, coeffs) -> float:
    """Largest absolute entry of  sum_k coeffs[k] P_k^T3: an entry sums the coefficients of its support."""
    return float(max(abs(sum(coeffs[k] for k in support)) for support in {s for _, _, s in _pattern_table(d)}))


def covariant_spectrum(d: int, coeffs) -> list[float]:
    """Descending eigenvalues of the Hermitian  C = sum_k coeffs[k] P_k^T3, in closed form: d^3 floats.

    The four table elements that move the input factor map every vector
    into the span of  E1 v = v (x) Omega_23  and  E2 v = (swap_12 E1) v,
    2d dimensions with Gram matrix [[d, 1], [1, d]] (x) I.  On that span C
    acts as a 2 x 2 block (x) I; in the orthonormal basis
    (E1 +- E2) / sqrt(2 (d +- 1)) the block is Hermitian, with diagonal
    p, r and lower entry q, so its two eigenvalues
    (p + r)/2 +- sqrt(((p - r)/2)^2 + |q|^2) each have multiplicity d.
    Modulo the span, C acts as x_id I + x_(12) SWAP_12, with eigenvalues
    x_id +- x_(12) of multiplicities d^2 (d +- 1)/2 - d.
    """
    x = coeffs
    # Column a holds the (E1, E2) coordinates of C E_a.
    b00, b01 = x[0] + d * x[3] + x[4], x[1] + x[3] + d * x[4]
    b10, b11 = x[1] + x[2] + d * x[5], x[0] + d * x[2] + x[5]
    # The block in the basis E1 +- E2, then scaled by sqrt(d +- 1) to the orthonormal one.
    p = (b00 + b01 + b10 + b11).real / 2
    r = (b00 - b01 - b10 + b11).real / 2
    q = math.sqrt((d - 1) / (d + 1)) * abs(b00 + b01 - b10 - b11) / 2
    root = math.hypot((p - r) / 2, q)
    values = (x[0].real + x[1].real, x[0].real - x[1].real, (p + r) / 2 + root, (p + r) / 2 - root)
    counts = (d * d * (d + 1) // 2 - d, d * d * (d - 1) // 2 - d, d, d)
    return [v for v, n in sorted(zip(values, counts), key=lambda vn: vn[0], reverse=True) for _ in range(n)]


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


class AffineDecomposition(NamedTuple):
    """HPTP map written as lambda_plus * plus - lambda_minus * minus with CPTP parts."""

    lambda_plus: float
    lambda_minus: float
    map_plus: SuperMap
    map_minus: SuperMap

    def combined(self) -> SuperMap:
        """The map this decomposition represents."""
        return self.lambda_plus * self.map_plus - self.lambda_minus * self.map_minus
