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
``covariant_map`` keeps a map as those six coefficients, exactly: twelve
integer numerators, real and imaginary parts, over one positive
denominator (``SuperMap.exact``), so sums, differences and scalar
multiples stay six exact coefficients.  ``SuperMap.coeffs`` is their float
view, each part rounded once.  ``table_support`` lists the at most 6 d^3
nonzero positions of the d^3 x d^3 table with the elements that are 1 at
each, and ``covariant_entries`` expands the float view over it with the
standard library.  That one expansion fills the dense Choi, built only
when something reads it, and the Choi and Jamiolkowski operators that
``dump`` writes; ``match_covariant`` runs it backwards, reading the six
coefficients off a Choi's entries and keeping them only if they reproduce
every entry.  Each entry of such a Choi depends only on which of its six
labels (out1, out2, in; out1', out2', in') are equal, so the largest entry, the
Hermiticity and trace-preservation tests and the axiom residuals are read
off the at most 203 equality patterns (``equality_patterns``, ``_pattern_table``),
and the spectrum has the closed form of ``covariant_blocks``.  Those reads
are integer arithmetic on the exact coefficients and touch no numpy; each
result is a quadratic surd (p + q sqrt(w)) / r, rounded to a float once by
``surd``.  ``apply`` sums the six terms' actions on a d x d input
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

from . import _lazy
from .densemat import S3, Operator, _raw, partial_trace

np = _lazy("numpy")


# The gate of ``SuperMap.is_hp``, ``is_cp`` and ``is_tp``: the one tolerance of the map predicates.
HP_TOL = 1e-8


class SuperMap:
    """Linear map Lin(C^d_in) -> Lin(C^d_out), represented by its Choi operator.

    Give one of three forms: the Choi; for a covariant map d -> d^2 the
    six coefficients of the table elements as ``exact``, a ``(den, re, im)``
    triple of six integer numerators each over one nonzero integer
    denominator (``covariant_map`` builds it from numbers); or for a map
    d -> d^2 whose Choi entry depends only on which of its six labels are
    equal, ``patterns``, a dict of complex values from equality patterns
    (``equality_patterns(6)``), 0 on those it leaves out.  A covariant map
    keeps ``exact`` in lowest terms with ``den`` > 0, and ``coeffs`` as its
    float view: six complex numbers, each part num/den rounded once.  The
    forms a map was not given are None.  A covariant or pattern map fills
    its Choi on the first read of ``choi`` and keeps it.
    """

    __slots__ = ("d_in", "d_out", "coeffs", "exact", "patterns", "_choi")

    def __init__(self, d_in: int, d_out: int, choi: Operator | None = None, patterns=None, exact=None):
        if sum(form is not None for form in (choi, patterns, exact)) != 1:
            raise ValueError("give a SuperMap either its Choi, its six covariant coefficients or its patterns")
        if choi is None:
            _require_dim(d_in)
            if d_out != d_in * d_in:
                raise ValueError(f"a covariant or pattern map goes d -> d^2, got {d_in} -> {d_out}")
        coeffs = None
        if exact is not None:
            exact = _lowest_terms(*exact)
            den, re, im = exact
            coeffs = tuple(complex(a / den, b / den) for a, b in zip(re, im))
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
        object.__setattr__(self, "exact", exact)
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
        """Largest absolute entry of the Choi; a covariant map's is read off its exact coefficients."""
        if self.exact is None:
            return self.choi.absmax()
        den, re, im = self.exact
        values_re, values_im = _pattern_values(self.d_in, re, im)
        return _largest(zip(values_re.values(), values_im.values()), den)

    def spectrum(self) -> list[float]:
        """Descending eigenvalues of the Choi, taken as Hermitian (``eigvalsh`` reads its lower triangle)."""
        if self.exact is None:
            return np.linalg.eigvalsh(self.choi.mat)[::-1].tolist()
        return covariant_spectrum(self.d_in, self.exact)

    def is_hp(self) -> bool:
        """Hermitian-preserving, i.e. Hermitian Choi within ``HP_TOL``.

        The Choi's adjoint has the coefficients conj(x_s^-1); only the two
        3-cycles are not their own inverses.
        """
        if self.exact is None:
            return bool(self.choi.is_hermitian(HP_TOL))
        den, re, im = self.exact
        inverse = (0, 1, 2, 3, 5, 4)
        skew_re = [re[k] - re[j] for k, j in enumerate(inverse)]
        skew_im = [im[k] + im[j] for k, j in enumerate(inverse)]
        values_re, values_im = _pattern_values(self.d_in, skew_re, skew_im)
        return _largest(zip(values_re.values(), values_im.values()), den) <= HP_TOL

    def is_cp(self) -> bool:
        """Completely positive, i.e. PSD Choi within ``HP_TOL``."""
        return bool(self.is_hp() and self.spectrum()[-1] >= -HP_TOL)

    def is_tp(self) -> bool:
        """Trace-preserving:  Tr_out[choi] = I_in within ``HP_TOL``.

        A covariant Choi's Tr_out commutes with every Ubar, so it is
        Tr[choi]/d times I; Tr[P_s^T3] = d^c(s), c counting cycles.
        """
        if self.exact is None:
            red = partial_trace(self.choi, (self.d_out, self.d_in), keep="second")
            return bool(np.abs(red.mat - np.eye(self.d_in)).max() <= HP_TOL)
        d, (den, re, im) = self.d_in, self.exact
        powers = [d ** _cycles(s) for s in S3]
        trace_re, trace_im = (sum(x * p for x, p in zip(part, powers)) for part in (re, im))
        return _largest([(trace_re - d * den, trace_im)], d * den) <= HP_TOL

    # -- linear structure ---------------------------------------------------

    def _check_same_dims(self, other):
        if (self.d_in, self.d_out) != (other.d_in, other.d_out):
            raise ValueError("supermap dimensions do not match")

    def _combined(self, other: "SuperMap", sign: int) -> "SuperMap":
        """self + sign * other: exact for two covariant maps, otherwise on the Choi."""
        self._check_same_dims(other)
        if self.exact is None or other.exact is None:
            return SuperMap(self.d_in, self.d_out, self.choi + other.choi * sign)
        (p, a_re, a_im), (q, b_re, b_im) = self.exact, other.exact
        parts = ([a * q + sign * b * p for a, b in zip(a_s, b_s)] for a_s, b_s in ((a_re, b_re), (a_im, b_im)))
        return SuperMap(self.d_in, self.d_out, exact=(p * q, *parts))

    def __add__(self, other: "SuperMap") -> "SuperMap":
        return self._combined(other, 1)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        return self._combined(other, -1)

    def __mul__(self, scalar) -> "SuperMap":
        """A scalar multiple; a covariant map reads an int, float or complex scalar exactly."""
        if self.exact is None:
            return SuperMap(self.d_in, self.d_out, self.choi * scalar)
        (den, re, im), (q, (s_re,), (s_im,)) = self.exact, _ratios([scalar])
        product_re = [a * s_re - b * s_im for a, b in zip(re, im)]
        product_im = [a * s_im + b * s_re for a, b in zip(re, im)]
        return SuperMap(self.d_in, self.d_out, exact=(den * q, product_re, product_im))

    __rmul__ = __mul__

    def __truediv__(self, divisor: int) -> "SuperMap":
        """The map divided by a nonzero int; exact for a covariant map."""
        if self.exact is None:
            return SuperMap(self.d_in, self.d_out, Operator(self.choi.mat / divisor))
        den, re, im = self.exact
        return SuperMap(self.d_in, self.d_out, exact=(den * divisor, re, im))

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


def covariant_map(d: int, coeffs, den: int = 1) -> SuperMap:
    """The covariant map d -> d^2 whose Choi is  sum_k coeffs[k] / den P_k^T3, k indexing ``S3``.

    Each coefficient is an int, float or complex number, read exactly; the
    nonzero int ``den`` divides them all, so a rational coefficient is exact
    as an integer over ``den``.
    """
    num, re, im = _ratios(coeffs)
    return SuperMap(d, d * d, exact=(num * den, re, im))


def match_covariant(d: int, re: list, im: list) -> SuperMap | None:
    """The covariant map d -> d^2 whose Choi has the rows ``re`` + i ``im``, or None when it has none.

    ``re`` and ``im`` are d^3 rows of d^3 numbers each, and each coefficient
    reads off the first position of ``table_support(d)`` with a given mask.
    At d >= 3 each table element k is 1 alone at some positions: mask
    ``1 << k``.  At d = 2 two of any three labels agree, so each position
    holds two elements, one of the identity and the 3-cycles and one of the
    transpositions, or all six; the signed sum of the six vanishes, so one
    coefficient is free.  Taking x_(12) = 0, as every named map has, x_id
    and the 3-cycles' read off their positions with (12), and x_(13) and
    x_(23) off their positions with the identity, less x_id, exactly.  The
    Choi is covariant exactly when ``covariant_entries`` of the map's float
    coefficients reproduces it: every support entry equals its expanded
    value and every other entry is 0.0, compared as floats with no tolerance.
    """
    n = d**3
    first = {}
    for pos, mask in table_support(d):
        first.setdefault(mask, pos)
    cells = (divmod(first[mask], n) for mask in ((1, 2, 4, 8, 16, 32) if d >= 3 else (3, 5, 9, 18, 34)))
    read = [complex(re[row][col], im[row][col]) for row, col in cells]
    if d >= 3:
        m = covariant_map(d, read)
    else:
        den, *parts = _ratios(read)
        m = SuperMap(d, d * d, exact=(den, *([x[0], 0, x[1] - x[0], x[2] - x[0], x[3], x[4]] for x in parts)))
    values, entries = covariant_entries(d, m.coeffs)
    want_re, want_im = [[0.0] * n for _ in range(n)], [[0.0] * n for _ in range(n)]
    for pos, index in entries:
        row, col = divmod(pos, n)
        want_re[row][col], want_im[row][col] = values[index].real, values[index].imag
    return m if re == want_re and im == want_im else None


def _ratios(coeffs) -> tuple[int, list[int], list[int]]:
    """Numbers as (den, re, im): integer numerators of their real and imaginary parts over one den.

    A float part is a dyadic rational (``float.as_integer_ratio``), so den
    is a power of two, or 1 when every part is an int.
    """
    parts = []
    for c in coeffs:
        if isinstance(c, int):
            parts += [(c, 1), (0, 1)]
            continue
        z = complex(c)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"coefficients must be finite, got {c!r}")
        parts += [z.real.as_integer_ratio(), z.imag.as_integer_ratio()]
    den = max(q for _, q in parts) if parts else 1
    nums = [n * (den // q) for n, q in parts]
    return den, nums[::2], nums[1::2]


def _lowest_terms(den: int, re, im) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(den, re, im) divided by the gcd of all its integers, with den > 0; six numerators each."""
    if len(re) != 6 or len(im) != 6:
        raise ValueError(f"a covariant map needs 6 coefficients, got {len(re)}")
    if not den:
        raise ValueError("the coefficients' denominator must be nonzero")
    g = math.gcd(den, *re, *im) * (1 if den > 0 else -1)
    return den // g, tuple(a // g for a in re), tuple(b // g for b in im)


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


def _largest(pairs, den: int) -> float:
    """The largest |re + i im| / den over pairs of integer numerators, picked exactly and rounded once; 0.0 for none."""
    return surd(0, 1, max((re * re + im * im for re, im in pairs), default=0), den)


def _pattern_values(d: int, re, im) -> tuple[dict, dict]:
    """sum_k (re[k] + i im[k]) P_k^T3 on each pattern that occurs at d: (re, im) dicts of its entries there.

    An entry sums the numerators over its pattern's table support.
    """
    table = _pattern_table(d)
    return tuple({p: sum(part[k] for k in support) for p, _, support in table} for part in (re, im))


def covariant_blocks(d: int, exact) -> tuple[int, int, int, int, int]:
    """The Choi spectrum of a covariant map as integers (den, a, b, s, w); eigenvalues in ``covariant_spectrum``.

    C = sum_k x_k P_k^T3 with x_k = (re[k] + i im[k]) / den, taken as
    Hermitian.  The four table elements that move the input factor map
    every vector into the span of  E1 v = v (x) Omega_23  and
    E2 v = (swap_12 E1) v, 2d dimensions with Gram matrix [[d, 1], [1, d]] (x) I.
    On that span C acts as a 2 x 2 block (x) I, Hermitian in the orthonormal
    basis (E1 +- E2) / sqrt(2 (d +- 1)), whose two eigenvalues
    (s +- sqrt(w)) / (2 den) each have multiplicity d, with
    s = Re(2 x_id + d (x_(13) + x_(23)) + x_c + x_c'),
    t = Re(2 x_(12) + x_(13) + x_(23) + d (x_c + x_c')),
    u = x_(23) + x_c - x_(13) - x_c'  and  w = t^2 + (d^2 - 1) |u|^2,
    all in numerators over den (c, c' the two 3-cycles).  Modulo the span,
    C acts as x_id I + x_(12) SWAP_12, with eigenvalues a / den and b / den,
    a = Re(x_id + x_(12)), b = Re(x_id - x_(12)), of multiplicities
    d^2 (d + 1)/2 - d and d^2 (d - 1)/2 - d.
    """
    den, re, im = exact
    s = 2 * re[0] + d * (re[2] + re[3]) + re[4] + re[5]
    t = 2 * re[1] + re[2] + re[3] + d * (re[4] + re[5])
    u_re, u_im = (x[3] + x[4] - x[2] - x[5] for x in (re, im))
    return den, re[0] + re[1], re[0] - re[1], s, t * t + (d * d - 1) * (u_re * u_re + u_im * u_im)


def surd(p: int, q: int, w: int, r: int = 1, mode: str = "nearest") -> float:
    """(p + q sqrt(w)) / r for integers, w >= 0 and r > 0, rounded once to the "nearest" float, "down" or "up".

    Each end of n <= sqrt(w) 2^k <= n + 1, n = isqrt(w 4^k) >= 2^63, gives the
    value by one int/int division, (p 2^k + q n) / (r 2^k); k grows by 64 until
    both ends round to one float of one sign, which ends cancellation too, as
    a nonzero |p + q sqrt(w)| >= 1 / (|p| + |q| sqrt(w)).  "down" and "up" step
    from it to the next float when the exact sign of its error says so.  Past
    the float range, OverflowError.
    """
    step = {"nearest": 0, "down": -1, "up": 1}[mode]
    k, ends = max(0, 64 - w.bit_length() // 2) - 64, ()
    while len(ends) != 1:
        k += 64
        n = math.isqrt(w << 2 * k)
        ends = {(x / (r << k), x < 0) for x in ((p << k) + q * root for root in (n, n + (n * n != w << 2 * k)))}
    ((value, _),) = ends
    if step:
        num, den = value.as_integer_ratio()
        if surd_sign(p * den - num * r, q * den, w) == step:  # the sign of (p + q sqrt(w)) / r - value
            value = math.nextafter(value, step * math.inf)
    return value


def surd_sign(p: int, q: int, w: int) -> int:
    """The exact sign of p + q sqrt(w) for integers, w >= 0, by squaring: -1, 0 or 1."""
    v = p * abs(p) + q * abs(q) * w
    return (v > 0) - (v < 0)


def _surd_spectrum(d: int, exact) -> tuple[int, int, list[tuple[int, int]]]:
    """C's descending eigenvalues as (r, w, [(p, q), ...]), each (p + q sqrt(w)) / r, ordered by exact sign tests."""
    den, a, b, s, w = covariant_blocks(d, exact)
    values = [(2 * a, 0), (2 * b, 0), (s, 1), (s, -1)]
    counts = (d * d * (d + 1) // 2 - d, d * d * (d - 1) // 2 - d, d, d)
    order = functools.cmp_to_key(lambda x, y: surd_sign(y[0] - x[0], y[1] - x[1], w))
    return 2 * den, w, [v for v, n in sorted(zip(values, counts), key=lambda vn: order(vn[0])) for _ in range(n)]


def covariant_spectrum(d: int, exact) -> list[float]:
    """Descending eigenvalues of the Hermitian  C = sum_k x_k P_k^T3, from ``covariant_blocks``: d^3 floats."""
    r, w, values = _surd_spectrum(d, exact)
    rounded = {(p, q): surd(p, q, w, r) for p, q in set(values)}
    return [rounded[v] for v in values]


def spectral_distance(d: int, exact, reference) -> float:
    """Largest |v - u| over the paired descending Choi spectra of covariant ``exact`` and a rational ``reference``."""
    (r, w, mine), (ref_r, ref_w, theirs) = _surd_spectrum(d, exact), _surd_spectrum(d, reference)
    root = int(surd(0, 1, ref_w))
    if root * root != ref_w:
        raise ValueError("the reference spectrum must be rational")
    pairs = set(zip(mine, (p + q * root for p, q in theirs)))
    return max(abs(surd(p * ref_r - e * r, q * ref_r, w, r * ref_r)) for (p, q), e in pairs)


class AffineDecomposition(NamedTuple):
    """HPTP map written as lambda_plus * plus - lambda_minus * minus with CPTP parts."""

    lambda_plus: float
    lambda_minus: float
    map_plus: SuperMap
    map_minus: SuperMap

    def combined(self) -> SuperMap:
        """The map this decomposition represents."""
        return self.lambda_plus * self.map_plus - self.lambda_minus * self.map_minus
