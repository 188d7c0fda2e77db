"""Linear maps on operators, held as a dense Choi or exactly by the Choi's symmetry.

Conventions (fixed across the library):

* The Choi operator of ``m: Lin(C^d_in) -> Lin(C^d_out)`` lives on
  ``C^d_out (x) C^d_in`` and equals ``sum_ij m(E_ij) (x) E_ij`` for matrix
  units ``E_ij`` -- equivalently ``(m (x) id)(Omega)`` with the unnormalized
  maximally entangled ``Omega = sum_ij |ii><jj|``.  Output factor first.
* The Jamiolkowski form lives on ``C^d_in (x) C^d_out`` and equals
  ``sum_ij E_ij (x) m(E_ji)``, i.e. ``(id (x) m)`` applied to the SWAP of the
  doubled input space.  For the identity map it *is* SWAP.  ``cli`` writes
  it for ``dump``, by pattern.

A map d -> d^2 is covariant, (U (x) U) m(rho) (U (x) U)+ = m(U rho U+), exactly
when its Choi commutes with U (x) U (x) Ubar.  By mixed Schur-Weyl duality
(the walled Brauer algebra B_{2,1}(d); Benkart et al., J. Algebra 166
(1994)) such Chois are the combinations  sum_k x_k P_k^T3  of the six factor
permutations of ``S3`` transposed on the input factor, the table elements.
``covariant_map`` keeps a map as those six coefficients.  Each entry of
such a Choi depends only on which of its six labels (out1, out2, in;
out1', out2', in') are equal, its equality pattern (``equality_patterns``,
at most 203).  A pattern map d -> d^(n-1) keeps one value per equality
pattern of its Choi's 2n labels, the n - 1 outputs and the input, then
their primed copies: six for the classical broadcaster, four for the
decoherence.  ``SuperMap.exact`` holds either form in integer numerators
over one positive denominator, so sums, differences and scalar multiples
stay exact; ``coeffs`` and ``patterns`` are its float views.  A structured
map's largest entry, Hermiticity and trace-preservation tests and axiom
residuals are read off ``exact_values``, its Choi by pattern in integers.
A covariant map's spectrum has the closed form of ``covariant_blocks``,
and a diagonal pattern map's (B_cl, D) is its diagonal.  Those reads touch
no numpy; each result is a quadratic surd (p + q sqrt(w)) / r, rounded to
a float once by ``surd``.  A structured map holds no dense Choi.
The pattern is also the one layout of both forms: ``pattern_positions``
lists a pattern's Choi positions and ``pattern_floats`` its float entry,
the covariant one summed over the pattern's table support
(``_pattern_table``).  The Choi and Jamiolkowski operators that ``dump``
writes are filled from those two; ``match_covariant`` runs them
backwards, reading the six coefficients off a Choi's entries and keeping
them only if they reproduce every entry.  ``apply`` sums a covariant
map's six terms' actions on a d x d input (``_covariant_apply``) in
O(d^4).

A dense map, one built from its Choi, serves ``is_hp`` and the dense
diamond bracket, and nothing else: the exact reads above raise
ValueError on it, as ``spectrum`` does on a pattern map that is not
diagonal, which no named map is.

``is_hp`` and ``is_tp`` of a structured map compare its exact residual with
0; ``HP_TOL`` gates ``is_hp`` of a dense map alone.  A map's Choi JSON
layout belongs to ``cli``.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import _lazy
from .densemat import S3, Operator, _raw

np = _lazy("numpy")


# The gate of ``SuperMap.is_hp`` on a dense map; a structured map's predicates are exact.
HP_TOL = 1e-8


class SuperMap:
    """Linear map Lin(C^d_in) -> Lin(C^d_out), held as its Choi operator or exactly, by symmetry.

    Give one of three forms: the Choi; ``exact``, a ``(den, re, im)``
    triple of integer numerators over one nonzero integer denominator, six
    each for a covariant map d -> d^2 (``covariant_map`` builds it from
    numbers) or dicts by pattern for a pattern map; or ``patterns``, finite
    numbers, read exactly, by equality pattern (``equality_patterns(2n)``,
    all of one length) for a map d -> d^(n-1) whose Choi entry depends only
    on which of its 2n labels are equal, 0 on those it leaves out.  A
    structured map keeps ``exact`` in lowest terms with ``den`` > 0, less
    the patterns of more groups than d, which hold no entry, and its float
    view ``coeffs`` (covariant) or ``patterns``, each part num/den rounded
    once.  Forms not given are None: a structured map's ``choi`` is None.
    """

    __slots__ = ("d_in", "d_out", "coeffs", "exact", "patterns", "choi")

    def __init__(self, d_in: int, d_out: int, choi: Operator | None = None, patterns=None, exact=None):
        if sum(form is not None for form in (choi, patterns, exact)) != 1:
            raise ValueError("give a SuperMap either its Choi, its six covariant coefficients or its patterns")
        coeffs = keys = None
        if patterns is not None:
            den, *parts = _ratios(patterns.values())
            exact = den, *(dict(zip(patterns, part)) for part in parts)
        if exact is not None:
            _require_dim(d_in)
            den, re, im = exact
            if isinstance(re, dict):
                labels = {len(p) for p in re} or {6}
                if len(labels) > 1 or min(labels) % 2 or any(pattern_of(p) != p for p in re):
                    raise ValueError("pattern keys must be equality patterns of one even length, labelled by first use")
                n = labels.pop() // 2
                if d_out != d_in ** (n - 1):
                    raise ValueError(f"pattern keys of {2 * n} labels make a map d -> d^{n - 1}, got {d_in} -> {d_out}")
                keys = [p for p in re if max(p) < d_in]
                re, im = [re[p] for p in keys], [im[p] for p in keys]
            elif d_out != d_in * d_in:
                raise ValueError(f"a covariant map goes d -> d^2, got {d_in} -> {d_out}")
            elif len(re) != 6 or len(im) != 6:
                raise ValueError(f"a covariant map needs 6 coefficients, got {len(re)}")
            if not den:
                raise ValueError("the coefficients' denominator must be nonzero")
            g = math.gcd(den, *re, *im) * (1 if den > 0 else -1)
            den, re, im = den // g, tuple(a // g for a in re), tuple(b // g for b in im)
            view = [complex(a / den, b / den) for a, b in zip(re, im)]
            if keys is None:
                exact, coeffs = (den, re, im), tuple(view)
            else:
                exact, patterns = (den, dict(zip(keys, re)), dict(zip(keys, im))), dict(zip(keys, view))
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
        object.__setattr__(self, "choi", choi)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMap is immutable")

    # -- action -------------------------------------------------------------

    def apply(self, x) -> Operator:
        """Evaluate a covariant map on a d x d input from its six coefficients (``_covariant_apply``)."""
        if self.coeffs is None:
            raise ValueError("apply reads a covariant map's six coefficients")
        xm = _raw(x)
        if xm.shape != (self.d_in, self.d_in):
            raise ValueError(f"input must be {self.d_in}x{self.d_in}, got {xm.shape}")
        return Operator(_covariant_apply(self.coeffs, xm))

    # -- predicates ---------------------------------------------------------

    def choi_absmax(self) -> float:
        """Largest absolute entry of a structured map's Choi, read off ``exact_values``."""
        den, re, im = exact_values(self)
        return _largest(zip(re.values(), im.values()), den)

    def spectrum(self) -> list[float]:
        """Descending eigenvalues of the Choi, taken as Hermitian (``_surd_spectrum``), each rounded once."""
        r, w, values = _surd_spectrum(self)
        rounded = {(p, q): surd(p, q, w, r) for p, q in set(values)}
        return [rounded[v] for v in values]

    def is_hp(self) -> bool:
        """Hermitian-preserving, i.e. Hermitian Choi: exactly for a structured map, within ``HP_TOL`` for a dense one.

        A structured map compares its value on each pattern with the
        conjugate of its value on the ``_adjoint`` pattern, in integers.
        """
        if self.exact is None:
            return bool(self.choi.is_hermitian(HP_TOL))
        _, re, im = exact_values(self)
        return all(re[p] == re.get(q, 0) and im[p] == -im.get(q, 0) for p, q in zip(re, map(_adjoint, re)))

    def is_tp(self) -> bool:
        """Trace-preserving:  Tr_out[choi] = I_in exactly, for a structured map.

        Tr_out C is read off ``exact_values``: each pattern
        whose outputs repeat as its primed outputs, with k groups, adds its
        value perm(d - 1, k - 1) times to each diagonal entry when its two
        input labels agree, and perm(d - 2, k - 2) times to each
        off-diagonal entry when they differ.
        """
        d, (den, re, im) = self.d_in, exact_values(self)
        residual = {True: [-den, 0], False: [0, 0]}  # Tr_out C - I on and off the diagonal, numerators over den
        for p in re:
            half = len(p) // 2
            if p[: half - 1] == p[half:-1]:
                same = p[half - 1] == p[-1]
                count = math.perm(d - 2 + same, max(p) - 1 + same)
                residual[same][0] += re[p] * count
                residual[same][1] += im[p] * count
        return not any(residual[True] + residual[False])

    # -- linear structure ---------------------------------------------------

    def _check_same_dims(self, other):
        if (self.d_in, self.d_out) != (other.d_in, other.d_out):
            raise ValueError("supermap dimensions do not match")

    def _combined(self, other: "SuperMap", sign: int) -> "SuperMap":
        """self + sign * other for two structured maps, exactly: covariant if both are, else by pattern."""
        self._check_same_dims(other)
        if self.coeffs is not None and other.coeffs is not None:
            (p, *a), (q, *b) = self.exact, other.exact
            parts = ([x * q + sign * y * p for x, y in zip(a_s, b_s)] for a_s, b_s in zip(a, b))
        else:  # a pattern map, on the union of both maps' patterns
            (p, *a), (q, *b) = exact_values(self), exact_values(other)
            parts = ({k: a_s.get(k, 0) * q + sign * b_s.get(k, 0) * p for k in a_s | b_s} for a_s, b_s in zip(a, b))
        return SuperMap(self.d_in, self.d_out, exact=(p * q, *parts))

    def __add__(self, other: "SuperMap") -> "SuperMap":
        return self._combined(other, 1)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        return self._combined(other, -1)

    def __mul__(self, scalar) -> "SuperMap":
        """A structured map times an int, float or complex scalar, read exactly."""
        # a dense map has no exact form, and exact_values refuses it
        (den, re, im), (q, (s_re,), (s_im,)) = self.exact or exact_values(self), _ratios([scalar])
        keys = list(re) if self.coeffs is None else range(6)
        product_re = [re[k] * s_re - im[k] * s_im for k in keys]
        product_im = [re[k] * s_im + im[k] * s_re for k in keys]
        if self.coeffs is None:
            product_re, product_im = dict(zip(keys, product_re)), dict(zip(keys, product_im))
        return SuperMap(self.d_in, self.d_out, exact=(den * q, product_re, product_im))

    __rmul__ = __mul__

    def __truediv__(self, divisor: int) -> "SuperMap":
        """A structured map divided by a nonzero int, exactly."""
        den, re, im = self.exact or exact_values(self)  # a dense map raises there
        return SuperMap(self.d_in, self.d_out, exact=(den * divisor, re, im))

    def __repr__(self):
        return f"SuperMap(d_in={self.d_in}, d_out={self.d_out})"


# ---------------------------------------------------------------------------
# covariant maps d -> d^2 as six coefficients


def _require_dim(d: int):
    if d < 2:
        raise ValueError(f"maps d -> d^2 need dimension >= 2, got {d}")


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
    reads off the first position of the first pattern with a given table
    support (``_pattern_table``).  At d >= 3 each table element k is 1 alone
    on some pattern: support (k,).  At d = 2 two of any three labels agree,
    so each pattern holds two elements, one of the identity and the 3-cycles
    and one of the transpositions, or all six; the signed sum of the six
    vanishes, so one coefficient is free.  Taking x_(12) = 0, as every named
    map has, x_id and the 3-cycles' read off their patterns with (12), and
    x_(13) and x_(23) off their patterns with the identity, less x_id,
    exactly.  The Choi is covariant exactly when ``pattern_floats`` of the
    map reproduces it: every entry of a pattern equals its value and every
    other entry is 0.0, compared as floats with no tolerance.
    """
    n, first = d**3, {}
    for pattern, _, support in _pattern_table(d):
        first.setdefault(support, pattern)
    supports = [(k,) for k in range(6)] if d >= 3 else [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    cells = (divmod(pattern_positions(d, first[s])[0], n) for s in supports)
    read = [complex(re[row][col], im[row][col]) for row, col in cells]
    if d >= 3:
        m = covariant_map(d, read)
    else:
        den, *parts = _ratios(read)
        m = SuperMap(d, d * d, exact=(den, *([x[0], 0, x[1] - x[0], x[2] - x[0], x[3], x[4]] for x in parts)))
    want_re, want_im = [[0.0] * n for _ in range(n)], [[0.0] * n for _ in range(n)]
    for pattern, value in pattern_floats(m).items():
        for pos in pattern_positions(d, pattern):
            row, col = divmod(pos, n)
            want_re[row][col], want_im[row][col] = value.real, value.imag
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


def pattern_of(labels) -> tuple[int, ...]:
    """The equality pattern of a label tuple: its labels renumbered by first occurrence."""
    first = {}
    return tuple(first.setdefault(v, len(first)) for v in labels)


@functools.cache
def pattern_positions(d: int, pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major flat positions in the d^n x d^n Choi of the label tuples with an equality pattern of 2n labels.

    One label tuple per injective labelling of the pattern's groups, so
    ``math.perm(d, max(pattern) + 1)`` positions; none when it has more
    groups than d.
    """
    top = len(pattern) - 1
    return tuple(
        sum(labels[g] * d ** (top - k) for k, g in enumerate(pattern))
        for labels in itertools.permutations(range(d), max(pattern) + 1)
    )


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


def exact_values(m: SuperMap) -> tuple[int, dict, dict]:
    """A structured map's Choi by pattern: (den, re, im), integer numerators over den by pattern, 0 where missing.

    A covariant map's sum its numerators over each pattern's table support.  A dense map has none: ValueError.
    """
    if m.exact is None:
        raise ValueError("this reads a covariant or pattern map's exact values, not a dense Choi")
    if m.coeffs is None:
        return m.exact
    den, re, im = m.exact
    table = _pattern_table(m.d_in)
    return den, *({p: sum(part[k] for k in support) for p, _, support in table} for part in (re, im))


@functools.cache
def _adjoint(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The pattern of the adjoint entry: the column labels first, then the row labels, renumbered."""
    return pattern_of(pattern[len(pattern) // 2 :] + pattern[: len(pattern) // 2])


def pattern_floats(m: SuperMap) -> dict[tuple[int, ...], complex]:
    """Each nonzero Choi entry of a covariant or pattern map by its pattern, as a complex float.

    A pattern map's entry is its own value.  A covariant map's is 0j plus
    the float coefficients on the pattern's table support, added left to
    right in ``S3`` order: bit for bit the entry that adding each
    coeffs[k] P_k^T3 in turn into a zero complex array forms.
    """
    if m.coeffs is None:
        return {p: v for p, v in m.patterns.items() if v}
    values = {}
    for pattern, _, support in _pattern_table(m.d_in):
        value = 0j
        for k in support:
            value += m.coeffs[k]
        if value:
            values[pattern] = value
    return values


def covariant_blocks(d: int, exact) -> tuple[int, int, int, int, int]:
    """The Choi spectrum of a covariant map as integers (den, a, b, s, w); eigenvalues in ``_surd_spectrum``.

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


def covariant_norm(d: int, exact) -> tuple[int, int, int, int]:
    """||C||_1 / d of a covariant map as integers (p, q, w, r): the surd (p + q sqrt(w)) / r that ``surd`` rounds.

    From ``covariant_blocks``, the 2 x 2 block's eigenvalues have
    |lambda+| + |lambda-| = max(|s|, sqrt(w)) / den, so
    ||C||_1 / d = (m1 |a| + m2 |b| + d sqrt(max(s^2, w))) / (d den), m1 and m2
    the multiplicities of a and b.  It is the diamond norm of a covariant HP
    map (``diamond``) and the overhead of its Jordan split (``qsample``).
    """
    den, a, b, s, w = covariant_blocks(d, exact)
    rational = (d * d * (d + 1) // 2 - d) * abs(a) + (d * d * (d - 1) // 2 - d) * abs(b)
    return rational, d, max(s * s, w), d * den


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


def _surd_spectrum(m: SuperMap) -> tuple[int, int, list[tuple[int, int]]]:
    """m's descending Choi eigenvalues, taken as Hermitian, as (r, w, [(p, q), ...]), each (p + q sqrt(w)) / r.

    A covariant map's come from ``covariant_blocks``.  A diagonal pattern map, whose nonzero patterns repeat
    their row labels as their column labels, has its real values, each once per position, and 0 elsewhere.
    Both are ordered by exact sign tests.  Any other map, dense or a pattern map that is not diagonal, raises
    ValueError.
    """
    d = m.d_in
    if m.coeffs is not None:
        den, a, b, s, w = covariant_blocks(d, m.exact)
        r, values = 2 * den, [(2 * a, 0), (2 * b, 0), (s, 1), (s, -1)]
        counts = [d * d * (d + 1) // 2 - d, d * d * (d - 1) // 2 - d, d, d]
    elif m.exact is not None and all(p[: len(p) // 2] == p[len(p) // 2 :] for p in pattern_floats(m)):
        (r, re, _), w = m.exact, 0
        counts = [math.perm(d, max(p) + 1) for p in re]
        values, counts = [*((v, 0) for v in re.values()), (0, 0)], [*counts, m.d_out * d - sum(counts)]
    else:
        raise ValueError("the spectrum is read off a covariant map or a diagonal pattern map")
    order = functools.cmp_to_key(lambda x, y: surd_sign(y[0] - x[0], y[1] - x[1], w))
    return r, w, [v for v, n in sorted(zip(values, counts), key=lambda vn: order(vn[0])) for _ in range(n)]


def spectral_distance(m: SuperMap, reference: SuperMap) -> float:
    """Largest |v - u| over the paired descending Choi spectra (``_surd_spectrum``) of m and a rational reference."""
    (r, w, mine), (ref_r, ref_w, theirs) = _surd_spectrum(m), _surd_spectrum(reference)
    root = int(surd(0, 1, ref_w))
    if root * root != ref_w:
        raise ValueError("the reference spectrum must be rational")
    pairs = set(zip(mine, (p + q * root for p, q in theirs)))
    return max(abs(surd(p * ref_r - e * r, q * ref_r, w, r * ref_r)) for (p, q), e in pairs)
