"""Covariant maps as six coefficients, against the dense Choi they stand for.

Every read that a covariant map answers from its coefficients -- spectrum,
largest entry, the HP / CP / TP tests, ``apply``, the axiom residuals and the
diamond bracket -- is compared with the same read of a dense copy of its Choi, at
d = 2..6.  The pattern form's Choi and axiom residuals are compared with dense
references too.  The uniqueness certificate is compared with its dense references
in ``test_broadcast.py``.
"""

import decimal
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from pytest import mark

from vbcast.broadcast import (
    antisym,
    canonical_b,
    check_axioms,
    classical_bcl,
    cloner,
    decoherence,
    family_b_lambda,
)
from vbcast.densemat import Rng
from vbcast.diamond import diamond_bracket, float_slack
from vbcast.hovm import depolarizing_mp, exact_mp_map
from vbcast.supermap import (
    HP_TOL,
    SuperMap,
    _pattern_table,
    _surd_spectrum,
    choi_norm,
    covariant_blocks,
    covariant_map,
    equality_patterns,
    pattern_positions,
    spectral_distance,
    surd,
    surd_sign,
    table_entries,
)

from dense_axioms import dense_check_axioms
from dense_covariant import commutant_table, table_sum_choi
from dense_maps import absmax, dense, dense_add, dense_choi, dense_sub, exact_cp, is_cp, is_tp, witness_state

DIMS = range(2, 7)

# diamond_bracket(family_b_lambda(d, 0.3)) at d = 2..6, bit for bit
B_LAMBDA_BRACKETS = [
    [2.253885533916929, 2.2538855339169293],
    [3.446737587922817, 3.4467375879228173],
    [4.626013402488151, 4.626013402488152],
    [5.8, 5.800000000000001],
    [6.97137002317335, 6.971370023173351],
]


def _random_hermitian_coeffs(d, i):
    """x_id..x_(23) real and the two 3-cycles' coefficients conjugate: a Hermitian Choi."""
    g = Rng(90 + d, i).gen.standard_normal(6)
    return covariant_map(d, [g[0], g[1], g[2], g[3], g[4] + 1j * g[5], g[4] - 1j * g[5]])


def covariant_maps(d):
    maps = {
        "B": canonical_b(d),
        "B+": cloner(d),
        "B-": antisym(d),
        "B_lambda:0.3": family_b_lambda(d, 0.3),
        "M": exact_mp_map(d),
        "Mprime": depolarizing_mp(d),
        "M-B": exact_mp_map(d) - canonical_b(d),
    }
    maps.update({f"random{i}": _random_hermitian_coeffs(d, i) for i in range(3)})
    return maps


def _complex_gaussian(rng, *shape):
    return rng.gen.standard_normal(shape) + 1j * rng.gen.standard_normal(shape)


class TestPatterns:
    def test_bell_numbers(self):
        assert [len(equality_patterns(n)) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]

    @mark.parametrize("d", DIMS)
    def test_pattern_counts_cover_every_entry(self, d):
        assert sum(math.perm(d, max(p) + 1) for p in equality_patterns(6)) == d**6

    @mark.parametrize("d", (2, 3))
    def test_table_entries_match_table(self, d):
        labels = np.indices((d,) * 6).reshape(6, -1).T.tolist()
        assert np.array_equal(np.array([table_entries(l) for l in labels]).T, commutant_table(d).reshape(6, -1))

    @mark.parametrize("d", DIMS)
    def test_table_support_matches_table(self, d):
        # the positions of the patterns that occur at d cover the table once, and each pattern's support
        # lists exactly the elements that are 1 at its positions
        table = commutant_table(d).reshape(6, -1)
        seen = np.zeros(d**6, dtype=int)
        for pattern, count, support in _pattern_table(d):
            positions = list(pattern_positions(d, pattern))
            assert len(positions) == count
            np.add.at(seen, positions, 1)
            assert table[:, positions].tolist() == [[int(k in support)] * count for k in range(6)]
        assert seen.tolist() == [1] * d**6
        assert all(pattern_positions(d, p) == () for p in equality_patterns(6) if max(p) >= d)


class TestCovariantForm:
    def test_structured_maps_hold_no_choi(self):
        m = canonical_b(3)
        assert m.choi is None and isinstance(m.coeffs, tuple)
        assert all(type(c) is complex for c in m.coeffs)
        assert classical_bcl(3).choi is None and decoherence(3).choi is None

    @mark.parametrize("d", DIMS)
    def test_choi_is_the_table_sum_bit_for_bit(self, d):
        # the expansion adds each entry's coefficients left to right, as choi += c * term does
        maps = covariant_maps(d)
        maps.update({f"B_lambda:{lam}": family_b_lambda(d, lam) for lam in (1e300, -1e300, -1e-12, -0.0)})
        for name, m in maps.items():
            assert dense_choi(m).mat.tobytes() == table_sum_choi(d, m.coeffs).tobytes(), name

    def test_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="either"):
            SuperMap(2, 4)
        with pytest.raises(ValueError, match="either"):
            SuperMap(2, 4, dense_choi(canonical_b(2)), exact=canonical_b(2).exact)
        with pytest.raises(ValueError, match="d -> d\\^2"):
            SuperMap(2, 3, exact=(1, (0,) * 6, (0,) * 6))
        with pytest.raises(TypeError, match="coeffs"):
            SuperMap(2, 4, coeffs=canonical_b(2).coeffs)

    @mark.parametrize("d", DIMS)
    def test_rational_coefficients_are_exact(self, d):
        # integer numerators over one positive denominator, in lowest terms; + - * / stay exact
        zero = (0,) * 6
        assert canonical_b(d).exact == (2, (0, 0, 0, 0, 1, 1), zero)
        assert cloner(d).exact == (2 * (d + 1), (0, 0, 1, 1, 1, 1), zero)
        assert (canonical_b(d) - cloner(d)).exact == (2 * (d + 1), (0, 0, -1, -1, d, d), zero)
        assert ((d + 1) * cloner(d) - (d - 1) * antisym(d)).exact == (2 * canonical_b(d)).exact
        # Theorem 3: (d+2)^2 B = 4(d+1) M + d^2 M'
        mix = (4 * (d + 1) * exact_mp_map(d) + d * d * depolarizing_mp(d)) / (d + 2) ** 2
        assert mix.exact == canonical_b(d).exact
        den, re, im = (family_b_lambda(d, 0.3) * 1j).exact
        assert (den, re[4], im[4]) == (2**54, 5404319552844595, 2**53) and re[5] == -re[4]
        # the float view rounds each num / den once; a float coefficient round-trips
        assert cloner(d).coeffs[2] == complex(1 / (2 * (d + 1)))
        assert covariant_map(d, [0.1, -2.5, 1j, 3, 0, 1e300]).coeffs == (0.1, -2.5, 1j, 3, 0, 1e300)
        with pytest.raises(ValueError, match="finite"):
            covariant_map(d, [math.inf, 0, 0, 0, 0, 0])

    @mark.parametrize("d", (2, 4))
    def test_linear_structure_stays_covariant(self, d):
        a, b = exact_mp_map(d), family_b_lambda(d, 0.3)
        for got, want in (
            (a + b, dense_choi(a).mat + dense_choi(b).mat),
            (a - b, dense_choi(a).mat - dense_choi(b).mat),
            (2.5 * a, 2.5 * dense_choi(a).mat),
            (a * 1j, dense_choi(a).mat * 1j),
        ):
            assert got.coeffs is not None
            assert_allclose(dense_choi(got).mat, want, atol=1e-14)
        # a dense operand has no exact values: the sum of a covariant and a dense map is the tests' dense sum
        for combine in (lambda: a + dense(b), lambda: a - dense(b), lambda: 2.5 * dense(b), lambda: dense(b) / 2):
            with pytest.raises(ValueError, match="not a dense Choi"):
                combine()
        mixed = dense_add(a, dense(b))
        assert mixed.coeffs is None
        assert_allclose(mixed.choi.mat, dense_choi(a).mat + dense_choi(b).mat, atol=1e-14)

    @mark.parametrize("d", DIMS)
    def test_spectrum_matches_eigvalsh(self, d):
        for name, m in covariant_maps(d).items():
            assert_allclose(m.spectrum(), np.linalg.eigvalsh(dense_choi(m).mat)[::-1], atol=1e-10, err_msg=name)

    @mark.parametrize("d", DIMS)
    def test_predicates_and_absmax_match_dense(self, d):
        # The named maps and B_cl - B+ (a pattern map minus a covariant one) are exactly HP and TP or far from it,
        # so the exact predicates agree with the dense ones at HP_TOL, and exact_cp with the dense PSD test.
        # The skews and off_tp maps sit on either side of HP_TOL: skew's 3-cycle coefficients miss conjugacy by
        # t HP_TOL in C - C^dag (their sum, at the all-equal entry), pattern_skew's entries at (0, 0, 0, 0, 0, 1)
        # and at its adjoint pattern (0, 0, 1, 0, 0, 0) miss it by t HP_TOL, and off_tp has
        # Tr_out C = (1 + t HP_TOL) I.  A structured map's predicates compare with 0, so they no longer match the
        # dense gate there: both skews and both off_tp maps are rejected, where the dense test accepts t = 0.5.
        maps = covariant_maps(d)
        maps.update({"B_cl": classical_bcl(d), "D": decoherence(d), "B_cl-B+": classical_bcl(d) - cloner(d)})
        near = {}
        for t in (0.5, 2.0):
            near[f"skew{t}"] = covariant_map(d, [1, 0, 0, 0, 0.5, 0.5 + 0.5j * t * HP_TOL])
            near[f"off_tp{t}"] = covariant_map(d, [t * HP_TOL / d**2, 0, 0, 0, 0.5, 0.5])
            skew = {(0,) * 6: 1, (0, 0, 0, 0, 0, 1): 0.5, (0, 0, 1, 0, 0, 0): 0.5 + 1j * t * HP_TOL}
            near[f"pattern_skew{t}"] = SuperMap(d, d * d, patterns=skew)
        for name, m in {**maps, **near}.items():
            ref = dense(m)
            assert m.choi_absmax() == pytest.approx(absmax(ref.choi), abs=1e-14), name
            if name in near:
                continue
            assert (m.is_hp(), m.is_tp()) == (ref.is_hp(), is_tp(ref)), name
            if m.patterns is not None and name not in ("B_cl", "D") and m.is_hp():
                with pytest.raises(ValueError, match="spectrum"):  # only a diagonal pattern map has an exact spectrum
                    exact_cp(m)
            else:
                assert exact_cp(m) == is_cp(ref), name
        for t in (0.5, 2.0):
            assert not near[f"skew{t}"].is_hp() and not near[f"pattern_skew{t}"].is_hp()
            assert near[f"off_tp{t}"].is_hp() and not near[f"off_tp{t}"].is_tp()
        assert dense(near["skew0.5"]).is_hp() and is_tp(dense(near["off_tp0.5"]))
        assert maps["B_cl-B+"].coeffs is None and maps["B_cl-B+"].patterns is not None
        assert exact_cp(cloner(d)) and cloner(d).is_tp() and not exact_cp(canonical_b(d))

    def test_complex_absmax_rounded_once(self):
        # a complex largest entry is sqrt(re^2 + im^2) / den rounded once, checked against 200 bits of the root
        random.seed(0)
        for i in range(200):
            m = covariant_map(3, [complex(random.gauss(0, 1), random.gauss(0, 1)) for _ in range(6)])
            den, re, im = m.exact
            w = max(sum(re[k] for k in s) ** 2 + sum(im[k] for k in s) ** 2 for _, _, s in _pattern_table(3))
            assert m.choi_absmax() == float(Fraction(math.isqrt(w * 4**200), 2**200) / den), i

    @mark.parametrize("d", DIMS)
    def test_spectral_distance_needs_a_rational_reference(self, d):
        # the reference is rational by its form, (numerator, multiplicity) pairs over one den: the paper's spectrum
        # of B, (d + 1)/2 d times, 0 d^3 - 2d times and -(d - 1)/2 d times, is B's and not B_lambda:0.3's
        b, b_lam, paper = canonical_b(d), family_b_lambda(d, 0.3), [(d + 1, d), (0, d**3 - 2 * d), (1 - d, d)]
        assert spectral_distance(b_lam, paper, 2) > 0 == spectral_distance(b, paper, 2)
        # over another den, or with a value's run split in two, it is the same spectrum
        split = [(3 * (d + 1), d), (0, d), (0, d**3 - 3 * d), (3 * (1 - d), d)]
        assert spectral_distance(b_lam, split, 6) == spectral_distance(b_lam, paper, 2)
        # B's top eigenvalue paired with 0 from a reference that starts one place later
        shifted = [(d + 1, d - 1), (0, d**3 - 2 * d + 1), (1 - d, d)]
        assert spectral_distance(b, shifted, 2) == (d + 1) / 2

    @mark.parametrize("d", DIMS)
    def test_spectrum_pairs_are_distinct_and_descending(self, d):
        # each distinct eigenvalue once, with its multiplicity: at most four for a covariant map, and B's are the
        # paper's three; the pairs' trace norm is that of the dense Choi
        maps = {**covariant_maps(d), "B_cl": classical_bcl(d), "D": decoherence(d)}
        for name, m in maps.items():
            r, w, pairs = _surd_spectrum(m)
            values, counts = zip(*pairs)
            assert all(n > 0 for n in counts) and sum(counts) == m.d_in * m.d_out, name
            assert all(surd_sign(p - u, q - v, w) > 0 for (p, q), (u, v) in zip(values, values[1:])), name
            assert m.coeffs is None or len(pairs) <= 4, name
            trace_norm = np.abs(np.linalg.eigvalsh(dense_choi(m).mat)).sum()
            assert surd(*choi_norm(m)) == pytest.approx(trace_norm, rel=1e-12), name
        r, w, pairs = _surd_spectrum(canonical_b(d))
        paper = [(Fraction(d + 1, 2), d), (0, d**3 - 2 * d), (Fraction(1 - d, 2), d)]
        assert [(Fraction(p, r) + q * Fraction(math.isqrt(w), r), n) for (p, q), n in pairs] == paper


def _random_pattern_map(d, seed):
    """A pattern map with complex Gaussian values on a random third of the patterns that occur at d."""
    rng = Rng(seed)
    patterns = [p for p in equality_patterns(6) if max(p) < d and rng.gen.random() < 1 / 3]
    return SuperMap(d, d * d, patterns=dict(zip(patterns, _complex_gaussian(rng, len(patterns)).tolist())))


class TestPatternForm:
    @mark.parametrize("d", DIMS)
    def test_classical_broadcaster_choi_is_its_diagonal(self, d):
        # 1 at (ii i, ii i) for each i, zero elsewhere: the dense array B_cl had before its pattern form
        m = classical_bcl(d)
        assert m.coeffs is None and m.patterns == {(0, 0, 0, 0, 0, 0): 1 + 0j}
        want = np.zeros((d**3, d**3), dtype=complex)
        diag = np.arange(d) * (d * d + d + 1)
        want[diag, diag] = 1.0
        assert dense_choi(m).mat.tobytes() == want.tobytes()

    @mark.parametrize("d", DIMS)
    def test_covariant_values_give_the_covariant_choi(self, d):
        # a pattern's value is the sum of the coefficients over its table support
        for name, m in covariant_maps(d).items():
            values = {p: sum(c for c, e in zip(m.coeffs, table_entries(p)) if e) for p in equality_patterns(6)}
            got = dense_choi(SuperMap(d, d * d, patterns=values))
            assert_allclose(got.mat, dense_choi(m).mat, rtol=0, atol=1e-15, err_msg=name)

    @mark.parametrize("d", (2, 3, 4))
    def test_axioms_match_dense_reference(self, d):
        for seed in range(3):
            m = _random_pattern_map(d, 10 * d + seed)
            got, want = check_axioms(m), dense_check_axioms(m)
            assert got == pytest.approx(want, abs=1e-12), seed

    @mark.parametrize("d", DIMS)
    def test_diagonal_spectrum_is_eigvalsh_bit_for_bit(self, d):
        # B_cl's and D's Chois are diagonal: their spectra are their pattern values, each once per position
        for m in (classical_bcl(d), decoherence(d)):
            want = np.linalg.eigvalsh(dense_choi(m).mat)[::-1].tolist()
            assert [x.hex() for x in m.spectrum()] == [x.hex() for x in want]
            assert m.spectrum() == [1.0] * d + [0.0] * (m.d_out * d - d)

    @mark.parametrize("d", DIMS)
    def test_pattern_minus_covariant_is_exact(self, d):
        # B_cl - B+ is a pattern map in integers: its largest entry is the fractions reference rounded once,
        # where the dense float difference rounds twice (0.33333333333333337 at d = 2)
        got = classical_bcl(d) - cloner(d)
        plus = cloner(d)
        den = 2 * (d + 1)
        entries = [
            Fraction(int(p == (0,) * 6)) - Fraction(sum(plus.exact[1][k] for k in support), den)
            for p, _, support in _pattern_table(d)
        ]
        assert got.choi_absmax() == float(max(map(abs, entries)))
        assert (classical_bcl(2) - cloner(2)).choi_absmax() == 1 / 3
        assert absmax(dense_sub(dense(classical_bcl(2)), cloner(2)).choi) == 0.33333333333333337
        # division by an int stays exact too, and a map's exact form is in lowest terms
        assert (classical_bcl(d) / 6).exact == (6, {(0,) * 6: 1}, {(0,) * 6: 0})
        zero = {p: 0 for p, _, _ in _pattern_table(d)}
        assert (got + plus - classical_bcl(d)).exact == (1, zero, zero)

    @mark.parametrize("d", DIMS)
    def test_scalar_multiple_stays_exact(self, d):
        # one numerator per pattern, scaled exactly, with the Choi of the dense multiple
        for m in (classical_bcl(d), decoherence(d), _random_pattern_map(d, 30 + d)):
            for scalar in (2, 0.1, 0.5 - 0.25j):
                got = m * scalar
                assert got.coeffs is None and got.patterns is not None
                assert_allclose(dense_choi(got).mat, dense_choi(m).mat * scalar, rtol=0, atol=1e-15)
        assert (2 * classical_bcl(d)).exact == (1, {(0,) * 6: 2}, {(0,) * 6: 0})
        num, den = (0.1).as_integer_ratio()
        assert (decoherence(d) * 0.1).exact == (den, {(0,) * 4: num}, {(0,) * 4: 0})

    @mark.parametrize("d", DIMS)
    def test_trace_preservation_matches_dense(self, d):
        # Tr_out C read by pattern, against the dense einsum.  The off_tp maps add t HP_TOL to each off-diagonal
        # entry of Tr_out C, as an output-repeating pattern whose inputs differ; the exact test rejects both,
        # where the dense test at HP_TOL accepts t = 0.5.  D_mixed holds 1 / (2 (d - 1)) exactly, so it is TP.
        maps = {"B_cl": classical_bcl(d), "D": decoherence(d), "B_cl-B": classical_bcl(d) - canonical_b(d)}
        mixed = {(0, 0, 0, 0): d - 1, (0, 1, 0, 1): 1}
        maps["D_mixed"] = SuperMap(d, d, exact=(2 * (d - 1), mixed, dict.fromkeys(mixed, 0)))
        maps.update({f"random{i}": _random_pattern_map(d, 40 + 10 * d + i) for i in range(3)})
        maps.update(covariant_maps(d))
        rng = Rng(60 + d)
        maps.update({f"gaussian{i}": covariant_map(d, _complex_gaussian(rng, 6).tolist()) for i in range(10)})
        for name, m in maps.items():
            assert m.is_tp() == is_tp(dense(m)), name
        assert maps["D_mixed"].is_tp()
        for t in (0.5, 2.0):
            off_tp = [
                SuperMap(d, d, patterns={(0, 0, 0, 0): 1, (0, 1, 0, 0): t * HP_TOL}),
                SuperMap(d, d * d, patterns={(0,) * 6: 1, (0, 0, 1, 0, 0, 0): t * HP_TOL}),
            ]
            for m in off_tp:
                assert not m.is_tp() and is_tp(dense(m)) == (t < 1)

    def test_values_must_be_finite(self):
        # a pattern value is read exactly once, at construction, so a NaN or an infinity never reaches the Choi
        for bad in (math.nan, math.inf, complex(0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                SuperMap(2, 4, patterns={(0,) * 6: bad})

    def test_rejects_keys_that_are_not_patterns(self):
        with pytest.raises(ValueError, match="equality patterns"):
            SuperMap(2, 4, patterns={(0, 0, 0, 0, 0, 2): 1.0})
        with pytest.raises(ValueError, match="d -> d\\^2"):
            SuperMap(2, 2, patterns={(0, 0, 0, 0, 0, 0): 1.0})
        assert dense_choi(SuperMap(3, 3, patterns={(0, 0, 0, 0): 1.0})).mat.shape == (9, 9)  # the decoherence's key
        with pytest.raises(ValueError, match="d -> d\\^1"):
            SuperMap(3, 9, patterns={(0, 0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="one even length"):
            SuperMap(2, 4, patterns={(0, 0, 0, 0): 1.0, (0, 0, 0, 0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="one even length"):
            SuperMap(2, 2, patterns={(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="dimension >= 2"):
            classical_bcl(1)


class TestAgainstDense:
    @mark.parametrize("d", DIMS)
    def test_apply(self, d):
        # covariant apply sums six O(d^4) terms; the reference is the dense Tr_in[C (I (x) X^T)]
        rng = Rng(70 + d)
        maps = {name: covariant_maps(d)[name] for name in ("B", "B+", "B-", "B_lambda:0.3", "M", "Mprime")}
        maps.update({f"complex{i}": covariant_map(d, _complex_gaussian(rng, 6)) for i in range(3)})
        x = _complex_gaussian(rng, d, d)
        inputs = {"hermitian": x + x.conj().T, "non-hermitian": x}
        for name, m in maps.items():
            c4 = dense_choi(m).mat.reshape(d * d, d, d * d, d)
            for kind, xm in inputs.items():
                want = np.einsum("uivj,ij->uv", c4, xm)
                assert_allclose(m.apply(xm).mat, want, rtol=0, atol=1e-12, err_msg=f"{name} {kind}")

    @mark.parametrize("d", DIMS)
    def test_axiom_residuals(self, d):
        for name, m in {**covariant_maps(d), "B_cl": classical_bcl(d)}.items():
            got, want = check_axioms(m)._asdict(), dense_check_axioms(m)._asdict()
            assert got["covariance"] == 0.0 or name == "B_cl"
            for axiom in got:
                assert got[axiom] == pytest.approx(want[axiom], abs=1e-12), (name, axiom)

    @mark.parametrize("d", DIMS)
    def test_diamond_bracket_matches_jordan_path(self, d):
        for name, m in covariant_maps(d).items():
            got, want = diamond_bracket(m), diamond_bracket(dense(m))
            assert got.iterations == want.iterations == 0 and got.converged
            # the exact bracket lies inside the dense path's, which is rounded outward by float_slack
            assert want.lower_bound <= got.lower_bound <= got.value <= got.upper_bound <= want.upper_bound, name
            # the covariant witness is the maximally entangled input exactly; the dense path's is close to it
            e = np.eye(d).reshape(-1) / np.sqrt(d)
            assert_array_equal(witness_state(got).mat, np.outer(e, e))
            assert_allclose(witness_state(want).mat, np.outer(e, e), atol=1e-12)
            # ||m||<> = ||C||_1 / d for a covariant Hermitian-preserving map
            assert got.value == pytest.approx(np.abs(np.linalg.eigvalsh(dense_choi(m).mat)).sum() / d, abs=1e-12)

    @mark.parametrize("d", DIMS)
    def test_diamond_bracket_holds_the_trace_norm(self, d):
        # seeded Hermitian coefficients, complex 3-cycles included; B_lambda:0.3's sqrt(w) is irrational
        maps = {f"random{i}": _random_hermitian_coeffs(d, i) for i in range(3)}
        maps["B_lambda:0.3"] = family_b_lambda(d, 0.3)
        for name, m in maps.items():
            res = diamond_bracket(m)
            n = d**3
            dense_norm = float(np.abs(np.linalg.eigvalsh(dense_choi(m).mat)).sum()) / d
            slack = float_slack(n, dense_norm)
            assert res.lower_bound - slack <= dense_norm <= res.upper_bound + slack, name
            # against 60 digits of the same closed form, and no wider than two ulps
            den, a, b, s, w = covariant_blocks(d, m.exact)
            with decimal.localcontext(decimal.Context(prec=60)):
                rational = (d * d * (d + 1) // 2 - d) * abs(a) + (d * d * (d - 1) // 2 - d) * abs(b)
                norm = (rational + decimal.Decimal(d * d * max(s * s, w)).sqrt()) / (d * den)
            assert decimal.Decimal(res.lower_bound) <= norm <= decimal.Decimal(res.upper_bound), name
            assert res.upper_bound - res.lower_bound <= 2 * math.ulp(res.upper_bound), name
        w = covariant_blocks(d, maps["B_lambda:0.3"].exact)[4]
        assert math.isqrt(w) ** 2 != w  # B_lambda:0.3's norm is irrational
        res = diamond_bracket(maps["B_lambda:0.3"])
        assert [res.lower_bound, res.upper_bound] == B_LAMBDA_BRACKETS[d - 2]
