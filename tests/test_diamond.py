"""Diamond-norm SDP, the certified bracket and its bounds, and the closest-channel scan."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import vbcast.diamond
from vbcast.densemat import Operator, Rng, random_hermitian, trace_norm
from vbcast.supermap import AffineDecomposition, SuperMap
from vbcast.broadcast import antisym, canonical_b, canonical_decomposition, cloner, family_b_lambda
from vbcast.diamond import (
    _dual_upper,
    _input_first_choi,
    _jordan_abs,
    _jordan_certificate,
    diamond_bracket,
    diamond_sdp,
    float_slack,
    gap_floor,
    hptp_upper,
)
from vbcast.hovm import depolarizing_mp, exact_mp_map

from channel_scan import closest_channel_scan
from dense_maps import apply_right, compose, conjugate, from_action, identity_map, is_psd, tensor, witness_state
from random_fixtures import haar_unitary, random_channel


def jordan_upper(m):
    """||Tr_out |J|||_inf rounded up by ``float_slack``: an upper bound on ||m||<>.

    Y0 = Y1 = |J| is feasible for the dual SDP, since
    [[|J|, -J], [-J, |J|]] = P (x) [[1, -1], [-1, 1]] + N (x) [[1, 1], [1, 1]] >= 0,
    and its objective is ||Tr_out Y0||_inf.
    """
    return _jordan_certificate(m)[0]


def _assert_certified(res, exact):
    assert res.converged and res.iterations > 0
    assert res.lower_bound <= exact <= res.upper_bound
    assert 0 <= res.gap <= 1e-5
    assert res.value == (res.lower_bound + res.upper_bound) / 2


class TestSdp:
    def test_identity_map(self):
        res = diamond_sdp(identity_map(2))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-4)
        _assert_certified(res, 1.0)

    def test_random_channel_norm_one(self):
        res = diamond_sdp(random_channel(2, 3, Rng(1)))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-4)
        _assert_certified(res, 1.0)

    @pytest.mark.parametrize("d", (2, 3))
    def test_canonical_broadcaster(self, d):
        res = diamond_sdp(canonical_b(d))
        assert res.converged
        assert res.value == pytest.approx(d, abs=1e-4)
        _assert_certified(res, float(d))

    @pytest.mark.parametrize("d", (2, 3))
    def test_distance_to_cloner(self, d):
        res = diamond_sdp(canonical_b(d) - cloner(d))
        assert res.converged
        assert res.value == pytest.approx(d - 1, abs=1e-4)
        _assert_certified(res, float(d - 1))

    def test_distance_to_depolarizing(self):
        # the bracket closes at 5/2 without ADMM; the SDP must certify the same value
        m = canonical_b(2) - depolarizing_mp(2)
        closed = diamond_bracket(m, 1e-5)
        assert closed.iterations == 0 and closed.value == pytest.approx(2.5, abs=1e-12)
        _assert_certified(diamond_sdp(m), 2.5)

    def test_unitary_conjugation_invariance(self):
        m = canonical_b(2)
        u = haar_unitary(2, Rng(2))
        v = haar_unitary(4, Rng(3))
        pre = from_action(2, 2, lambda x: conjugate(u, x))
        post = from_action(4, 4, lambda x: conjugate(v, x))
        a = diamond_sdp(m).value
        b = diamond_sdp(compose(compose(post, m), pre)).value
        assert a == pytest.approx(b, abs=5e-4)

    def test_rejects_non_hp(self):
        bad = SuperMap(2, 2, Operator(np.triu(np.ones((4, 4)))))
        with pytest.raises(ValueError):
            diamond_sdp(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            diamond_sdp(identity_map(2), tolerance=-1)


def _max_entangled(d):
    w = np.eye(d).reshape(-1) / np.sqrt(d)
    return np.outer(w, w)


def _sandwich(d, seed):
    """X -> E(K X K^dag) for a channel E and a Ginibre K: CP, neither trace-preserving nor covariant."""
    rng = Rng(seed)
    k = Operator(rng.gen.standard_normal((d, d)) + 1j * rng.gen.standard_normal((d, d)))
    pre = from_action(d, d, lambda x: conjugate(k, x))
    return compose(random_channel(d, d, rng), pre)


class TestLowerSearch:
    """The bracket's reference-state lower bound and its witness."""

    @pytest.mark.parametrize("d", (2, 3))
    def test_reaches_exact_value_on_b(self, d):
        res = diamond_bracket(canonical_b(d))
        assert res.lower_bound == pytest.approx(d, abs=1e-6)

    def test_lower_bounds_the_sdp(self):
        m = canonical_b(2) - cloner(2)
        low = diamond_bracket(m).lower_bound
        up = diamond_sdp(m).value
        assert low <= up + 1e-4

    def test_witness_is_density(self):
        m = _sandwich(3, 7)
        res = diamond_bracket(m)
        w = witness_state(res)
        assert is_psd(w)
        assert w.trace() == pytest.approx(1.0)
        assert trace_norm(apply_right(m, w, d_left=m.d_in)) >= res.lower_bound

    def test_rejects_non_hp(self):
        bad = SuperMap(2, 2, Operator(np.triu(np.ones((4, 4)))))
        with pytest.raises(ValueError):
            diamond_bracket(bad)


def _random_hp_map(d_in, d_out, seed):
    return SuperMap(d_in, d_out, random_hermitian(d_in * d_out, Rng(seed)))


class TestJordanUpper:
    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 2), 2), ((2, 4), 3)])
    def test_dual_point_feasible_and_above_sdp(self, dims, seed):
        m = _random_hp_map(*dims, seed)
        j = _input_first_choi(m)
        y = _jordan_abs(j)
        block = np.block([[y, -j], [-j.conj().T, y]])
        assert np.linalg.eigvalsh(block)[0] >= -1e-10
        assert jordan_upper(m) >= diamond_sdp(m).value - 1e-4

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 2), 2), ((2, 4), 3)])
    def test_admm_dual_point_feasible_and_above_ascent(self, dims, seed):
        # the certificate holds for any Hermitian dual variable, not only ADMM's
        m = _random_hp_map(*dims, seed)
        n = m.d_in * m.d_out
        r = _input_first_choi(m)
        u = random_hermitian(2 * n, Rng(seed + 10)).mat
        bound, z = _dual_upper(r, u, m.d_in, m.d_out)
        assert np.linalg.eigvalsh(z)[0] >= -1e-10
        assert_allclose(z[:n, n:], -r / 2, atol=0)
        assert_allclose(z[n:, :n], -r.conj().T / 2, atol=0)
        assert bound >= diamond_bracket(m).lower_bound
        assert bound >= diamond_sdp(m).lower_bound

    @pytest.mark.parametrize("d", (2, 3))
    def test_channel_bound_is_one(self, d):
        m = random_channel(d, d, Rng(d))
        n = d * d
        assert 1.0 <= jordan_upper(m) <= 1.0 + 2 * float_slack(n, 1.0)

    def test_rejects_non_hp(self):
        bad = SuperMap(2, 2, Operator(np.triu(np.ones((4, 4)))))
        with pytest.raises(ValueError):
            jordan_upper(bad)


def _no_admm(*args, **kwargs):
    raise AssertionError("diamond_sdp ran although the bracket should close")


def _assert_open_gap_closed(m):
    res = diamond_bracket(m, 1e-5)
    assert jordan_upper(m) - res.upper_bound > 1e-2
    assert res.iterations > 0 and res.converged
    assert 0 <= res.gap <= 1e-5
    assert res.lower_bound <= res.value <= res.upper_bound
    assert res.value == (res.lower_bound + res.upper_bound) / 2
    # the witness attains the lower bound
    assert trace_norm(apply_right(m, witness_state(res), d_left=m.d_in)) >= res.lower_bound


class TestBracket:
    @pytest.mark.parametrize(
        "m,exact",
        [(canonical_b(d), float(d)) for d in (2, 3, 4, 5, 6)]
        + [(canonical_b(d) - cloner(d), float(d - 1)) for d in (3, 4)]
        + [(family_b_lambda(4, 0.3), None), (exact_mp_map(3) - canonical_b(3), None)]
        + [(depolarizing_mp(3) - cloner(3), None), (_sandwich(3, 7), None)],
        ids=["B2", "B3", "B4", "B5", "B6", "BmBp3", "BmBp4", "Blambda4", "MmB3", "MpmBp3", "sandwich3"],
    )
    def test_closes_without_admm(self, m, exact, monkeypatch):
        monkeypatch.setattr(vbcast.diamond, "diamond_sdp", _no_admm)
        res = diamond_bracket(m, 1e-5)
        assert res.iterations == 0 and res.converged
        assert res.lower_bound <= res.value <= res.upper_bound
        assert 0 <= res.gap <= 1e-5
        if exact is not None:
            assert res.lower_bound <= exact <= res.upper_bound
        if m.d_out == m.d_in**2:
            # the d -> d^2 maps here are U (x) U (x) conj(U)-covariant: the maximally entangled input is optimal
            assert_array_equal(witness_state(res).mat, _max_entangled(m.d_in))

    @pytest.mark.parametrize("target", ("B", "B-minus-Bplus"))
    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
    def test_covariant_bracket_pinned(self, d, target):
        # the exact bracket: ||B||<> = d and ||B - B+||<> = d - 1, with no rounding
        m = canonical_b(d) if target == "B" else canonical_b(d) - cloner(d)
        res = diamond_bracket(m)
        want = float(d if target == "B" else d - 1)
        assert (res.value, res.lower_bound, res.upper_bound, res.gap) == (want, want, want, 0.0)
        assert res.witness == (np.eye(d).reshape(-1) / np.sqrt(d)).tolist()
        assert_array_equal(witness_state(res).mat, _max_entangled(d))

    @pytest.mark.parametrize("d", (2, 4))
    def test_decomposition_bound_kept_exact(self, d):
        # lambda_plus + lambda_minus of B's CPTP split is the exact bracket's upper bound, bit for bit
        assert diamond_bracket(canonical_b(d)).upper_bound == hptp_upper(canonical_decomposition(d)) == float(d)

    def test_open_gap_falls_back_to_admm(self):
        # seeds 1, 2 draw a pair whose Jordan bound is only 0.0035 loose, short of an open gap
        _assert_open_gap_closed(random_channel(2, 2, Rng(2)) - random_channel(2, 2, Rng(3)))

    @pytest.mark.parametrize(
        "m",
        [random_channel(d, d, Rng(1)) - random_channel(d, d, Rng(2)) for d in (3, 4)]
        + [canonical_b(2) - random_channel(2, 4, Rng(500))],
        ids=["channels3", "channels4", "BmScan0"],
    )
    def test_closes_open_gaps(self, m):
        _assert_open_gap_closed(m)

    @pytest.mark.parametrize(
        "m",
        [SuperMap(4, 16, canonical_b(4).choi), random_channel(2, 2, Rng(2)) - random_channel(2, 2, Rng(3))],
        ids=["dense-B4", "channels2"],
    )
    def test_gap_floor_bounds_every_bracket(self, m):
        # a dense bracket run to its tightest tolerance is still at least gap_floor wide
        res = diamond_bracket(m, 1e-9)
        assert res.gap >= gap_floor(m, res.lower_bound, res.upper_bound) > 0

    @pytest.mark.parametrize(
        "m", [family_b_lambda(2, 0.3), random_channel(2, 2, Rng(2)) - random_channel(2, 2, Rng(3))]
    )
    def test_tolerance_below_floor_skips_admm(self, m, monkeypatch):
        # a covariant bracket is exact, so its floor is its own gap
        monkeypatch.setattr(vbcast.diamond, "diamond_sdp", _no_admm)
        res = diamond_bracket(m, 1e-20)
        assert res.iterations == 0 and not res.converged
        assert 1e-20 < gap_floor(m, res.lower_bound, res.upper_bound) <= res.gap
        assert (gap_floor(m, res.lower_bound, res.upper_bound) == res.gap) is (m.exact is not None)

    def test_floor_doubles_without_proven_upper(self, monkeypatch):
        # both certified bounds of a dense map carry float_slack, so 1.5 slacks are out of reach too
        m = random_channel(2, 2, Rng(2)) - random_channel(2, 2, Rng(3))
        monkeypatch.setattr(vbcast.diamond, "diamond_sdp", _no_admm)
        res = diamond_bracket(m, 1e-20)
        slack = float_slack(m.d_in * m.d_out, res.lower_bound)
        assert gap_floor(m, res.lower_bound, res.upper_bound) == 2 * slack
        res = diamond_bracket(m, 1.5 * slack)
        assert res.iterations == 0 and not res.converged

    def test_floor_is_capped_at_the_gap(self, monkeypatch):
        # B's Choi as a dense map: the Jordan value sits 4.4e-16 below the reference value, so the bracket
        # closes at 1.1324e-13, narrower than the two slacks (1.1369e-13); the floor is the gap itself
        m = SuperMap(2, 4, canonical_b(2).choi)
        monkeypatch.setattr(vbcast.diamond, "diamond_sdp", _no_admm)
        res = diamond_bracket(m, 1e-14)
        assert res.iterations == 0 and not res.converged
        assert 2 * float_slack(8, res.lower_bound) > res.gap == gap_floor(m, res.lower_bound, res.upper_bound)

    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
    def test_covariant_bracket_is_exact_at_any_tolerance(self, d, monkeypatch):
        # a covariant bracket never runs ADMM: [d, d] meets 1e-20, and B_lambda:0.3's irrational norm,
        # one or two ulps wide, is reported unconverged with 0 iterations
        monkeypatch.setattr(vbcast.diamond, "diamond_sdp", _no_admm)
        assert diamond_bracket(canonical_b(d), 1e-20).converged
        res = diamond_bracket(family_b_lambda(d, 0.3), 1e-20)
        assert res.iterations == 0 and not res.converged
        assert 0 < res.gap <= 2 * math.ulp(res.upper_bound)

    def test_lower_bound_rounded_down(self):
        res = diamond_bracket(identity_map(3))
        assert res.iterations == 0
        assert res.lower_bound < 1.0
        assert res.lower_bound == pytest.approx(1.0, abs=float_slack(9, 1.0) * 1.01)


class TestUpperAndScan:
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_hptp_upper_on_canonical(self, d):
        assert hptp_upper(canonical_decomposition(d)) == pytest.approx(d)

    def test_hptp_upper_rejects_non_cptp(self):
        b = canonical_b(2)
        dec = AffineDecomposition(1.0, 0.0, b, cloner(2))
        with pytest.raises(ValueError):
            hptp_upper(dec)

    @pytest.mark.parametrize("weights", [(1.0, -0.5), (-0.5, 1.0), (-1.5, -0.5), (float("nan"), 0.5)])
    def test_hptp_upper_rejects_negative_weights(self, weights):
        # a negative weight makes lambda_plus + lambda_minus no upper bound: B+ - 0.5 B- has norm 1.5
        with pytest.raises(ValueError, match="non-negative"):
            hptp_upper(AffineDecomposition(*weights, cloner(2), antisym(2)))

    def test_hptp_upper_rejects_all_zero_weights(self):
        with pytest.raises(ValueError, match="all-zero"):
            hptp_upper(AffineDecomposition(0.0, 0.0, cloner(2), antisym(2)))

    def test_hptp_upper_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            hptp_upper(AffineDecomposition(1.0, 1.0, cloner(2), random_channel(3, 9, Rng(0))))

    def test_scan_ranks_cloner_first(self):
        d = 2
        rng = Rng(5)
        cands = [cloner(d), antisym(d), depolarizing_mp(d)]
        cands += [random_channel(d, d * d, rng) for _ in range(6)]
        ranking = closest_channel_scan(canonical_b(d), cands)
        assert ranking[0][0] == 0
        # gaps sorted ascending and the cloner's equals d-1
        gaps = [g for _, g in ranking]
        assert gaps == sorted(gaps)
        assert ranking[0][1] == pytest.approx(d - 1, abs=1e-3)
        assert ranking[1][1] - ranking[0][1] > 1e-3

    def test_scan_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            closest_channel_scan(canonical_b(2), [random_channel(3, 9, Rng(0))])


@pytest.mark.parametrize("n, value", [(4, 0.0), (8, 1.0), (27, -2.5), (64, 3.0), (216, 6.0), (216, 1e300)])
def test_float_slack_matches_numpy_eps(n, value):
    assert float_slack(n, value) == float(16.0 * n * np.finfo(float).eps * max(1.0, abs(value)))


def test_pinching_contracts_diamond_distance():
    # post-processing both maps by the same pinching cannot increase distance
    from vbcast.broadcast import decoherence

    d = 2
    diff = canonical_b(d) - cloner(d)
    pinch = tensor(decoherence(d), decoherence(d))
    before = diamond_sdp(diff).value
    after = diamond_sdp(compose(pinch, diff)).value
    assert after <= before + 1e-4


def test_triangle_inequality():
    b = canonical_b(2)
    f = cloner(2)
    g = antisym(2)
    ab = diamond_sdp(b - f).value
    bc = diamond_sdp(f - g).value
    ac = diamond_sdp(b - g).value
    assert ac <= ab + bc + 1e-3
