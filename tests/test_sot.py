import numpy as np
import pytest
from numpy.testing import assert_allclose
from pytest import mark, raises

from vbcast import broadcast, densemat
from vbcast.densemat import Operator, Rng, random_density
from vbcast.broadcast import canonical_b, check_axioms, classical_bcl, cloner, family_b_lambda

from dense_axioms import dense_check_axioms
from dense_maps import (
    apply,
    apply_left,
    apply_right,
    eigh,
    identity_map,
    jamiolkowski,
    partial_trace,
    star,
    swap,
    trace,
)
from random_fixtures import basis_state, random_channel, random_pure
from sampled_postprocessing import check_postprocessing_equivalence
from sampled_sot import sampled_sot_axioms


class TestStar:
    def test_identity_on_maximally_mixed(self):
        # id * (I/2) is the qubit pseudo-density operator SWAP/2
        out = star(identity_map(2), Operator(np.eye(2) * 0.5), canonical_b(2))
        assert_allclose(out.mat, swap(2).mat / 2, atol=1e-14)

    @mark.parametrize("d", (2, 3, 4))
    def test_marginals(self, d):
        b = canonical_b(d)
        e = random_channel(d, d, Rng(d))
        rho = random_density(d, Rng(d + 1))
        out = star(e, rho, b)
        assert_allclose(partial_trace(out, (d, d), keep="first").mat, rho.mat, atol=1e-12)
        assert_allclose(partial_trace(out, (d, d), keep="second").mat, apply(e, rho).mat, atol=1e-12)
        assert trace(out) == pytest.approx(1.0)
        assert out.is_hermitian()

    @mark.parametrize("d", (2, 3, 4))
    def test_symmetric_bloom(self, d):
        # E * rho built on B is (1/2){rho (x) I, J[E]}, J[E] = (id (x) E)(SWAP) the Jamiolkowski operator of E
        for k in range(3):
            rng = Rng(50 + d, k)
            e, rho = random_channel(d, d, rng), random_density(d, rng)
            jam = apply_right(e, swap(d), d_left=d).mat
            assert_allclose(jam, jamiolkowski(e).mat, atol=1e-14)
            rho_i = np.kron(rho.mat, np.eye(d))
            assert_allclose(star(e, rho, canonical_b(d)).mat, (rho_i @ jam + jam @ rho_i) / 2, rtol=0, atol=1e-12)

    @mark.parametrize("d", (2, 3, 4))
    def test_negativity_on_pure_input(self, d):
        # id * psi has d-1 eigenvalues -1/2; total negative weight -(d-1)/2
        psi = random_pure(d, Rng(d + 2))
        out = star(identity_map(d), psi, canonical_b(d))
        vals, _ = eigh(out)
        neg = vals[vals < -1e-10]
        assert_allclose(neg, -0.5 * np.ones(d - 1), atol=1e-10)
        assert neg.sum() == pytest.approx(-(d - 1) / 2, abs=1e-10)

    def test_qubit_pure_spectrum(self):
        out = star(identity_map(2), basis_state(2, 0), canonical_b(2))
        vals, _ = eigh(out)
        assert_allclose(vals, [1.0, 0.5, 0.0, -0.5], atol=1e-12)

    def test_dim_checks(self):
        with raises(ValueError):
            star(random_channel(3, 3, Rng(0)), random_density(2, Rng(0)), canonical_b(2))
        with raises(ValueError):
            star(identity_map(2), random_density(3, Rng(0)), canonical_b(2))
        with raises(ValueError):
            star(identity_map(2), random_density(2, Rng(0)), identity_map(2))


AXIOMS = ("broadcasting", "covariance", "permutation", "classical")
SOT_AXIOMS = AXIOMS[1:]


def reference_maps(d):
    return {
        "B": canonical_b(d),
        "B_lambda:0.3": family_b_lambda(d, 0.3),
        "B+": cloner(d),
        "B_cl": classical_bcl(d),
        "random": random_channel(d, d * d, Rng(7)),
    }


class TestAxioms:
    """The axioms of E * rho are b's own (``vbcast.sot``), so ``check_axioms`` on b reads them."""

    @mark.parametrize("d", (2, 3, 4))
    def test_canonical_broadcaster_passes(self, d):
        rep = check_axioms(canonical_b(d))
        assert max(rep) == 0.0

    def test_family_fails_permutation(self):
        rep = check_axioms(family_b_lambda(2, 0.5))
        assert rep.permutation > 0.05
        assert rep.covariance < 1e-10
        assert rep.classical < 1e-10
        assert max(rep) == rep.permutation

    @mark.parametrize("d", (2, 3))
    def test_non_covariant_maps_fail_covariance(self, d):
        rep = check_axioms(classical_bcl(d))
        assert rep.covariance == (d + 4) * (d - 1) / ((d + 1) * (d + 2))
        assert (rep.broadcasting, rep.permutation, rep.classical) == (1.0, 0.0, 0.0)
        assert dense_check_axioms(random_channel(d, d * d, Rng(d))).covariance > 1e-2

    @mark.parametrize("d", (2, 3))
    def test_cloner_fails_classical(self, d):
        rep = check_axioms(cloner(d))
        assert rep.classical > 1e-2
        assert rep.covariance < 1e-10
        assert rep.permutation < 1e-10

    def test_report_fields(self):
        rep = check_axioms(canonical_b(2))
        assert rep._fields == AXIOMS
        assert all(isinstance(getattr(rep, name), float) for name in AXIOMS)

    def test_rejects_non_broadcaster(self):
        with raises(ValueError):
            check_axioms(identity_map(2))

    @mark.parametrize("d", (2, 3))
    def test_matches_sampled_reference(self, d):
        # b's exact residuals and the residuals sampled from E * rho agree on which axioms hold: the reduction
        for name, m in reference_maps(d).items():
            exact = dense_check_axioms(m) if name == "random" else check_axioms(m)
            sampled = sampled_sot_axioms(m, n_cases=25, rng=Rng(40 + d))
            for axiom in SOT_AXIOMS:
                a, s = getattr(exact, axiom), sampled[axiom]
                assert (a < 1e-10 and s < 1e-10) or (a > 1e-2 and s > 1e-2), (name, axiom, a, s)

    def test_no_sampling(self, monkeypatch):
        b = canonical_b(6)

        def fail(*args, **kwargs):
            raise AssertionError("axiom checks must not sample")

        for name in ("random_density", "random_hermitian", "trace_norm"):
            monkeypatch.setattr(densemat, name, fail)
            monkeypatch.setattr(broadcast, name, fail, raising=False)
        assert max(check_axioms(b)) == 0.0


class TestPostprocessing:
    @mark.parametrize("d", (2, 3))
    def test_canonical_star_consistent(self, d):
        res = check_postprocessing_equivalence(canonical_b(d), n_cases=20, rng=Rng(d))
        assert res.composition < 1e-10
        assert res.heisenberg < 1e-10

    def test_wrong_side_star_violates_consistency(self):
        # applying the channel to the first output instead of the second
        # breaks both composition and Heisenberg consistency
        b = canonical_b(2)

        def wrong(e, rho):
            return apply_left(e, b.apply(rho), d_right=2)

        res = check_postprocessing_equivalence(b, n_cases=20, rng=Rng(3), star_fn=wrong)
        assert res.composition > 1e-3
        assert res.heisenberg > 1e-3
