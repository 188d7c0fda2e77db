import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from pytest import mark, raises

from vbcast.densemat import (
    Operator,
    Rng,
    eigh,
    identity,
    kron,
    partial_trace,
    random_density,
    swap,
    trace_norm,
)
from vbcast.supermap import SuperMap, omega
from vbcast.broadcast import (
    antisym,
    canonical_b,
    canonical_decomposition,
    check_axioms,
    classical_bcl,
    cloner,
    commutant_basis,
    commutant_projection,
    commutant_table,
    covariant_map,
    decoherence,
    family_b_lambda,
    verify_uniqueness,
)
from vbcast.hovm import depolarizing_mp, exact_mp_map

from dense_covariant import choi_projector, dense_b_lambda, dense_mp_choi, permutation_operators
from dense_uniqueness import dense_verify_uniqueness
from random_fixtures import basis_state, haar_unitary, random_channel, random_pure
from sampled_axioms import sampled_broadcasting


class TestCanonicalB:
    def test_qubit_ground_state(self):
        # B(|0><0|) = |00><00| + (|01><10| + |10><01|)/2, basis order 00,01,10,11
        out = canonical_b(2).apply(basis_state(2, 0))
        want = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert_allclose(out.mat, want, atol=1e-15)

    @mark.parametrize("d", range(2, 7))
    def test_both_marginals(self, d):
        b = canonical_b(d)
        rng = Rng(d)
        for _ in range(20):
            rho = random_density(d, rng)
            out = b.apply(rho)
            assert_allclose(partial_trace(out, (d, d), keep="first").mat, rho.mat, atol=1e-12)
            assert_allclose(partial_trace(out, (d, d), keep="second").mat, rho.mat, atol=1e-12)

    @mark.parametrize("d", (2, 3, 4))
    def test_action_is_anticommutator(self, d):
        b = canonical_b(d)
        rho = random_density(d, Rng(d + 50))
        a = kron(rho, identity(d)).mat
        s = swap(d).mat
        assert_allclose(b.apply(rho).mat, 0.5 * (a @ s + s @ a), atol=1e-13)

    @mark.parametrize("d", (2, 3))
    def test_choi_closed_form(self, d):
        # C(B) = (1/2){SWAP (x) I, I (x) Omega}
        s12 = np.kron(swap(d).mat, np.eye(d))
        om23 = np.kron(np.eye(d), omega(d).mat)
        assert_allclose(canonical_b(d).choi.mat, 0.5 * (s12 @ om23 + om23 @ s12), atol=1e-13)

    @mark.parametrize("d", (2, 3, 4))
    def test_hp_tp_not_cp(self, d):
        b = canonical_b(d)
        assert b.is_hp() and b.is_tp()
        assert not b.is_cp()

    def test_rejects_dim_one(self):
        # the dimension is checked before any coefficient arithmetic can divide by d - 1
        builds = (canonical_b, cloner, antisym, lambda d: covariant_map(d, [1, 0, 0, 0, 0, 0]))
        for build in builds:
            with warnings.catch_warnings(), raises(ValueError):
                warnings.simplefilter("error")
                build(1)


class TestFamily:
    def test_lambda_zero_is_canonical(self):
        assert_allclose(family_b_lambda(3, 0.0).choi.mat, canonical_b(3).choi.mat)

    @mark.parametrize("lam", (-0.4, 0.3, 1.1))
    def test_trace_preserving_and_marginals(self, lam):
        d = 2
        m = family_b_lambda(d, lam)
        assert m.is_hp() and m.is_tp()
        rho = random_density(d, Rng(8))
        out = m.apply(rho)
        assert_allclose(partial_trace(out, (d, d), keep="first").mat, rho.mat, atol=1e-12)
        assert_allclose(partial_trace(out, (d, d), keep="second").mat, rho.mat, atol=1e-12)


class TestClonerAntisym:
    @mark.parametrize("d", (2, 3, 4, 5))
    def test_cptp(self, d):
        assert cloner(d).is_cp() and cloner(d).is_tp()
        assert antisym(d).is_cp() and antisym(d).is_tp()

    @mark.parametrize("d", (2, 3, 4, 5))
    def test_cloner_marginal_formula(self, d):
        # Tr_2[B+(psi)] = (I + (d+2) psi) / (2(d+1)) for pure psi
        psi = random_pure(d, Rng(d))
        marg = partial_trace(cloner(d).apply(psi), (d, d), keep="first")
        want = (identity(d) + (d + 2) * psi) * (1.0 / (2 * (d + 1)))
        assert_allclose(marg.mat, want.mat, atol=1e-12)

    @mark.parametrize("d", (2, 3, 4, 5))
    def test_cloner_broadcast_deficit(self, d):
        psi = random_pure(d, Rng(d + 9))
        marg = partial_trace(cloner(d).apply(psi), (d, d), keep="first")
        diff = marg - psi
        vals, _ = eigh(diff)
        assert np.abs(vals).max() == pytest.approx((d - 1) / (2 * (d + 1)), abs=1e-12)
        assert trace_norm(diff) == pytest.approx((d - 1) / (d + 1), abs=1e-12)

    def test_antisym_output_in_antisym_subspace(self):
        d = 3
        rho = random_density(d, Rng(4))
        out = antisym(d).apply(rho).mat
        s = swap(d).mat
        assert_allclose(s @ out @ s, out, atol=1e-13)
        assert_allclose(s @ out, -out, atol=1e-13)


class TestDecomposition:
    @mark.parametrize("d", (2, 3, 4))
    def test_combination_is_exact(self, d):
        dec = canonical_decomposition(d)
        assert dec.lambda_plus == pytest.approx((d + 1) / 2)
        assert dec.lambda_minus == pytest.approx((d - 1) / 2)
        assert_allclose(dec.combined().choi.mat, canonical_b(d).choi.mat, atol=1e-13)

    @mark.parametrize("d", (2, 3, 4))
    def test_choi_spectrum(self, d):
        vals, _ = eigh(canonical_b(d).choi)
        want = np.array(
            sorted([(d + 1) / 2] * d + [0.0] * (d**3 - 2 * d) + [-(d - 1) / 2] * d, reverse=True)
        )
        assert_allclose(vals, want, atol=1e-8)

    @mark.parametrize("d", (2, 3))
    def test_projector_identities(self, d):
        bp = choi_projector(d, +1)
        bm = choi_projector(d, -1)
        assert_allclose((bp @ bp).mat, ((d + 1) / 2 * bp).mat, atol=1e-12)
        assert_allclose((bm @ bm).mat, ((d - 1) / 2 * bm).mat, atol=1e-12)
        assert (bp @ bm).absmax() < 1e-12
        # rescaled projectors are exactly the cloner/antisymmetrizer Chois
        assert_allclose((2.0 / (d + 1) * bp).mat, cloner(d).choi.mat, atol=1e-12)
        assert_allclose((2.0 / (d - 1) * bm).mat, antisym(d).choi.mat, atol=1e-12)


class TestDecoherence:
    def test_kills_off_diagonals(self):
        rho = random_density(3, Rng(2))
        out = decoherence(3).apply(rho)
        assert_allclose(out.mat, np.diag(np.diag(rho.mat)), atol=1e-14)

    def test_idempotent_self_adjoint(self):
        m = decoherence(4)
        assert_allclose(m.compose(m).choi.mat, m.choi.mat, atol=1e-13)
        assert_allclose(m.hs_adjoint().choi.mat, m.choi.mat, atol=1e-13)

    def test_rotated_basis(self):
        u = haar_unitary(3, Rng(5))
        m = decoherence(3, basis=u)
        rho = random_density(3, Rng(6))
        conj = u.dagger() @ rho @ u
        want = u.mat @ np.diag(np.diag(conj.mat)) @ u.dagger().mat
        assert_allclose(m.apply(rho).mat, want, atol=1e-13)

    def test_rejects_nonunitary_basis(self):
        with raises(ValueError):
            decoherence(2, basis=Operator([[1, 0], [0, 2]]))


class TestClassicalBcl:
    @mark.parametrize("d", (2, 3))
    def test_diagonal_copy(self, d):
        rho = random_density(d, Rng(d))
        out = classical_bcl(d).apply(rho)
        want = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            want[i * d + i, i * d + i] = rho.mat[i, i]
        assert_allclose(out.mat, want, atol=1e-14)

    def test_cptp(self):
        m = classical_bcl(3)
        assert m.is_cp() and m.is_tp()


class TestCheckAxioms:
    def test_canonical_passes(self):
        rep = check_axioms(canonical_b(3))
        assert rep.passes(1e-10)
        assert rep.max_residual() < 1e-12

    @mark.parametrize("lam", (0.3, 0.7))
    def test_family_fails_only_permutation(self, lam):
        rep = check_axioms(family_b_lambda(2, lam))
        assert rep.broadcasting < 1e-10
        assert rep.covariance < 1e-10
        assert rep.classical < 1e-10
        assert rep.permutation > 1e-2
        assert not rep.passes(1e-10)

    @mark.parametrize("d", (2, 3))
    def test_cloner_deficit_detected(self, d):
        # the optimal physical broadcaster misses by (d-1)/(d+1) on pure states
        assert sampled_broadcasting(cloner(d), n_states=30, rng=Rng(d)) >= (d - 1) / (d + 1) - 1e-6

    @mark.parametrize("d", range(2, 7))
    def test_cloner_exact_residual(self, d):
        # each marginal of B+ is eta rho + (1 - eta) I/d with eta = (d+2)/(2(d+1)), so
        # its Choi misses Omega by (1 - eta) = d/(2(d+1)) on the off-diagonal |ii><jj|
        assert check_axioms(cloner(d)).broadcasting == pytest.approx(d / (2 * (d + 1)), abs=1e-12)

    @mark.parametrize("d", (2, 3))
    def test_broadcasting_matches_sampled_reference(self, d):
        maps = {
            "B": canonical_b(d),
            "B_lambda:0.3": family_b_lambda(d, 0.3),
            "B+": cloner(d),
            "B_cl": classical_bcl(d),
            "random": random_channel(d, d * d, Rng(7)),
        }
        for name, m in maps.items():
            exact = check_axioms(m).broadcasting
            sampled = sampled_broadcasting(m, n_states=30, rng=Rng(20 + d))
            assert (exact < 1e-10 and sampled < 1e-10) or (exact > 1e-2 and sampled > 1e-2), (name, exact, sampled)


class TestCheckAxiomsCovariance:
    @mark.parametrize("d", (2, 3))
    def test_non_covariant_maps_flagged(self, d):
        for m in (classical_bcl(d), random_channel(d, d * d, Rng(40 + d))):
            rep = check_axioms(m)
            assert rep.covariance > 1e-2

    @mark.parametrize("d", (2, 3))
    def test_classical_matches_decohered_chain(self, d):
        # the Choi-diagonal reading equals the (D (x) D) . m . D chain against B_cl
        dec = decoherence(d)
        for m in (canonical_b(d), cloner(d), family_b_lambda(d, 0.4), random_channel(d, d * d, Rng(d))):
            chained = dec.tensor(dec).compose(m).compose(dec)
            want = (chained.choi - classical_bcl(d).choi).absmax()
            assert check_axioms(m).classical == pytest.approx(want, abs=1e-14)


class TestCommutant:
    @mark.parametrize("d", range(2, 7))
    def test_partial_transposes_commute_with_uu_ubar(self, d):
        n = d**3
        qs = [p.mat.reshape((d,) * 6).transpose(0, 1, 5, 3, 4, 2).reshape(n, n) for p in permutation_operators(d)]
        rng = Rng(60 + d)
        for _ in range(3):
            u = haar_unitary(d, rng).mat
            w = np.kron(np.kron(u, u), u.conj())
            for q in qs:
                assert np.abs(w @ q - q @ w).max() < 1e-12
        rank = np.linalg.matrix_rank(np.stack([q.ravel() for q in qs]))
        assert rank == (5 if d == 2 else 6)
        assert len(commutant_basis(d)) == rank

    @mark.parametrize("d", (2, 3, 4))
    def test_basis_orthonormal_hermitian(self, d):
        basis = commutant_basis(d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
        assert_allclose(basis, basis.conj().transpose(0, 2, 1), atol=1e-14)

    def test_basis_built_once_and_read_only(self):
        for build in (commutant_basis, commutant_table):
            shared = build(3)
            assert build(3) is shared
            assert not shared.flags.writeable
            with raises(ValueError):
                shared[0, 0, 0] = 1
        assert commutant_table(3).dtype == np.int8
        assert commutant_table(3).shape == (6, 27, 27)

    @mark.parametrize("d", range(2, 7))
    def test_table_coefficients_match_paper_formulas(self, d):
        # each constructor's six coefficients against the dense product or moment sum it stands for
        pairs = (
            (canonical_b(d), dense_b_lambda(d, 0.0)),
            (family_b_lambda(d, 0.3), dense_b_lambda(d, 0.3)),
            (family_b_lambda(d, -0.7), dense_b_lambda(d, -0.7)),
            (cloner(d), (2 / (d + 1) * choi_projector(d, +1)).mat),
            (antisym(d), (2 / (d - 1) * choi_projector(d, -1)).mat),
            (depolarizing_mp(d), np.eye(d**3) / d**2),
        )
        for m, ref in pairs:
            assert np.array_equal(m.choi.mat, ref)
        assert np.abs(exact_mp_map(d).choi.mat - dense_mp_choi(d)).max() <= 1e-15

    @mark.parametrize("coeffs", ([], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]))
    def test_covariant_map_needs_six_coefficients(self, coeffs):
        with raises(ValueError, match="6 coefficients"):
            covariant_map(3, coeffs)

    @mark.parametrize("d", (2, 3))
    def test_projection_is_haar_twirl_fixed_point(self, d):
        # covariant Chois are fixed, and the projection of any Choi is covariant
        for m in (
            canonical_b(d), cloner(d), antisym(d), family_b_lambda(d, 0.3), exact_mp_map(d), depolarizing_mp(d)
        ):
            assert (m.choi - commutant_projection(m.choi, d)).absmax() < 1e-13
        proj = commutant_projection(random_channel(d, d * d, Rng(d)).choi, d).mat
        u = haar_unitary(d, Rng(70 + d)).mat
        w = np.kron(np.kron(u, u), u.conj())
        assert np.abs(w @ proj @ w.conj().T - proj).max() < 1e-12

    @mark.parametrize("d", (2, 3, 6))
    def test_lambda_choi_closed_form(self, d):
        # C(B_lambda) = (1/2){Omega_13, S_12} + i lam [Omega_13, S_12], built by action
        lam = 0.3
        s = swap(d).mat
        eye = np.eye(d)

        def action(rho):
            a = np.kron(rho.mat, eye)
            return Operator((a @ s + s @ a) / 2 + 1j * lam * (a @ s - s @ a))

        ref = SuperMap.from_action(d, d * d, action)
        assert_allclose(family_b_lambda(d, lam).choi.mat, ref.choi.mat, atol=1e-14)


class TestUniqueness:
    def test_qubit_certificate(self):
        cert = verify_uniqueness(2)
        assert cert.nullity == 0
        assert cert.candidate_residual < 1e-8
        assert cert.singular_value_gap >= 1e6
        assert cert.unknowns == 5

    def test_dropping_permutation_opens_a_direction(self):
        cert = verify_uniqueness(2, include_permutation=False)
        assert cert.nullity == 1

    def test_dropping_classical_opens_a_direction(self):
        cert = verify_uniqueness(2, include_classical=False)
        assert cert.nullity == 1

    @mark.parametrize(
        "d, n_unitaries, nullities",
        # 4 Haar unitaries already fix the covariant span at d = 3; each extra one
        # adds 1458 rows to a 729-column SVD that dominates the suite's runtime.
        [(2, 20, (0, 1, 1, 2)), (3, 4, (0, 1, 2, 3))],
    )
    def test_matches_dense_reference(self, d, n_unitaries, nullities):
        switches = ((True, True), (False, True), (True, False), (False, False))
        for (perm, cl), want in zip(switches, nullities):
            dense = dense_verify_uniqueness(
                d, n_unitaries, Rng(d), include_permutation=perm, include_classical=cl
            )
            reduced = verify_uniqueness(d, include_permutation=perm, include_classical=cl)
            assert dense.nullity == reduced.nullity == want
            assert reduced.candidate_residual < 1e-12 and dense.candidate_residual < 1e-8
        assert dense.unknowns == d**6  # 2**6 Hermitian parameters at d = 2
