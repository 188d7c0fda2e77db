import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from pytest import mark, raises

from vbcast.densemat import (
    S3,
    Operator,
    Rng,
    random_density,
    random_hermitian,
    trace_norm,
)
from vbcast.broadcast import (
    _exact_rank,
    antisym,
    canonical_b,
    check_axioms,
    classical_bcl,
    cloner,
    commutant_gram,
    covariant_map,
    decoherence,
    family_b_lambda,
    verify_uniqueness,
)
from vbcast.hovm import depolarizing_mp, exact_mp_map
from vbcast.supermap import SuperMap

from dense_covariant import (
    choi_projector,
    commutant_basis,
    commutant_table,
    dense_b_lambda,
    dense_commutant_projection,
    dense_mp_choi,
    permutation_operators,
)
from dense_axioms import commutant_projection, dense_check_axioms
from dense_maps import (
    absmax,
    apply,
    compose,
    conjugate,
    dagger,
    decoherence_in,
    dense_choi,
    eigh,
    exact_cp,
    from_action,
    hs_adjoint,
    identity,
    kron,
    omega,
    partial_trace,
    swap,
    tensor,
)
from dense_uniqueness import dense_basis_uniqueness, dense_verify_uniqueness, table_column_uniqueness
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
        assert_allclose(dense_choi(canonical_b(d)).mat, 0.5 * (s12 @ om23 + om23 @ s12), atol=1e-13)

    @mark.parametrize("d", (2, 3, 4))
    def test_hp_tp_not_cp(self, d):
        b = canonical_b(d)
        assert b.is_hp() and b.is_tp()
        assert not exact_cp(b)

    def test_rejects_dim_one(self):
        # the dimension is checked before any coefficient arithmetic can divide by d - 1
        builds = (canonical_b, cloner, antisym, lambda d: covariant_map(d, [1, 0, 0, 0, 0, 0]))
        for build in builds:
            with warnings.catch_warnings(), raises(ValueError):
                warnings.simplefilter("error")
                build(1)


class TestFamily:
    def test_lambda_zero_is_canonical(self):
        assert_allclose(dense_choi(family_b_lambda(3, 0.0)).mat, dense_choi(canonical_b(3)).mat)

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
        assert exact_cp(cloner(d)) and cloner(d).is_tp()
        assert exact_cp(antisym(d)) and antisym(d).is_tp()

    @mark.parametrize("d", (2, 3, 4, 5))
    def test_cloner_marginal_formula(self, d):
        # Tr_2[B+(psi)] = (I + (d+2) psi) / (2(d+1)) for pure psi
        psi = random_pure(d, Rng(d))
        marg = partial_trace(cloner(d).apply(psi), (d, d), keep="first")
        want = (identity(d).mat + (d + 2) * psi.mat) * (1.0 / (2 * (d + 1)))
        assert_allclose(marg.mat, want, atol=1e-12)

    @mark.parametrize("d", (2, 3, 4, 5))
    def test_cloner_broadcast_deficit(self, d):
        psi = random_pure(d, Rng(d + 9))
        marg = partial_trace(cloner(d).apply(psi), (d, d), keep="first")
        diff = marg.mat - psi.mat
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
        # the paper's form of B, ((d + 1) B+ - (d - 1) B-) / 2, on the dense Chois
        combo = (d + 1) / 2 * dense_choi(cloner(d)).mat - (d - 1) / 2 * dense_choi(antisym(d)).mat
        assert_allclose(combo, dense_choi(canonical_b(d)).mat, atol=1e-13)

    @mark.parametrize("d", (2, 3, 4))
    def test_choi_spectrum(self, d):
        vals, _ = eigh(dense_choi(canonical_b(d)))
        want = np.array(
            sorted([(d + 1) / 2] * d + [0.0] * (d**3 - 2 * d) + [-(d - 1) / 2] * d, reverse=True)
        )
        assert_allclose(vals, want, atol=1e-8)

    @mark.parametrize("d", (2, 3))
    def test_projector_identities(self, d):
        bp = choi_projector(d, +1)
        bm = choi_projector(d, -1)
        assert_allclose(bp.mat @ bp.mat, (d + 1) / 2 * bp.mat, atol=1e-12)
        assert_allclose(bm.mat @ bm.mat, (d - 1) / 2 * bm.mat, atol=1e-12)
        assert np.abs(bp.mat @ bm.mat).max() < 1e-12
        # rescaled projectors are exactly the cloner/antisymmetrizer Chois
        assert_allclose(2.0 / (d + 1) * bp.mat, dense_choi(cloner(d)).mat, atol=1e-12)
        assert_allclose(2.0 / (d - 1) * bm.mat, dense_choi(antisym(d)).mat, atol=1e-12)


class TestDecoherence:
    def test_kills_off_diagonals(self):
        rho = random_density(3, Rng(2))
        out = apply(decoherence(3), rho)
        assert_allclose(out.mat, np.diag(np.diag(rho.mat)), atol=1e-14)

    def test_idempotent_self_adjoint(self):
        m = decoherence(4)
        assert_allclose(compose(m, m).choi.mat, dense_choi(m).mat, atol=1e-13)
        assert_allclose(hs_adjoint(m).choi.mat, dense_choi(m).mat, atol=1e-13)

    def test_rotated_basis(self):
        assert np.array_equal(decoherence_in(identity(3)).choi.mat, dense_choi(decoherence(3)).mat)
        u = haar_unitary(3, Rng(5))
        m = decoherence_in(u)
        rho = random_density(3, Rng(6))
        conj = conjugate(dagger(u), rho)
        want = u.mat @ np.diag(np.diag(conj.mat)) @ u.mat.conj().T
        assert_allclose(apply(m, rho).mat, want, atol=1e-13)

    def test_rejects_nonunitary_basis(self):
        with raises(ValueError):
            decoherence_in(Operator([[1, 0], [0, 2]]))


class TestClassicalBcl:
    @mark.parametrize("d", (2, 3))
    def test_diagonal_copy(self, d):
        rho = random_density(d, Rng(d))
        out = apply(classical_bcl(d), rho)
        want = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            want[i * d + i, i * d + i] = rho.mat[i, i]
        assert_allclose(out.mat, want, atol=1e-14)

    def test_cptp(self):
        m = classical_bcl(3)
        assert exact_cp(m) and m.is_tp()


class TestCheckAxioms:
    def test_canonical_passes(self):
        rep = check_axioms(canonical_b(3))
        assert max(rep) == 0.0

    @mark.parametrize("lam", (0.3, 0.7))
    def test_family_fails_only_permutation(self, lam):
        rep = check_axioms(family_b_lambda(2, lam))
        assert (rep.broadcasting, rep.covariance, rep.classical) == (0.0, 0.0, 0.0)
        assert rep.permutation > 1e-2

    @mark.parametrize("d", (2, 3))
    def test_dense_map_raises(self, d):
        # only the covariant and pattern forms have an exact axiom path; the dense reference lives in the tests
        for m in (random_channel(d, d * d, Rng(d)), SuperMap(d, d * d, dense_choi(canonical_b(d)))):
            with raises(ValueError, match="not a dense Choi"):
                check_axioms(m)

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
        }
        for name, m in {**maps, "random": random_channel(d, d * d, Rng(7))}.items():
            exact = (check_axioms(m) if name in maps else dense_check_axioms(m)).broadcasting
            sampled = sampled_broadcasting(m, n_states=30, rng=Rng(20 + d))
            assert (exact < 1e-10 and sampled < 1e-10) or (exact > 1e-2 and sampled > 1e-2), (name, exact, sampled)


class TestCheckAxiomsCovariance:
    @mark.parametrize("d", (2, 3))
    def test_non_covariant_maps_flagged(self, d):
        assert check_axioms(classical_bcl(d)).covariance > 1e-2
        assert dense_check_axioms(random_channel(d, d * d, Rng(40 + d))).covariance > 1e-2

    @mark.parametrize("d", range(2, 7))
    def test_classical_broadcaster_covariance(self, d):
        # 1/2, 7/10, 4/5, 6/7, 25/28, correctly rounded; the dense reference is one ulp off at d = 5, 6
        rep = check_axioms(classical_bcl(d))
        assert rep.covariance == (d + 4) * (d - 1) / ((d + 1) * (d + 2))
        assert (rep.broadcasting, rep.permutation, rep.classical) == (1.0, 0.0, 0.0)
        assert dense_check_axioms(classical_bcl(d)).covariance == pytest.approx(rep.covariance, abs=1e-15)

    @mark.parametrize("d", (2, 3))
    def test_classical_matches_decohered_chain(self, d):
        # the Choi-diagonal reading equals the (D (x) D) . m . D chain against B_cl
        dec = decoherence(d)
        for m in (canonical_b(d), cloner(d), family_b_lambda(d, 0.4), random_channel(d, d * d, Rng(d))):
            chained = compose(compose(tensor(dec, dec), m), dec)
            want = absmax(chained.choi.mat - dense_choi(classical_bcl(d)).mat)
            exact = check_axioms(m) if m.coeffs is not None else dense_check_axioms(m)
            assert exact.classical == pytest.approx(want, abs=1e-14)


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
            (cloner(d), 2 / (d + 1) * choi_projector(d, +1).mat),
            (antisym(d), 2 / (d - 1) * choi_projector(d, -1).mat),
            (depolarizing_mp(d), np.eye(d**3) / d**2),
        )
        for m, ref in pairs:
            assert np.array_equal(dense_choi(m).mat, ref)
        assert np.abs(dense_choi(exact_mp_map(d)).mat - dense_mp_choi(d)).max() <= 1e-15

    @mark.parametrize("d", range(2, 31))
    def test_gram_closed_form_matches_table(self, d):
        # Tr[P_s^T P_t] = d^c(t s^-1), c the number of cycles, counted here; at d <= 6 also against the count of
        # shared nonzero entries of the dense table
        def cycles(p):
            seen, count = set(), 0
            for i in range(3):
                count += i not in seen
                while i not in seen:
                    seen.add(i)
                    i = p[i]
            return count

        gram = commutant_gram(d)
        assert gram == tuple(tuple(d ** cycles([t[s.index(i)] for i in range(3)]) for t in S3) for s in S3)
        if d <= 6:
            flat = commutant_table(d).reshape(6, -1).astype(np.int64)
            assert np.array_equal(gram, flat @ flat.T)
        assert np.linalg.matrix_rank(gram) == (5 if d == 2 else 6)

    @mark.parametrize("d", range(2, 7))
    def test_projection_matches_dense_basis(self, d):
        maps = [canonical_b(d), cloner(d), antisym(d), family_b_lambda(d, 0.3), exact_mp_map(d), depolarizing_mp(d)]
        chois = [dense_choi(m) for m in maps] + [dense_choi(classical_bcl(d)), random_hermitian(d**3, Rng(80 + d))]
        chois.append(random_channel(d, d * d, Rng(80 + d)).choi)
        for choi in chois:
            assert absmax(commutant_projection(choi, d).mat - dense_commutant_projection(choi, d).mat) <= 1e-13

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
            assert absmax(dense_choi(m).mat - commutant_projection(dense_choi(m), d).mat) < 1e-13
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

        ref = from_action(d, d * d, action)
        assert_allclose(dense_choi(family_b_lambda(d, lam)).mat, ref.choi.mat, atol=1e-14)


# nullity over the covariant span of each subset of the broadcasting (B), permutation (P) and classical (C) axioms
SUBSET_NULLITIES = {"": 6, "C": 1, "P": 4, "PC": 0, "B": 3, "BC": 1, "BP": 2, "BPC": 0}
QUBIT_SUBSET_NULLITIES = {"": 5, "C": 1, "P": 3, "PC": 0, "B": 2, "BC": 1, "BP": 1, "BPC": 0}


def axiom_subsets():
    """(name, switches) for each of the eight subsets of the three axiom groups."""
    for bc, perm, cl in itertools.product((True, False), repeat=3):
        name = "B" * bc + "P" * perm + "C" * cl
        yield name, dict(include_broadcasting=bc, include_permutation=perm, include_classical=cl)


class TestUniqueness:
    def test_qubit_certificate(self):
        cert = verify_uniqueness(2)
        assert cert.nullity == 0
        assert cert.candidate_residual == 0.0
        assert cert.rank == cert.unknowns == 5
        assert cert.nullity == table_column_uniqueness(2).nullity

    def test_exact_rank_matches_numerical_rank(self):
        # integer rows spanning a random lattice of known dimension, with repeats and rational dependencies
        rng = np.random.default_rng(0)
        for _ in range(200):
            basis = rng.integers(-3, 4, size=(rng.integers(1, 7), 6))
            rows = (rng.integers(-4, 5, size=(rng.integers(1, 12), len(basis))) @ basis).tolist()
            assert _exact_rank(rows) == np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert _exact_rank([]) == _exact_rank([[0] * 6]) == 0
        assert _exact_rank([[2, 4, 0, 0, 0, 0], [-1, -2, 0, 0, 0, 0], [0, 0, 3, 0, 0, 1]]) == 2

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
        [(2, 20, QUBIT_SUBSET_NULLITIES), (3, 4, SUBSET_NULLITIES)],
    )
    def test_matches_dense_reference(self, d, n_unitaries, nullities):
        # every axiom subset, against all d^6 Hermitian parameters with covariance sampled
        for name, switches in axiom_subsets():
            dense = dense_verify_uniqueness(d, n_unitaries, Rng(d), **switches)
            reduced = verify_uniqueness(d, **switches)
            assert dense.nullity == reduced.nullity == nullities[name], name
            assert reduced.candidate_residual < 1e-12 and dense.candidate_residual < 1e-8
        assert dense.unknowns == d**6  # 2**6 Hermitian parameters at d = 2

    @mark.parametrize("d", range(2, 7))
    def test_matches_dense_basis_certificate(self, d):
        # against the dense basis system and the dense residual columns of the six table elements
        for name, switches in axiom_subsets():
            got = verify_uniqueness(d, **switches)
            for reference in (dense_basis_uniqueness, table_column_uniqueness):
                want = reference(d, **switches)
                assert (got.nullity, got.rank, got.constraint_rows, got.unknowns) == (
                    want.nullity, want.rank, want.constraint_rows, want.unknowns
                ), name
                assert got.candidate_residual <= 1e-14 and want.candidate_residual < 1e-12

    @mark.parametrize("d", range(2, 7))
    def test_axiom_subset_nullities(self, d):
        want = SUBSET_NULLITIES if d > 2 else QUBIT_SUBSET_NULLITIES
        for name, switches in axiom_subsets():
            got = verify_uniqueness(d, **switches)
            assert got.nullity == got.unknowns - got.rank == want[name], name
            assert got.candidate_residual == 0.0, name


class TestMemory:
    @mark.parametrize(
        "run", [lambda: check_axioms(canonical_b(6)), lambda: verify_uniqueness(6)], ids=["axioms", "uniqueness"]
    )
    def test_peak_stays_below_dense_basis(self, run):
        # a dense (6, 216, 216) complex basis is 4.5 MB, and building one took three arrays of that size
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
