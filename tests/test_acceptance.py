"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every criterion states its own tolerance and (where relevant)
runtime budget; the assertions here are the release gate, so the numbers
must not be loosened without a decision record.
"""

import json
import time

import numpy as np

from vbcast.broadcast import (
    antisym,
    canonical_b,
    check_axioms,
    cloner,
    family_b_lambda,
    verify_uniqueness,
)
from vbcast.cli import main
from vbcast.densemat import (
    Rng,
    random_density,
    random_hermitian,
)
from vbcast.diamond import diamond_bracket, diamond_sdp
from vbcast.hovm import depolarizing_mp, theorem3_weight, verify_theorem3
from vbcast.mcstats import MatrixWelford
from vbcast.qsample import estimate_with_trace
from vbcast.sot import star

from channel_scan import closest_channel_scan
from dense_covariant import choi_projector, moment_operator
from dense_maps import absmax, apply, dense, dense_choi, eigh, identity_map, kron, partial_trace
from dense_mp_sampling import update_batch
from dense_uniqueness import table_column_uniqueness
from random_fixtures import random_channel, random_pure
from sampled_postprocessing import check_postprocessing_equivalence


def _finish(num, title, ok, detail):
    print(f"[AC{num:02d}] {'PASS' if ok else 'FAIL'}  {title} ({detail})", flush=True)
    assert ok, f"acceptance criterion {num} failed: {title} ({detail})"


def test_criterion_01_broadcasting_marginals():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(2, 7):
        b = canonical_b(d)
        rng = Rng(100 + d)
        for _ in range(100):
            rho = random_density(d, rng)
            out = b.apply(rho)
            r1 = absmax(partial_trace(out, (d, d), keep="first").mat - rho.mat)
            r2 = absmax(partial_trace(out, (d, d), keep="second").mat - rho.mat)
            worst = max(worst, r1, r2)
    dt = time.monotonic() - t0
    _finish(
        1,
        "both marginals reproduce rho, 100 states per d=2..6",
        worst < 1e-10 and dt < 5.0,
        f"max residual {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_02_axioms_and_lambda_family():
    bad = []
    for d in range(2, 6):
        rep = check_axioms(canonical_b(d))
        if max(rep) != 0.0:
            bad.append(f"B d={d}: {max(rep):.2e}")
    for lam in (0.3, 0.7):
        rep = check_axioms(family_b_lambda(2, lam))
        if max(rep.broadcasting, rep.covariance, rep.classical) >= 1e-10:
            bad.append(f"B_lambda {lam}: spurious failure")
        if rep.permutation <= 1e-2:
            bad.append(f"B_lambda {lam}: permutation undetected")
    _finish(
        2,
        "four axioms hold for B (d=2..5); lambda family fails only permutation",
        not bad,
        "; ".join(bad) or "all residuals in gate",
    )


def test_criterion_03_uniqueness_certificate():
    t0 = time.monotonic()
    bad = []
    for d in range(2, 7):
        cert = verify_uniqueness(d)
        if cert.nullity != 0:
            bad.append(f"d={d} nullity {cert.nullity}")
        if cert.rank != cert.unknowns:
            bad.append(f"d={d} rank {cert.rank} of {cert.unknowns}")
        dense = table_column_uniqueness(d)
        if (cert.nullity, cert.unknowns) != (dense.nullity, dense.unknowns):
            bad.append(f"d={d} dense reference nullity {dense.nullity} of {dense.unknowns}")
        if cert.candidate_residual != 0.0:
            bad.append(f"d={d} residual {cert.candidate_residual:.2e}")
    dt = time.monotonic() - t0
    _finish(
        3,
        "uniqueness: exact nullity 0 and full rank, as the dense reference, candidate residual exactly 0 (d=2..6)",
        not bad and dt < 600.0,
        "; ".join(bad) or f"certified in {dt:.1f}s",
    )


def test_criterion_04_spectral_decomposition():
    bad = []
    for d in range(2, 7):
        b = canonical_b(d)
        combo = (d + 1) / 2 * cloner(d) - (d - 1) / 2 * antisym(d)
        res = absmax(dense_choi(b).mat - dense_choi(combo).mat)
        if res >= 1e-10:
            bad.append(f"d={d} decomposition {res:.2e}")
        vals, _ = eigh(dense_choi(b))
        want = np.array(
            sorted([(d + 1) / 2] * d + [0.0] * (d**3 - 2 * d) + [-(d - 1) / 2] * d, reverse=True)
        )
        eig_res = np.abs(vals - want).max()
        if eig_res >= 1e-8:
            bad.append(f"d={d} spectrum {eig_res:.2e}")
        bp, bm = choi_projector(d, +1), choi_projector(d, -1)
        for name, res2 in (
            ("B+B+", np.abs(bp.mat @ bp.mat - (d + 1) / 2 * bp.mat).max()),
            ("B-B-", np.abs(bm.mat @ bm.mat - (d - 1) / 2 * bm.mat).max()),
            ("B+B-", np.abs(bp.mat @ bm.mat).max()),
        ):
            if res2 >= 1e-10:
                bad.append(f"d={d} {name} {res2:.2e}")
    _finish(
        4,
        "C(B) affine split, eigenvalue multiset, projector identities (d=2..6)",
        not bad,
        "; ".join(bad) or "identities exact",
    )


def test_criterion_05_diamond_norms():
    bad = []
    times = []
    for d in (2, 3):
        t0 = time.monotonic()
        res = diamond_sdp(dense(canonical_b(d)))
        dt = time.monotonic() - t0
        times.append(dt)
        if not res.converged or abs(res.value - d) >= 1e-4 or dt >= 120.0:
            bad.append(f"|B| d={d}: {res.value:.6f} in {dt:.1f}s")
        dist = diamond_sdp(dense(canonical_b(d) - cloner(d)))
        if not dist.converged or abs(dist.value - (d - 1)) >= 1e-4:
            bad.append(f"|B-B+| d={d}: {dist.value:.6f}")
    d = 2
    cands = [cloner(d), antisym(d), depolarizing_mp(d)]
    rng = Rng(500)
    cands += [random_channel(d, d * d, rng) for _ in range(20)]
    ranking = closest_channel_scan(canonical_b(d), cands)
    if ranking[0][0] != 0:
        bad.append(f"scan winner {ranking[0][0]}")
    if ranking[1][1] - ranking[0][1] <= 1e-3:
        bad.append(f"scan margin {ranking[1][1] - ranking[0][1]:.2e}")
    for d in (2, 3):
        low = diamond_bracket(canonical_b(d))
        if abs(low.lower_bound - d) >= 1e-6 or low.iterations != 0:
            bad.append(f"bracket d={d}: {low.lower_bound:.8f} after {low.iterations} iterations")
    _finish(
        5,
        "SDP hits d and d-1; scan ranks cloner first; bracket lower bound is d with 0 iterations",
        not bad,
        "; ".join(bad) or f"SDP times {', '.join(f'{t:.1f}s' for t in times)}",
    )


def _haar_pure_batch(d, count, rng):
    g = rng.gen.standard_normal((count, d)) + 1j * rng.gen.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_criterion_06_theorem3_and_moments():
    t0 = time.monotonic()
    bad = []
    for d in range(2, 6):
        res = verify_theorem3(canonical_b(d))
        if res >= 1e-10:
            bad.append(f"theorem3 d={d}: {res:.2e}")
    if abs(theorem3_weight(2) - 0.75) > 1e-15 or abs(theorem3_weight(3) - 0.64) > 1e-15:
        bad.append("weights off")
    n = 100000
    for d in (2, 3):
        acc2 = MatrixWelford((d * d, d * d))
        acc3 = MatrixWelford((d**3, d**3))
        rng = Rng(600 + d)
        for start in range(0, n, 4096):
            count = min(4096, n - start)
            vecs = _haar_pure_batch(d, count, rng)
            pair = np.einsum("ci,cj->cij", vecs, vecs.conj())
            two = np.einsum("cij,ckl->cikjl", pair, pair).reshape(count, d * d, d * d)
            update_batch(acc2, two)
            update_batch(
                acc3,
                np.einsum("cij,ckl->cikjl", two.reshape(count, d * d, d * d), pair).reshape(
                    count, d**3, d**3
                ),
            )
        for order, acc in ((2, acc2), (3, acc3)):
            delta = acc.mean - moment_operator(d, order).mat
            se_re, se_im = acc.stderr()
            z = max(
                (np.abs(delta.real) / np.maximum(se_re, 1e-30)).max(),
                (np.abs(delta.imag) / np.maximum(se_im, 1e-30)).max(),
            )
            if z >= 5.0:
                bad.append(f"moment {order} d={d}: z={z:.2f}")
    dt = time.monotonic() - t0
    _finish(
        6,
        "verify_theorem3 residuals (d=2..5); Haar moments vs 1e5-sample MC (d=2,3)",
        not bad and dt < 60.0,
        "; ".join(bad) or f"done in {dt:.1f}s",
    )


def test_criterion_07_correlator_identity():
    worst = 0.0
    for d in range(2, 7):
        b = canonical_b(d)
        rng = Rng(700 + d)
        for _ in range(100):
            rho = random_hermitian(d, rng)
            o1 = random_hermitian(d, rng)
            o2 = random_hermitian(d, rng)
            lhs = np.real(np.trace(b.apply(rho).mat @ kron(o1, o2).mat))
            rhs = np.real(np.trace(rho.mat @ o1.mat @ o2.mat))
            worst = max(worst, abs(lhs - rhs))
    _finish(
        7,
        "Tr[B(rho)(O1 x O2)] = Re Tr[rho O1 O2], 100 triples per d=2..6",
        worst < 1e-10,
        f"max residual {worst:.2e}",
    )


def test_criterion_08_states_over_time():
    bad = []
    for d in (2, 3, 4):
        b = canonical_b(d)
        rng = Rng(800 + d)
        marg = 0.0
        for _ in range(50):
            e = random_channel(d, d, rng)
            rho = random_density(d, rng)
            out = star(e, rho, b)
            left, right = (partial_trace(out, (d, d), keep=keep) for keep in ("first", "second"))
            marg = max(
                marg,
                absmax(left.mat - rho.mat),
                absmax(right.mat - apply(e, rho).mat),
            )
        if marg >= 1e-10:
            bad.append(f"marginals d={d}: {marg:.2e}")
        rep = check_axioms(b)  # each axiom of E * rho = (id (x) E)(b(rho)) holds exactly when b has it
        if max(rep) != 0.0:
            bad.append(f"axioms d={d}: {max(rep):.2e}")
        post = check_postprocessing_equivalence(b, n_cases=50, rng=Rng(820 + d))
        if max(post.composition, post.heisenberg) >= 1e-10:
            bad.append(f"postprocessing d={d}")
        psi = random_pure(d, Rng(830 + d))
        vals, _ = eigh(star(identity_map(d), psi, b))
        neg = vals[vals < -1e-10]
        if abs(neg.sum() + (d - 1) / 2) >= 1e-10:
            bad.append(f"negativity d={d}: {neg.sum():.6f}")
    _finish(
        8,
        "SOT marginals/covariance/permutation/classical/postprocessing; negativity -(d-1)/2",
        not bad,
        "; ".join(bad) or "50 cases per d=2..4 in gate",
    )


def test_criterion_09_quasi_sampler():
    bad = []
    for d in (2, 3, 4, 5):
        # the overhead lambda_plus + lambda_minus of B's Jordan split, which the sampler derives
        rho, o = random_density(d, Rng(899)), random_hermitian(d, Rng(899, 1))
        if estimate_with_trace(canonical_b(d), rho, o, o, 100, Rng(899, 2))[2] != float(d):
            bad.append(f"overhead d={d}")
    d = 2
    target = canonical_b(d)
    rng = Rng(900)
    states = [random_density(d, rng) for _ in range(3)]
    obs = [(random_hermitian(d, rng), random_hermitian(d, rng)) for _ in range(3)]
    stream = 0
    for rho in states:
        for o1, o2 in obs:
            stream += 1
            est = estimate_with_trace(target, rho, o1, o2, 100000, Rng(901, stream=stream), n_checkpoints=1)[0]
            if abs(est.zscore()) >= 5.0:
                bad.append(f"grid z={est.zscore():.2f}")
    a = estimate_with_trace(target, states[0], obs[0][0], obs[0][1], 100000, Rng(902), n_checkpoints=1)[0]
    b = estimate_with_trace(target, states[0], obs[0][0], obs[0][1], 400000, Rng(903), n_checkpoints=1)[0]
    ratio = a.stderr / b.stderr
    if not (2.0 * 0.85 < ratio < 2.0 * 1.15):
        bad.append(f"scaling ratio {ratio:.3f}")
    _finish(
        9,
        "overhead exactly d; 3x3 grid unbiased at n=1e5; stderr ~ 1/sqrt(n)",
        not bad,
        "; ".join(bad) or f"stderr ratio n vs 4n: {ratio:.3f}",
    )


def test_criterion_10_deterministic_reports(tmp_path):
    docs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(["verify", "--dim", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    _finish(
        10,
        "verify --dim 3 --seed 7 twice: identical reports up to timestamp",
        docs[0] == docs[1],
        f"{len(docs[0])} bytes each",
    )
