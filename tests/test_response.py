import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epsrs import (
    Contour,
    SpectralCluster,
    ToyModelParams,
    cluster_spectrum,
    default_contour,
    eig,
    eigenvalues,
    frobenius_norm,
    greens_function,
    passive_bound_check,
    projector_of_state,
    spectral_decomposition,
    splitting_bound,
    surface_scan,
    toy_h0,
    toy_h1,
    toy_xi2,
    toy_xi3,
    xi_residue,
    xi_special,
)
from epsrs import response
from epsrs.linalg import schur
from epsrs.exceptions import (
    AmbiguousOrderError,
    ContourError,
    NotAnEpError,
    NumericalFailureError,
)

from helpers import contour_decomposition, dense_jordan, jordan_conjugated, random_unitary

TOY = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)


def toy_clusters(p=TOY, **kwargs):
    return cluster_spectrum(toy_h0(p), **kwargs)


class TestClusterSpectrum:
    def test_distinct_diagonal(self):
        clusters = cluster_spectrum(np.diag([1.0, 2.0, 3.0]))
        assert [c.eigenvalue.real for c in clusters] == [1.0, 2.0, 3.0]
        assert all(c.order == 1 and c.algebraic_multiplicity == 1
                   for c in clusters)

    def test_toy_ep2_plus_isolated(self):
        clusters = toy_clusters()
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == \
            [(2, 2), (1, 1)]
        assert abs(clusters[0].eigenvalue) <= 1e-12
        assert abs(clusters[1].eigenvalue - 2e-3) <= 1e-12

    def test_toy_ep3_at_zero_detuning(self):
        clusters = toy_clusters(ToyModelParams(e_a=0.5, e_b=0.5, a=-1.0, b=2.0))
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == [(3, 3)]

    def test_degenerate_diagonalizable(self):
        clusters = cluster_spectrum(np.diag([1.0, 1.0, 5.0]))
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == \
            [(2, 1), (1, 1)]

    def test_two_jordan_blocks_same_eigenvalue(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 3] = 1.0
        clusters = cluster_spectrum(a)
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == [(4, 2)]

    def test_ambiguous_separable_pair(self):
        # two eigenvalues inside the clustering tolerance but rank-separable
        with pytest.raises(AmbiguousOrderError) as info:
            cluster_spectrum(np.diag([0.0, 1e-10]).astype(complex))
        assert info.value.cluster_index == 0

    def test_ambiguous_rank_gap(self):
        # singular values 2.5e-8 and ~4e-9 straddle the 1e-8 threshold by
        # less than a decade
        a = np.diag([0.0, 0.0, 4e-9, 1.0]).astype(complex)
        a[0, 1] = 2.5e-8
        with pytest.raises(AmbiguousOrderError):
            cluster_spectrum(a)
        clusters = cluster_spectrum(a, declared_orders={0: 2})
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == \
            [(3, 2), (1, 1)]

    def test_declared_order_validation(self):
        with pytest.raises(ValueError):
            toy_clusters(declared_orders={0: 3})
        with pytest.raises(ValueError, match="cluster 7.* 2 clusters"):
            toy_clusters(declared_orders={7: 2})

    def test_tolerance_override_merges(self):
        clusters = cluster_spectrum(np.diag([0.0, 1e-3]).astype(complex),
                                    tolerance=1e-2, declared_orders={0: 1})
        assert [(c.algebraic_multiplicity, c.order) for c in clusters] == [(2, 1)]


class TestSpectralClusterRecord:
    def test_clusters_share_one_read_only_spectrum(self):
        a, _ = dense_jordan(8, 2, np.random.default_rng(4))
        clusters = cluster_spectrum(a)
        spectrum = clusters[0].spectrum
        assert all(c.spectrum is spectrum for c in clusters)
        assert_allclose(spectrum, eigenvalues(a), rtol=0, atol=0)
        assert not spectrum.flags.writeable
        members = sorted(i for c in clusters for i in c.member_indices)
        assert members == list(range(8))
        for c in clusters:
            assert_allclose(c.foreign_eigenvalues(),
                            np.delete(spectrum, list(c.member_indices)), rtol=0)

    @pytest.mark.parametrize("members", [(0, 3), (-1, 0), (1, 1)])
    def test_member_indices_must_fit_and_differ(self, members):
        with pytest.raises(ValueError, match="must be distinct and in"):
            SpectralCluster(0.0, 2, 2, members, np.zeros(3, dtype=complex))

    def test_spectrum_takes_no_part_in_equality(self):
        one = SpectralCluster(0.5, 1, 1, (0,), np.array([0.5, 1.0]))
        other = SpectralCluster(0.5, 1, 1, (0,), np.array([0.5, 7.0]))
        assert one == other and hash(one) == hash(other)
        assert "spectrum" not in repr(one)

    def test_xi_special_cluster_carries_its_eigenvalue(self):
        lam = 0.3 - 0.7j
        report = xi_special(np.array([[lam, 2.0], [0.0, lam]]), lam, 2)
        assert_allclose(report.cluster.spectrum, [lam, lam], rtol=0)


class TestOneEigensolve:
    @pytest.fixture()
    def eigvals_calls(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape)
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        return calls

    def test_residue_path(self, eigvals_calls):
        h0 = toy_h0(TOY)
        cluster = cluster_spectrum(h0)[0]
        report = xi_residue(h0, cluster, default_contour(h0, cluster))
        assert report.converged
        assert eigvals_calls == [(3, 3)]

    def test_surface_scan_per_sample(self, eigvals_calls):
        samples = [1e-3, 2e-3, 4e-3]
        table = surface_scan(
            lambda d: toy_h0(ToyModelParams(e_a=0.0, e_b=d, a=-1.0, b=-1.0)),
            samples, order=2)
        assert table.column("valid") == [1.0] * 3
        assert len(eigvals_calls) == len(samples)


class TestContour:
    def test_validation(self):
        with pytest.raises(ValueError):
            Contour(0.0, -1.0)
        with pytest.raises(ValueError):
            Contour(0.0, 1.0, nodes=48)
        with pytest.raises(ValueError):
            Contour(0.0, 1.0, nodes=8)

    def test_default_radius_half_foreign_distance(self):
        clusters = toy_clusters()
        contour = default_contour(toy_h0(TOY), clusters[0])
        assert_allclose(contour.radius, 1e-3, rtol=1e-12)

    def test_default_radius_without_foreign(self):
        h0, lam, _ = jordan_conjugated(3, np.random.default_rng(31))
        cluster = SpectralCluster(lam, 3, 3, (0, 1, 2), eigenvalues(h0))
        contour = default_contour(h0, cluster)
        assert_allclose(contour.radius,
                        frobenius_norm(h0 - lam * np.eye(3)), rtol=1e-12)
        scalar = 2.5j * np.eye(2)
        contour2 = default_contour(
            scalar, SpectralCluster(2.5j, 2, 1, (0, 1), eigenvalues(scalar)))
        assert contour2.radius == 1.0


class TestXiSpecial:
    def test_jordan_block_coupling(self):
        lam, a = 0.3 - 0.7j, -2.5j
        report = xi_special(np.array([[lam, a], [0.0, lam]]), lam, 2)
        assert_allclose(report.strength, abs(a), rtol=1e-15)
        assert report.converged and report.quadrature_nodes_used == 0

    def test_toy_ep3_leading_coefficient(self):
        p = ToyModelParams(e_a=0.1j, e_b=0.1j, a=-1.0, b=2.0)
        report = xi_special(toy_h0(p), 0.1j, 3)
        expected_w = np.zeros((3, 3), dtype=complex)
        expected_w[0, 2] = p.a * p.b
        assert_allclose(report.w_operator, expected_w, atol=1e-14)
        assert_allclose(report.strength, abs(p.a) * abs(p.b), rtol=1e-14)

    def test_not_nilpotent(self):
        with pytest.raises(NotAnEpError):
            xi_special(np.diag([1.0, 2.0, 3.0]), 1.0, 3)

    def test_vanishing_leading_power(self):
        with pytest.raises(NotAnEpError):
            xi_special(0.5 * np.eye(3), 0.5, 3)

    def test_requires_square_n(self):
        with pytest.raises(ValueError):
            xi_special(toy_h0(TOY), 0.0, 2)

    def test_scalar_case(self):
        report = xi_special(np.array([[1.5j]]), 1.5j, 1)
        assert report.strength == 1.0


class TestXiResidue:
    def test_toy_matches_closed_form_tiny_radius(self):
        ep2 = toy_clusters()[0]
        report = xi_residue(toy_h0(TOY), ep2, Contour(ep2.eigenvalue, 1e-11))
        assert report.converged
        assert abs(report.strength - toy_xi2(TOY)) <= 1e-12 * toy_xi2(TOY)
        assert report.rank1_residual <= 1e-10

    def test_toy_matches_closed_form_default_contour(self):
        ep2 = toy_clusters()[0]
        report = xi_residue(toy_h0(TOY), ep2)
        assert abs(report.strength - toy_xi2(TOY)) <= 1e-12 * toy_xi2(TOY)

    def test_ep3_value(self):
        p = ToyModelParams(e_a=0.0, e_b=0.0, a=-1.0, b=-1.0)
        clusters = toy_clusters(p)
        report = xi_residue(toy_h0(p), clusters[0])
        assert abs(report.strength - 1.0) <= 1e-12

    def test_degenerate_diagonalizable_projector(self):
        # order-1 multiplicity-2 cluster: W is the (orthogonal) projector
        clusters = cluster_spectrum(np.diag([1.0, 1.0, 5.0]))
        report = xi_residue(np.diag([1.0, 1.0, 5.0]), clusters[0])
        assert report.converged
        assert_allclose(report.strength, 1.0, rtol=1e-12)
        assert_allclose(report.w_operator, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_cluster_of_another_size_rejected(self):
        ep2 = toy_clusters()[0]
        h0 = np.zeros((4, 4), dtype=complex)
        h0[:3, :3] = toy_h0(TOY)
        h0[3, 3] = 1.0
        with pytest.raises(ValueError, match="dimension 3, not 4"):
            xi_residue(h0, ep2)

    @pytest.mark.parametrize("shift", [0.01, 0.01j, 0.5, -0.5, 0.5j, -0.5j,
                                       0.35 + 0.35j])
    @pytest.mark.parametrize("detuning, closed_form", [(2e-3, toy_xi2),
                                                       (0.0, toy_xi3)])
    def test_off_centre_contour(self, detuning, closed_form, shift):
        # the weight is (E - lambda)^(n-1) wherever the centre sits; centres
        # up to half the radius from the EP give the closed form
        p = ToyModelParams(e_a=0.0, e_b=detuning, a=-1.0, b=-1.0)
        h0 = toy_h0(p)
        ep = max(cluster_spectrum(h0), key=lambda c: c.order)
        radius = 0.9 * default_contour(h0, ep).radius
        report = xi_residue(h0, ep, Contour(ep.eigenvalue + shift * radius, radius))
        assert report.converged
        assert_allclose(report.strength, closed_form(p), rtol=1e-10)

    def test_foreign_eigenvalue_inside_contour(self):
        ep2 = toy_clusters()[0]
        with pytest.raises(ContourError):
            xi_residue(toy_h0(TOY), ep2, Contour(ep2.eigenvalue, 4e-3))

    def test_contour_centered_off_cluster(self):
        ep2 = toy_clusters()[0]
        with pytest.raises(ContourError):
            xi_residue(toy_h0(TOY), ep2, Contour(2e-3, 1e-6))

    def test_node_cap_non_convergence(self):
        # radius almost touching the foreign pole: trapezoid convergence
        # ratio ~ (1 - 1e-4) never reaches 1e-13 by 4096 nodes
        ep2 = toy_clusters()[0]
        report = xi_residue(toy_h0(TOY), ep2,
                            Contour(ep2.eigenvalue, 2e-3 * (1 - 1e-4)))
        assert not report.converged
        assert report.quadrature_nodes_used == 4096

    def test_report_json_schema(self):
        report = xi_residue(toy_h0(TOY), toy_clusters()[0])
        obj = report.to_json()
        assert set(obj) == {"eigenvalue", "order", "xi", "rank1_residual",
                            "nodes", "converged", "W"}
        assert obj["order"] == 2
        assert obj["W"]["rows"] == 3


class TestSpectralDecomposition:
    def test_diagonal_projectors(self):
        deco = spectral_decomposition(np.diag([1.0, 2.0]))
        assert_allclose(deco.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert_allclose(deco.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)
        assert deco.nilpotent_powers == [[], []]

    def test_toy_nilpotent_matches_closed_form(self):
        h0 = toy_h0(TOY)
        deco = spectral_decomposition(h0)
        ep_index = [i for i, c in enumerate(deco.clusters) if c.order == 2][0]
        n1 = deco.nilpotent_powers[ep_index][0]
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = TOY.a * TOY.b / (TOY.e_a - TOY.e_b)
        expected[1, 2] = TOY.a
        assert_allclose(n1, expected, atol=1e-10)

    def test_projector_identities(self):
        h0 = toy_h0(TOY)
        deco = spectral_decomposition(h0)
        total = sum(deco.projectors)
        assert frobenius_norm(total - np.eye(3)) <= 1e-10
        for i, pi in enumerate(deco.projectors):
            for j, pj in enumerate(deco.projectors):
                target = pi if i == j else np.zeros((3, 3))
                assert frobenius_norm(pi @ pj - target) <= 1e-10

    def test_nilpotent_commutes_with_projector(self):
        h0 = toy_h0(TOY)
        deco = spectral_decomposition(h0)
        for cluster, proj, nils in zip(deco.clusters, deco.projectors,
                                       deco.nilpotent_powers):
            if not nils:
                continue
            n1 = nils[0]
            assert frobenius_norm(proj @ n1 - n1) <= 1e-10 * frobenius_norm(n1)
            assert frobenius_norm(n1 @ proj - n1) <= 1e-10 * frobenius_norm(n1)
            power = np.linalg.matrix_power(n1, cluster.order)
            assert frobenius_norm(power) <= \
                1e-10 * frobenius_norm(n1) ** cluster.order

    def test_reconstruction_matches_inversion(self):
        rng = np.random.default_rng(32)
        h0 = toy_h0(TOY)
        deco = spectral_decomposition(h0)
        for _ in range(20):
            en = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if np.min(np.abs(eigenvalues(h0) - en)) < 0.05:
                continue
            direct = greens_function(h0, en)
            rebuilt = deco.reconstruct_greens(en)
            assert frobenius_norm(rebuilt - direct) <= \
                1e-10 * frobenius_norm(direct)


DENSE_CASES = [(m, order, seed) for m in (6, 16) for order in (1, 2, 3)
               for seed in (0, 1)]


def dense_clusters(m, order, seed):
    a, _ = dense_jordan(m, order, np.random.default_rng(7000 + 10 * m + seed))
    # EP members split by ~eps^(1/order); the foreign eigenvalues sit >= 0.3
    # apart, so 1e-3 groups exactly the Jordan block
    clusters = cluster_spectrum(a, tolerance=1e-3)
    multi = [c for c in clusters if c.algebraic_multiplicity > 1]
    assert [(c.algebraic_multiplicity, c.order) for c in multi] == \
        ([(order, order)] if order > 1 else [])
    return a, clusters


def assert_matches_contour_oracle(a, clusters):
    deco = spectral_decomposition(a, clusters)
    projectors, nilpotents = contour_decomposition(a, clusters)
    assert [len(n) for n in deco.nilpotent_powers] == [len(n) for n in nilpotents]
    for got, want in zip(deco.projectors + sum(deco.nilpotent_powers, []),
                         projectors + sum(nilpotents, [])):
        assert frobenius_norm(got - want) <= 1e-10 * frobenius_norm(want)


class TestSchurDecomposition:
    """spectral_decomposition on non-triangular Q T Q^dagger inputs, against
    the contour-moment oracle and the rank-1 projectors of ``eig``."""

    @pytest.mark.parametrize("m,order,seed", DENSE_CASES)
    def test_matches_contour_oracle(self, m, order, seed):
        assert_matches_contour_oracle(*dense_clusters(m, order, seed))

    @pytest.mark.parametrize("m,order", [(6, 2), (16, 3)])
    def test_simple_projectors_match_eig(self, m, order):
        a, clusters = dense_clusters(m, order, 0)
        deco = spectral_decomposition(a, clusters)
        pairs = eig(a)
        for cluster, proj in zip(deco.clusters, deco.projectors):
            if cluster.algebraic_multiplicity > 1:
                continue
            pair = min(pairs, key=lambda p: abs(p.value - cluster.eigenvalue))
            want = projector_of_state(pair)
            assert frobenius_norm(proj - want) <= 1e-10 * frobenius_norm(want)

    @pytest.mark.parametrize("m,order", [(6, 3), (16, 2)])
    def test_projector_identities(self, m, order):
        a, clusters = dense_clusters(m, order, 1)
        deco = spectral_decomposition(a, clusters)
        scale = max(frobenius_norm(p) for p in deco.projectors)
        assert frobenius_norm(sum(deco.projectors) - np.eye(m)) <= 1e-10 * scale
        for i, pi in enumerate(deco.projectors):
            for j, pj in enumerate(deco.projectors):
                target = pi if i == j else np.zeros((m, m))
                assert frobenius_norm(pi @ pj - target) <= 1e-10 * scale**2

    def test_schur_order_differs_from_eigenvalue_order(self):
        # diagonal scaling changes what balancing does, so the balanced
        # eigvals order (which member_indices refer to) and the Schur order
        # part ways; clusters must still find their own Schur entries
        a, _ = dense_jordan(6, 2, np.random.default_rng(1))
        scale = np.logspace(0, 2, 6)
        a = scale[:, None] * a / scale
        t, _ = schur(a)
        w = eigenvalues(a)
        nearest = np.argmin(np.abs(np.diag(t)[:, None] - w), axis=1)
        assert np.any(nearest != np.arange(6))
        clusters = cluster_spectrum(a, tolerance=1e-3)
        assert [c.order for c in clusters if c.order > 1] == [2]
        assert_matches_contour_oracle(a, clusters)

    def test_runs_no_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("contour quadrature ran")

        monkeypatch.setattr(response, "_ring_samples", no_quadrature)
        a, clusters = dense_clusters(16, 3, 0)
        spectral_decomposition(a, clusters)
        spectral_decomposition(toy_h0(TOY))

    def test_clusters_of_another_matrix_rejected(self):
        a, _ = dense_clusters(6, 2, 0)
        _, other = dense_clusters(6, 2, 1)
        with pytest.raises(NumericalFailureError, match="does not belong"):
            spectral_decomposition(a, other)
        _, bigger = dense_clusters(16, 2, 0)
        with pytest.raises(NumericalFailureError, match="do not fit"):
            spectral_decomposition(a, bigger)

    def test_multiplicity_mismatch_rejected(self):
        # the EP pair declared as two singletons: each claims one raw index,
        # but the order-2 block cannot be split by value
        a = np.diag([0.0, 0.0, 1.0]).astype(complex)
        a[0, 1] = 1.0
        w = eigenvalues(a)
        ep = [i for i in range(3) if abs(w[i]) < 0.5]
        halves = [SpectralCluster(complex(w[i]), 1, 1, (i,), w) for i in ep]
        with pytest.raises(NumericalFailureError,
                           match="2 Schur entries for multiplicity 1"):
            spectral_decomposition(a, halves)

    def test_subset_of_clusters(self):
        a, clusters = dense_clusters(6, 2, 0)
        full = spectral_decomposition(a, clusters)
        part = spectral_decomposition(a, clusters[1:3])
        for got, want in zip(part.projectors, full.projectors[1:3]):
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


class TestSurfaceScan:
    def test_toy_divergence_scan(self):
        def gen(d):
            return toy_h0(ToyModelParams(e_a=0.0, e_b=d, a=-1.0, b=-1.0))

        samples = np.logspace(-4, -2, 9)
        table = surface_scan(gen, samples, order=2)
        assert table.columns[0] == "parameter"
        for row in table.rows:
            d, xi, lre, lim, fdist, comp, valid = row
            assert valid == 1.0
            assert abs(fdist - d) <= 1e-12
            # compensated column approaches |A||B| = 1 quadratically
            assert abs(comp - 1.0) <= 1e-4 * (d / 1e-2) ** 2 + 1e-12

    def test_constant_hamiltonian(self):
        h0 = toy_h0(TOY)
        table = surface_scan(lambda p: h0, [0.1, 0.2, 0.3], order=2)
        xis = table.column("xi")
        assert xis[0] == xis[1] == xis[2]

    def test_failed_sample_flagged(self):
        def gen(p):
            if p > 0.15:
                return np.diag([1.0, 2.0, 3.0])  # no order-2 cluster
            return toy_h0(TOY)

        table = surface_scan(gen, [0.1, 0.2], order=2)
        assert table.column("valid") == [1.0, 0.0]
        assert math.isnan(table.column("xi")[1])

    def test_rows_sorted_by_parameter(self):
        h0 = toy_h0(TOY)
        table = surface_scan(lambda p: h0, [0.3, 0.1, 0.2], order=2)
        assert table.column("parameter") == [0.1, 0.2, 0.3]


class TestBounds:
    def test_splitting_bound_values(self):
        assert splitting_bound(500.001, 2, 0.0, 1.0) == 0.0
        got = splitting_bound(500.001, 2, 1e-8, 1.0)
        assert got == math.sqrt(1e-8 * 500.001)
        assert abs(got - 2.2361e-3) <= 1e-6
        got3 = splitting_bound(1.0, 3, 1e-8, 1.0)
        assert abs(got3 - 2.154e-3) <= 1e-5

    def test_splitting_bound_validation(self):
        with pytest.raises(ValueError):
            splitting_bound(-1.0, 2, 1e-8, 1.0)
        with pytest.raises(ValueError):
            splitting_bound(1.0, 0, 1e-8, 1.0)

    def test_passive_bound_violated_for_embedded_ep(self):
        # m > n: real-eigenvalue EP2 has xi > 0 = bound
        report = xi_residue(toy_h0(TOY), toy_clusters()[0])
        check = passive_bound_check(report)
        assert check.bound == 0.0
        assert not check.satisfied

    def test_passive_bound_order_one(self):
        report = xi_residue(toy_h0(TOY), toy_clusters()[1])
        check = passive_bound_check(report)
        assert check.bound == 1.0

    def test_passive_bound_jordan_block(self):
        for a, expected in [(1.5, True), (3.0, False)]:
            h0 = np.array([[-1.0j, a], [0.0, -1.0j]])
            report = xi_special(h0, -1.0j, 2)
            check = passive_bound_check(report)
            assert_allclose(check.bound, 2.0, rtol=1e-15)
            assert check.satisfied is expected

    def test_bound_validity_vs_eig(self):
        # perturbed eigenvalue displacement obeys the n-th root bound
        h1 = toy_h1()
        for eps in np.logspace(-12, -4, 5):
            w = eigenvalues(toy_h0(TOY) + eps * h1)
            splitting = float(np.min(np.abs(w)))
            if splitting < TOY.detuning():
                assert splitting**2 <= eps * toy_xi2(TOY) * (1 + 1e-9)
            p0 = ToyModelParams(e_a=0.0, e_b=0.0, a=-1.0, b=-1.0)
            w0 = eigenvalues(toy_h0(p0) + eps * h1)
            splitting0 = float(np.min(np.abs(w0)))
            assert splitting0**3 <= eps * toy_xi3(p0) * (1 + 1e-9)


class TestResponseInvariants:
    def test_special_equals_residue(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            h0, lam, _ = jordan_conjugated(n, rng)
            special = xi_special(h0, lam, n)
            cluster = cluster_spectrum(h0, tolerance=0.05)[0]
            assert cluster.order == n
            residue = xi_residue(h0, cluster)
            assert abs(residue.strength - special.strength) <= \
                1e-11 * special.strength

    def test_contour_independence(self):
        p = ToyModelParams(e_a=0.0, e_b=0.5, a=-1.0, b=-1.0)
        h0 = toy_h0(p)
        ep2 = cluster_spectrum(h0)[0]
        base = xi_residue(h0, ep2).strength
        for factor in (0.5, 2.0):
            contour = Contour(ep2.eigenvalue, 0.25 * factor * 0.9)
            assert abs(xi_residue(h0, ep2, contour).strength - base) <= \
                1e-12 * base
        more_nodes = xi_residue(h0, ep2, Contour(ep2.eigenvalue, 0.25, nodes=256))
        assert abs(more_nodes.strength - base) <= 1e-12 * base

    def test_unitary_invariance_of_xi(self):
        rng = np.random.default_rng(34)
        p = ToyModelParams(e_a=0.0, e_b=0.5, a=-1.0, b=-1.0)
        h0 = toy_h0(p)
        base = xi_residue(h0, cluster_spectrum(h0)[0]).strength
        for _ in range(5):
            u = random_unitary(3, rng)
            conj = u.conj().T @ h0 @ u
            clusters = cluster_spectrum(conj, tolerance=1e-5)
            ep2 = [c for c in clusters if c.order == 2][0]
            assert abs(xi_residue(conj, ep2).strength - base) <= 1e-11 * base

    def test_w_operator_rank_one(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h0, lam, _ = jordan_conjugated(n, rng)
            report = xi_residue(h0, cluster_spectrum(h0, tolerance=0.05)[0])
            s = np.linalg.svd(report.w_operator, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_strength_norm_consistency(self):
        # for rank-1 W the spectral and Frobenius norms agree
        report = xi_residue(toy_h0(TOY), toy_clusters()[0])
        from epsrs import spectral_norm

        assert abs(report.strength - spectral_norm(report.w_operator)) <= \
            1e-12 * report.strength
        assert abs(report.strength - frobenius_norm(report.w_operator)) <= \
            1e-12 * report.strength
