import numpy as np
import pytest
from numpy.testing import assert_allclose

from epsrs import (
    ChiralityModelParams,
    ToyModelParams,
    chirality_eigenvalues,
    chirality_h0,
    chirality_xi2,
    chirality_xi4,
    cluster_spectrum,
    eigenvalues,
    spectral_norm,
    toy_h0,
    toy_h1,
    toy_xi2,
    toy_xi3,
    xi_residue,
    xi_special,
)


def draw_coupling(rng, lo=0.1, hi=10.0):
    return complex(np.exp(rng.uniform(np.log(lo), np.log(hi)))
                   * np.exp(1j * rng.uniform(0, 2 * np.pi)))


class TestToyModel:
    def test_h0_exact_matrix(self):
        h0 = toy_h0(ToyModelParams(e_a=0.0, e_b=0.0, a=-1.0, b=-1.0))
        expected = np.array([[0, -1, 0], [0, 0, -1], [0, 0, 0]], dtype=complex)
        assert np.array_equal(h0, expected)

    def test_eigenvalue_multiplicities(self):
        p = ToyModelParams(e_a=1.0 + 1.0j, e_b=-2.0, a=0.5, b=0.5j)
        w = np.sort_complex(eigenvalues(toy_h0(p)))
        assert_allclose(w, np.sort_complex(np.array([-2.0, 1 + 1j, 1 + 1j])),
                        atol=1e-13)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ToyModelParams(e_a=0.0, e_b=1.0, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            ToyModelParams(e_a=0.0, e_b=1.0, a=1.0, b=0.0)
        p = ToyModelParams(e_a=0.0, e_b=1.0, a=1.0, b=0.0, allow_degenerate_b=True)
        assert p.b == 0

    def test_from_dict(self):
        p = ToyModelParams.from_dict(
            {"e_a": 0, "e_b": [0.5, -0.25], "a": -1, "b": [0, 1]})
        assert p.e_b == 0.5 - 0.25j and p.b == 1j

    @pytest.mark.parametrize("cls, obj", [
        (ToyModelParams, {"e_a": 0, "e_b": 1, "a": -1, "b": -1, "e_c": 2}),
        (ToyModelParams, {"e_a": 0, "e_b": 1, "a": -1, "bb": -1}),
        (ChiralityModelParams, {"omega_is": 1, "omega_ch": 1, "v": 1, "a": 1,
                                "b": 0, "w": 1}),
    ])
    def test_from_dict_rejects_unknown_keys(self, cls, obj):
        with pytest.raises(ValueError, match="has no parameter"):
            cls.from_dict(obj)

    @pytest.mark.parametrize("value", [None, {}, [1], [1, 2, 3], [None, 0], "x"])
    def test_from_dict_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="number or \\[re, im\\]"):
            ToyModelParams.from_dict({"e_a": value, "e_b": 1, "a": -1, "b": -1})


class TestToyPerturbation:
    def test_unit_spectral_norm(self):
        assert abs(spectral_norm(toy_h1()) - 1.0) <= 1e-15

    def test_entries_sum(self):
        assert_allclose(toy_h1().sum(), np.sqrt(2.0), rtol=1e-15)

    def test_generic_at_both_eps(self):
        # nonzero coupling ||W H1 R|| at the EP2 and the EP3
        from epsrs import eig

        p2 = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)
        h2 = toy_h0(p2)
        ep2 = [c for c in cluster_spectrum(h2) if c.order == 2][0]
        w2 = xi_residue(h2, ep2).w_operator
        r2 = min(eig(h2), key=lambda q: abs(q.value - p2.e_a)).right
        assert np.linalg.norm(w2 @ toy_h1() @ r2) > 0.1

        h3 = toy_h0(ToyModelParams(e_a=0.0, e_b=0.0, a=-1.0, b=-1.0))
        w3 = xi_special(h3, 0.0, 3).w_operator
        r3 = np.array([1.0, 0.0, 0.0])  # the EP3 eigenvector of the chain
        assert np.linalg.norm(w3 @ toy_h1() @ r3) > 0.1

    def test_generic_for_random_draws(self):
        rng = np.random.default_rng(15)
        from epsrs import eig

        for _ in range(25):
            p = ToyModelParams(e_a=0.0, e_b=draw_coupling(rng),
                               a=draw_coupling(rng), b=draw_coupling(rng))
            h0 = toy_h0(p)
            ep2 = [c for c in cluster_spectrum(h0)
                   if c.algebraic_multiplicity == 2][0]
            w = xi_residue(h0, ep2).w_operator
            r = min(eig(h0), key=lambda q: abs(q.value - p.e_a)).right
            assert np.linalg.norm(w @ toy_h1() @ r) > 1e-12


class TestToyXi2:
    def test_figure_value(self):
        p = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)
        assert_allclose(toy_xi2(p), 500.000999999, atol=1e-8)
        assert toy_xi2(p) == abs(p.a) * np.sqrt(1 + abs(p.b) ** 2 / 4e-6)

    def test_large_detuning_limit(self):
        p = ToyModelParams(e_a=0.0, e_b=1e9, a=3.0, b=-1.0)
        assert_allclose(toy_xi2(p), 3.0, rtol=1e-12)

    def test_small_detuning_law(self):
        # xi2 * detuning -> |A||B|
        for d in (1e-4, 1e-6, 1e-8):
            p = ToyModelParams(e_a=0.0, e_b=d, a=-1.0, b=-1.0)
            assert abs(toy_xi2(p) * d - 1.0) <= d**2

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            toy_xi2(ToyModelParams(e_a=0.5, e_b=0.5, a=1.0, b=1.0))


class TestToyXi3:
    def test_figure_value(self):
        assert toy_xi3(ToyModelParams(e_a=0.0, e_b=0.0, a=-1.0, b=-1.0)) == 1.0

    def test_degenerate_b(self):
        p = ToyModelParams(e_a=0.0, e_b=0.0, a=2.0, b=0.0, allow_degenerate_b=True)
        assert toy_xi3(p) == 2.0

    def test_moduli_product(self):
        assert_allclose(
            toy_xi3(ToyModelParams(e_a=1.0, e_b=1.0, a=2.0, b=3.0j)), 6.0,
            rtol=1e-15)

    def test_requires_zero_detuning(self):
        with pytest.raises(ValueError):
            toy_xi3(ToyModelParams(e_a=0.0, e_b=1.0, a=1.0, b=1.0))


class TestChiralityModel:
    def test_decoupled_diagonal(self):
        p = ChiralityModelParams(omega_is=1.0, omega_ch=2.0, v=0.0, a=0.0, b=0.0)
        assert np.array_equal(chirality_h0(p), np.diag([1.0, 2.0, 2.0, 1.0]))

    def test_closed_form_matches_eig(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = ChiralityModelParams(
                omega_is=draw_coupling(rng), omega_ch=draw_coupling(rng),
                v=draw_coupling(rng), a=draw_coupling(rng), b=draw_coupling(rng))
            got = np.sort_complex(eigenvalues(chirality_h0(p)))
            want = np.sort_complex(np.array(chirality_eigenvalues(p)))
            assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_b0_collapses_to_two_values(self):
        p = ChiralityModelParams(omega_is=1.0 + 0.1j, omega_ch=0.3, v=0.7,
                                 a=0.5j, b=0.0)
        evs = chirality_eigenvalues(p)
        assert abs(evs[0] - evs[2]) <= 1e-14 and abs(evs[1] - evs[3]) <= 1e-14
        assert abs(evs[0] - evs[1]) > 0.1

    def test_ep4_collapse(self):
        ois, och = 1.3 + 0.4j, 0.2 - 0.9j
        c = (ois - och) / 2
        p = ChiralityModelParams(omega_is=ois, omega_ch=och, v=1j * c,
                                 a=-0.7 + 0.3j, b=0.0)
        evs = chirality_eigenvalues(p)
        target = (ois + och) / 2
        assert all(abs(x - target) <= 1e-14 for x in evs)

    def test_degenerate_collapse_v0(self):
        p = ChiralityModelParams(omega_is=0.8j, omega_ch=0.8j, v=0.0, a=1.0, b=0.0)
        evs = chirality_eigenvalues(p)
        assert all(abs(x - 0.8j) <= 1e-14 for x in evs)


class TestChiralityXi:
    def _random_b0(self, rng):
        while True:
            p = ChiralityModelParams(
                omega_is=draw_coupling(rng), omega_ch=draw_coupling(rng),
                v=draw_coupling(rng), a=draw_coupling(rng), b=0.0)
            evs = chirality_eigenvalues(p)
            if abs(evs[0] - evs[1]) > 0.2 * max(abs(x) for x in evs):
                return p

    def test_xi2_matches_residue(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = self._random_b0(rng)
            h0 = chirality_h0(p)
            evs = chirality_eigenvalues(p)
            for cluster in cluster_spectrum(h0):
                assert cluster.order == 2
                branch = (+1 if abs(cluster.eigenvalue - evs[0])
                          < abs(cluster.eigenvalue - evs[1]) else -1)
                xi_exact = chirality_xi2(p, branch)
                report = xi_residue(h0, cluster)
                assert report.converged
                assert abs(report.strength - xi_exact) <= 1e-10 * xi_exact

    def test_xi4_matches_residue(self):
        ois, och = 0.9 - 0.3j, -0.4 + 0.6j
        c = (ois - och) / 2
        p = ChiralityModelParams(omega_is=ois, omega_ch=och, v=1j * c,
                                 a=1.7j, b=0.0)
        h0 = chirality_h0(p)
        xi_exact = chirality_xi4(p)
        clusters = cluster_spectrum(h0, 1e-3 * np.linalg.norm(h0, "fro"))
        assert len(clusters) == 1 and clusters[0].order == 4
        report = xi_residue(h0, clusters[0])
        assert report.converged
        assert abs(report.strength - xi_exact) <= 1e-10 * xi_exact

    def test_merging_law(self):
        # xi2 * gap^2 / xi4 -> 1 while moving toward the EP4
        rng = np.random.default_rng(13)
        for _ in range(10):
            ois = 1.0 + 0.2j
            och = ois - 2 * draw_coupling(rng, 0.5, 2.0)
            c = (ois - och) / 2
            s = 1e-3 * abs(c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = ChiralityModelParams(omega_is=ois, omega_ch=och,
                                     v=np.sqrt(s**2 - c**2),
                                     a=draw_coupling(rng), b=0.0)
            gap = abs(np.subtract(*chirality_eigenvalues(p)[:2]))
            p4 = ChiralityModelParams(omega_is=ois, omega_ch=och, v=1j * c,
                                      a=p.a, b=0.0)
            xi4 = chirality_xi4(p4)
            for branch in (+1, -1):
                assert abs(chirality_xi2(p, branch) * gap**2 / xi4 - 1.0) <= 5e-3

    def test_xi_domain_errors(self):
        p = ChiralityModelParams(omega_is=1.0, omega_ch=0.0, v=0.5, a=1.0, b=0.5)
        with pytest.raises(ValueError):
            chirality_xi2(p, +1)
        with pytest.raises(ValueError):
            chirality_xi2(
                ChiralityModelParams(omega_is=1.0, omega_ch=0.0, v=0.5, a=1.0,
                                     b=0.0), 2)
        ois, och = 1.0, 0.4
        c = (ois - och) / 2
        p4 = ChiralityModelParams(omega_is=ois, omega_ch=och, v=1j * c, a=1.0,
                                  b=0.0)
        with pytest.raises(ValueError):
            chirality_xi2(p4, +1)
        p2 = ChiralityModelParams(omega_is=1.0, omega_ch=0.0, v=0.5, a=1.0, b=0.0)
        with pytest.raises(ValueError):
            chirality_xi4(p2)


def test_toy_oracle_vs_pipeline_random_draws():
    rng = np.random.default_rng(14)
    for _ in range(100):
        while True:
            e_a, e_b = draw_coupling(rng), draw_coupling(rng)
            if abs(e_b - e_a) > 1e-3 * max(abs(e_a), abs(e_b)):
                break
        p = ToyModelParams(e_a=e_a, e_b=e_b, a=draw_coupling(rng),
                           b=draw_coupling(rng))
        h0 = toy_h0(p)
        ep2 = [c for c in cluster_spectrum(h0) if c.algebraic_multiplicity == 2][0]
        report = xi_residue(h0, ep2)
        assert report.converged
        assert abs(report.strength - toy_xi2(p)) <= 1e-10 * toy_xi2(p)
