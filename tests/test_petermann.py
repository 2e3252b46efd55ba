import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epsrs import (
    ToyModelParams,
    bauer_fike_bound,
    eig,
    eigenvalues,
    frobenius_norm,
    petermann_factor,
    petermann_records,
    projector_of_state,
    records_to_csv,
    spectral_norm,
    toy_h0,
    toy_h1,
    toy_xi2,
    xi_via_petermann,
)
from epsrs.exceptions import AtEpError, SeparationError

from helpers import ginibre, random_diagonalizable


class TestPetermannFactor:
    def test_hermitian_is_one(self):
        rng = np.random.default_rng(41)
        g = ginibre(4, rng)
        herm = (g + g.conj().T) / 2
        for pair in eig(herm):
            assert abs(petermann_factor(pair) - 1.0) <= 1e-10

    def test_two_by_two_closed_form(self):
        # [[0, 1], [0, g]]: hand computation gives K = 1 + 1/|g|^2 at
        # eigenvalue 0 (R = e1, L ~ (g, -1)*)
        g = 0.5 + 0.3j
        pairs = eig(np.array([[0.0, 1.0], [0.0, g]]))
        pair0 = min(pairs, key=lambda p: abs(p.value))
        assert_allclose(petermann_factor(pair0), 1.0 + 1.0 / abs(g) ** 2,
                        rtol=1e-12)

    def test_exact_ep_raises(self):
        pairs = eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(AtEpError):
            petermann_factor(pairs[0])

    def test_at_least_one(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_diagonalizable(int(rng.integers(2, 7)), rng)
            for pair in eig(a):
                assert petermann_factor(pair) >= 1.0 - 1e-12


class TestProjectorOfState:
    def test_diagonal_basis_projector(self):
        pairs = eig(np.diag([3.0, 7.0]))
        pair = min(pairs, key=lambda p: abs(p.value - 3.0))
        assert_allclose(projector_of_state(pair), np.diag([1.0, 0.0]),
                        atol=1e-14)

    def test_norms_equal_sqrt_k(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = random_diagonalizable(int(rng.integers(2, 7)), rng)
            for pair in eig(a):
                proj = projector_of_state(pair)
                root_k = np.sqrt(petermann_factor(pair))
                assert abs(spectral_norm(proj) - root_k) <= 1e-10 * root_k
                assert abs(frobenius_norm(proj) - root_k) <= 1e-10 * root_k

    def test_idempotent_and_maps_right_to_itself(self):
        rng = np.random.default_rng(44)
        a = random_diagonalizable(5, rng)
        for pair in eig(a):
            proj = projector_of_state(pair)
            assert frobenius_norm(proj @ proj - proj) <= 1e-12 * frobenius_norm(proj)
            assert np.linalg.norm(proj @ pair.right - pair.right) <= 1e-12

    def test_exact_ep_raises(self):
        pairs = eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(AtEpError):
            projector_of_state(pairs[0])


class TestBauerFike:
    def test_normal_case(self):
        assert bauer_fike_bound(1.0, 1e-6, 1.0) == 1e-6

    def test_zero_strength(self):
        assert bauer_fike_bound(4.0, 0.0, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bauer_fike_bound(-1.0, 1e-6, 1.0)

    def test_isolated_state_displacement_bounded(self):
        # toy isolated state e_b under eps*H1, displacement checked via eig
        p = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)
        h0 = toy_h0(p)
        pair = min(eig(h0), key=lambda q: abs(q.value - p.e_b))
        k = petermann_factor(pair)
        eps = 1e-10
        w = eigenvalues(h0 + eps * toy_h1())
        displaced = w[np.argmin(np.abs(w - p.e_b))]
        bound = bauer_fike_bound(k, eps, 1.0)
        assert abs(displaced - p.e_b) <= bound


class TestXiViaPetermann:
    def test_jordan_block_estimate(self):
        # exact xi = 1 from the nilpotent-power route
        est = xi_via_petermann(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 2,
                               eta=1e-16, seed=7)
        assert abs(est.xi - 1.0) <= 1e-4
        assert len(est.member_estimates) == 2
        assert est.eta == 1e-16 and est.seed == 7

    def test_eta_zero_propagates_at_ep(self):
        with pytest.raises(AtEpError):
            xi_via_petermann(toy_h0(ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0,
                                                   b=-1.0)),
                             0.0, 2, eta=0.0, seed=0)

    def test_validation(self):
        h0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            xi_via_petermann(h0, 0.0, 2, eta=-1e-21)
        with pytest.raises(ValueError):
            xi_via_petermann(h0, 0.0, 3)

    def test_separation_error(self):
        # splitting from the regularization dwarfs the detuning
        h0 = toy_h0(ToyModelParams(e_a=0.0, e_b=1e-9, a=-1.0, b=-1.0))
        with pytest.raises(SeparationError):
            xi_via_petermann(h0, 0.0, 2, eta=1e-12, seed=0)

    def test_worse_than_residue_on_toy_scan(self):
        from epsrs.experiments import toy_ep2_report, toy_params

        for i, d in enumerate(np.logspace(-3, 0, 7)):
            p = toy_params(d)
            xi_exact = toy_xi2(p)
            res_err = abs(toy_ep2_report(d, 1e-11).strength - xi_exact) / xi_exact
            pet = xi_via_petermann(toy_h0(p), 0.0, 2, eta=1e-21, seed=20 + i)
            pet_err = abs(pet.xi - xi_exact) / xi_exact
            assert res_err <= pet_err

    def test_deterministic_given_seed(self):
        h0 = toy_h0(ToyModelParams(e_a=0.0, e_b=0.1, a=-1.0, b=-1.0))
        a = xi_via_petermann(h0, 0.0, 2, eta=1e-21, seed=3)
        b = xi_via_petermann(h0, 0.0, 2, eta=1e-21, seed=3)
        assert a == b


class TestDivergenceTowardEp3:
    def test_compensated_limit_and_slope(self):
        # sqrt(K_b) ~ |A||B| / d^2 as the isolated state approaches the EP3
        # (slope -2; the compensated product tends to |A||B| = 1)
        detunings = np.logspace(-3, -1, 9)
        root_k = []
        for d in detunings:
            p = ToyModelParams(e_a=0.0, e_b=d, a=-1.0, b=-1.0)
            pair = min(eig(toy_h0(p)), key=lambda q: abs(q.value - p.e_b))
            root_k.append(np.sqrt(petermann_factor(pair)))
        root_k = np.array(root_k)
        slope = np.polyfit(np.log10(detunings), np.log10(root_k), 1)[0]
        assert abs(slope + 2.0) <= 0.05
        assert abs(root_k[0] * detunings[0] ** 2 - 1.0) <= 1e-3

    def test_split_state_factors_follow_xi(self):
        # under a generic perturbation the two split states obey
        # sqrt(K) = xi / (2 |E - lambda|), independently of the state
        p = ToyModelParams(e_a=0.0, e_b=0.5, a=-1.0, b=-1.0)
        eps = 1e-10
        xi2 = toy_xi2(p)
        pairs = sorted(eig(toy_h0(p) + eps * toy_h1()),
                       key=lambda q: abs(q.value))
        ratios = []
        for pair in pairs[:2]:
            root_k = np.sqrt(petermann_factor(pair))
            ratios.append(root_k * 2 * abs(pair.value) / xi2)
        assert abs(ratios[0] - 1.0) <= 1e-3 and abs(ratios[1] - 1.0) <= 1e-3
        assert abs(ratios[0] - ratios[1]) <= 1e-3


class TestRecords:
    def test_records_and_csv(self):
        records = petermann_records(np.diag([1.0, 2.0]))
        assert all(abs(r.factor - 1.0) <= 1e-12 for r in records)
        assert all(abs(r.projector_norm - np.sqrt(r.factor)) <=
                   1e-10 * r.projector_norm for r in records)
        buf = io.StringIO()
        records_to_csv(records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "eigen_re,eigen_im,K,proj_norm"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 4

    def test_projector_norm_is_spectral_norm(self):
        a = random_diagonalizable(6, np.random.default_rng(47))
        for r in petermann_records(a):
            want = spectral_norm(projector_of_state(r.eigen))
            assert abs(r.projector_norm - want) <= 1e-12 * want
