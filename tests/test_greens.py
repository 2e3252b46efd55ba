import io
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from epsrs import (
    ToyModelParams,
    frobenius_norm,
    greens_function,
    pseudospectrum,
    separatrix_level,
    spectral_norm,
    toy_h0,
)
from epsrs import experiments
from epsrs.exceptions import BracketingError, SingularMatrixError
from epsrs.greens import _merge_pixel

from helpers import ginibre, random_unitary


class TestGreensFunction:
    def test_diagonal(self):
        g = greens_function(np.diag([1.0, 2.0]), 0.0)
        assert_allclose(g, np.diag([-1.0, -0.5]), rtol=1e-15)

    def test_toy_model_entries(self):
        # closed-form resolvent of the triangular model, checked entrywise
        rng = np.random.default_rng(21)
        p = ToyModelParams(e_a=0.2 - 0.1j, e_b=-0.4, a=-1.5, b=0.7j)
        h0 = toy_h0(p)
        for _ in range(5):
            en = complex(rng.normal(), rng.normal())
            g = greens_function(h0, en)
            da, db = en - p.e_a, en - p.e_b
            expected = np.array([
                [1 / db, p.b / (db * da), p.a * p.b / (db * da**2)],
                [0, 1 / da, p.a / da**2],
                [0, 0, 1 / da],
            ])
            assert_allclose(g, expected, rtol=1e-12)

    def test_energy_on_spectrum(self):
        with pytest.raises(SingularMatrixError):
            greens_function(np.diag([1.0, 2.0]), 1.0)

    def test_resolvent_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            h0 = ginibre(5, rng)
            e1 = complex(rng.normal(scale=10), rng.normal(scale=10))
            e2 = complex(rng.normal(scale=10), rng.normal(scale=10))
            g1, g2 = greens_function(h0, e1), greens_function(h0, e2)
            lhs = g1 - g2
            rhs = (e2 - e1) * (g1 @ g2)
            assert frobenius_norm(lhs - rhs) <= 1e-10 * frobenius_norm(lhs)

    def test_normal_matrix_norm_is_inverse_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = random_unitary(4, rng)
            h0 = u @ np.diag(d) @ u.conj().T
            en = complex(rng.normal(scale=3), rng.normal(scale=3))
            dist = np.min(np.abs(d - en))
            if dist < 1e-2:
                continue
            assert abs(spectral_norm(greens_function(h0, en)) * dist - 1.0) <= 1e-10


class TestPseudospectrum:
    def test_dimension_cap(self):
        # the eigensolve goes through linalg.eigenvalues, which caps m at 256
        with pytest.raises(ValueError, match="exceeds 256"):
            pseudospectrum(np.eye(257), (0.5, 1.5), (-0.5, 0.5), 2)

    def test_scalar_log_value(self):
        grid = pseudospectrum(np.zeros((1, 1)), (0.5, 1.5), (-0.5, 0.5), 3)
        # center point is E = 1: log10 ||G(1)|| = log10(1) = 0
        assert_allclose(grid.values[1, 1], 0.0, atol=1e-14)
        assert grid.re_axis[1] == 1.0 and grid.im_axis[1] == 0.0

    def test_normal_disks(self):
        # for a normal matrix the eps-pseudospectrum is exact distance disks
        h0 = np.diag([0.0, 10.0]).astype(complex)
        eps = 1e-3
        grid = pseudospectrum(h0, (-2e-3, 2e-3), (-2e-3, 2e-3), 201)
        level = -np.log10(eps)
        cell = grid.re_axis[1] - grid.re_axis[0]
        for i, im in enumerate(grid.im_axis):
            for j, re in enumerate(grid.re_axis):
                dist = min(abs(complex(re, im)), abs(complex(re - 10.0, im)))
                if abs(dist - eps) <= 2 * cell:
                    continue  # boundary cells are quantization-limited
                assert (grid.values[i, j] > level) == (dist < eps)
        # measured disk radius along the real axis within 5 percent, and the
        # isoline is circular: x- and y-extents agree
        row = grid.values[100]
        inside = np.abs(grid.re_axis[row > level])
        assert abs(inside.max() - eps) <= 0.05 * eps
        col = grid.values[:, 100]
        inside_y = np.abs(grid.im_axis[col > level])
        assert abs(inside_y.max() - inside.max()) <= 0.05 * eps

    def test_superlevel_sets_nested(self):
        rng = np.random.default_rng(24)
        grid = pseudospectrum(ginibre(3, rng), (-2, 2), (-2, 2), 41)
        for c1, c2 in [(-3.0, -2.0), (-1.0, 0.0), (0.0, 2.0)]:
            # eps1 < eps2 means threshold -c1 > -c2
            set1 = grid.values > -c1
            set2 = grid.values > -c2
            assert np.all(set2[set1])

    def test_eigenvalue_hit_is_nudged(self):
        grid = pseudospectrum(np.zeros((1, 1)), (-1, 1), (-1, 1), 5)
        assert (2, 2) in grid.nudged
        assert np.all(np.isfinite(grid.values))

    def test_validation(self):
        with pytest.raises(ValueError):
            pseudospectrum(np.eye(2), (0, 1), (0, 1), 1)
        with pytest.raises(ValueError):
            pseudospectrum(np.eye(2), (1, 0), (0, 1), 11)

    def test_csv_export(self):
        grid = pseudospectrum(np.zeros((1, 1)), (0.5, 1.5), (-0.5, 0.5), 3)
        buf = io.StringIO()
        grid.write_csv(buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "re,im,log10_norm"
        assert len(lines) == 1 + 9 + 1  # header + rows + trailing newline
        re, im, val = lines[5].split(",")  # row-major: middle point
        assert float(re) == 1.0 and float(im) == 0.0 and abs(float(val)) < 1e-14

    def test_csv_matches_cell_by_cell_reference(self, tmp_path):
        rng = np.random.default_rng(25)
        # unequal re and im ranges, so a transposed write differs
        grid = pseudospectrum(ginibre(3, rng), (-2.0, 2.5), (-1.5, 1.0), 17)
        reference = "re,im,log10_norm\n" + "".join(
            f"{re:.17g},{im:.17g},{grid.values[i, j]:.17g}\n"
            for i, im in enumerate(grid.im_axis)
            for j, re in enumerate(grid.re_axis))
        buf = io.StringIO()
        grid.write_csv(buf)
        assert buf.getvalue() == reference
        path = tmp_path / "grid.csv"
        grid.write_csv(path)
        assert path.read_bytes() == reference.encode()


class TestSeparatrixLevel:
    def test_normal_pair_touching_disks(self):
        # two distance-disks of radius eps merge when eps = d/2
        h0 = np.diag([0.0, 1.0]).astype(complex)
        c_star = separatrix_level(h0, 0.0, 1.0, (-1.2, -0.05))
        assert abs(c_star - np.log10(0.5)) <= 0.01

    def test_normal_pair_kink_falls_back_to_grid_level(self):
        # the saddle of a normal pair is a kink where the two smallest
        # singular values cross, so the on-grid merge level is returned, both
        # with the kink on a grid point (odd resolution) and between points
        h0 = np.diag([0.0, 1.0]).astype(complex)
        for resolution in (100, 401):
            grid = pseudospectrum(h0, (-0.75, 1.75), (-0.75, 0.75), resolution)
            c_star = separatrix_level(h0, 0.0, 1.0, (-1.2, -0.05), grid=grid)
            assert c_star == -grid.values[_merge_pixel(grid, 0.0, 1.0)]
            cell = grid.re_axis[1] - grid.re_axis[0]
            assert np.log10(0.5 - cell) <= c_star <= np.log10(0.5)

    @pytest.mark.parametrize("detuning", [5e-4, 2e-3, 1e-2])
    def test_toy_matches_direct_saddle_search(self, detuning):
        # the toy saddle lies on the real axis between the poles, where it is
        # the maximum of sigma_min(E - H0): a bounded 1-d search finds it
        h0 = toy_h0(experiments.toy_params(detuning))

        def sigma_min(e):
            return np.linalg.svd(e * np.eye(3) - h0, compute_uv=False)[-1]

        scan = np.linspace(0.0, detuning, 41)[1:-1]
        k = int(np.argmax([sigma_min(e) for e in scan]))
        best = scipy.optimize.minimize_scalar(
            lambda e: -sigma_min(e), bounds=(scan[k - 1], scan[k + 1]),
            method="bounded", options={"xatol": detuning * 1e-12})
        _, c_star = experiments.fig4_grid(detuning, resolution=101)
        assert abs(c_star - math.log10(-best.fun)) <= 1e-6

    def test_off_axis_saddle_matches_fine_grid(self):
        rng = np.random.default_rng(2)
        h0 = ginibre(4, rng)
        pa, pb = min(combinations(np.linalg.eigvals(h0), 2),
                     key=lambda pair: abs(pair[0] - pair[1]))
        margin = 0.75 * abs(pb - pa)
        frame = ((min(pa.real, pb.real) - margin, max(pa.real, pb.real) + margin),
                 (min(pa.imag, pb.imag) - margin, max(pa.imag, pb.imag) + margin))
        grid = pseudospectrum(h0, frame[0], frame[1], 101)
        c_star = separatrix_level(h0, pa, pb, (-8.0, 3.0), grid=grid)
        # the default frame, up to rounding: without grid= the result agrees
        assert_allclose(separatrix_level(h0, pa, pb, (-8.0, 3.0), resolution=101),
                        c_star, rtol=1e-12)
        i, j = _merge_pixel(grid, pa, pb)
        d_re = grid.re_axis[1] - grid.re_axis[0]
        d_im = grid.im_axis[1] - grid.im_axis[0]
        assert abs(grid.im_axis[i]) > 10 * d_im  # well off the real axis
        # brute force: sigma_min on a 50x finer grid over +-2 cells around the
        # merge pixel; the saddle is where its sampled gradient is smallest
        re = grid.re_axis[j] + d_re * np.linspace(-2, 2, 201)
        im = grid.im_axis[i] + d_im * np.linspace(-2, 2, 201)
        energies = re[np.newaxis, :] + 1j * im[:, np.newaxis]
        shifted = energies.reshape(-1, 1, 1) * np.eye(4) - h0
        sigma = np.linalg.svd(shifted, compute_uv=False)[:, -1].reshape(201, 201)
        g_im, g_re = np.gradient(sigma, im, re)
        slope = np.hypot(g_re, g_im)[1:-1, 1:-1]
        k, l = np.unravel_index(np.argmin(slope), slope.shape)
        c_fine = math.log10(sigma[k + 1, l + 1])
        assert abs(c_star - c_fine) <= 1e-6
        # the grid pixel alone is further off: the refinement did the work
        assert abs(-grid.values[i, j] - c_fine) > 1e-5

    def test_fig4_builds_one_grid(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return pseudospectrum(*args, **kwargs)

        monkeypatch.setattr(experiments, "pseudospectrum", counting)
        monkeypatch.setattr("epsrs.greens.pseudospectrum", counting)
        experiments.fig4_grid(resolution=51)
        assert len(calls) == 1

    def test_swap_symmetric(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        a = separatrix_level(h0, 0.0, 1.0, (-1.2, -0.05), resolution=101)
        b = separatrix_level(h0, 1.0, 0.0, (-1.2, -0.05), resolution=101)
        assert a == b

    def test_window_must_bracket(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(BracketingError):
            separatrix_level(h0, 0.0, 1.0, (-6.0, -4.0), resolution=101)
        with pytest.raises(BracketingError):
            separatrix_level(h0, 0.0, 1.0, (-0.05, 0.5), resolution=101)

    def test_poles_validated(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            separatrix_level(h0, 0.3, 1.0, (-1.2, -0.05))
        with pytest.raises(ValueError):
            separatrix_level(h0, 1.0, 1.0, (-1.2, -0.05))

    def test_matches_eigenvalue_free_region(self):
        # below the merge level the poles sit in different components, above
        # they share one; checked at +-0.05 around the returned level
        h0 = np.diag([0.0, 1.0]).astype(complex)
        from epsrs.greens import _poles_connected

        c_star = separatrix_level(h0, 0.0, 1.0, (-1.2, -0.05), resolution=101)
        grid = pseudospectrum(h0, (-0.75, 1.75), (-0.75, 0.75), 101)
        assert not _poles_connected(grid, 0.0, 1.0, c_star - 0.05)
        assert _poles_connected(grid, 0.0, 1.0, c_star + 0.05)

    def test_toy_saddle_structure(self):
        # just above the merge level the superlevel set is one component
        # touching at a saddle; 0.3 decades below it splits in two
        from epsrs.greens import _poles_connected

        p = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)
        h0 = toy_h0(p)
        frame = ((-1.5e-3, 3.5e-3), (-2e-3, 2e-3))
        c_star = separatrix_level(h0, p.e_a, p.e_b, (-11.0, -6.0),
                                  frame=frame, resolution=201)
        grid = pseudospectrum(h0, frame[0], frame[1], 201)
        assert _poles_connected(grid, p.e_a, p.e_b, c_star + 0.01)
        assert not _poles_connected(grid, p.e_a, p.e_b, c_star - 0.3)
