"""Reproducible desk experiments on the reference models.

Each function builds the data behind one of the headline plots (energy
splitting vs detuning, splitting vs perturbation strength, the
pseudospectrum saddle, residue-vs-Petermann accuracy) as a
:class:`~epsrs.tables.ScanTable` or grid. The CLI and the demo scripts are
thin wrappers around these.
"""

from __future__ import annotations

import numpy as np

from .greens import PseudospectrumGrid, pseudospectrum, separatrix_level
from .models import ToyModelParams, toy_h0, toy_h1, toy_xi2, toy_xi3
from .response import cluster_spectrum, default_contour, splitting_bound, xi_residue
from .tables import ScanTable

#: Log-spaced sampling density for all scans.
POINTS_PER_DECADE = 25

#: Default seed of the regularized-Petermann comparison (recorded in output).
DEFAULT_SEED = 20


def log_grid(lo: float, hi: float) -> np.ndarray:
    """``POINTS_PER_DECADE`` log-spaced samples a decade over [lo, hi]."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    decades = np.log10(hi) - np.log10(lo)
    num = max(2, int(round(POINTS_PER_DECADE * decades)) + 1)
    return np.logspace(np.log10(lo), np.log10(hi), num)


def toy_params(detuning: float) -> ToyModelParams:
    """Figure parameters: A = B = -1, real energies, e_a = 0, e_b = detuning."""
    return ToyModelParams(e_a=0.0, e_b=float(detuning), a=-1.0, b=-1.0,
                          allow_degenerate_b=False)


def toy_splitting(detuning: float, epsilon: float) -> float:
    """Displacement of the perturbed eigenvalue nearest e_a.

    Eigenvalues of H0 + epsilon*H1 are computed directly; the nearest one is
    chosen by minimum displacement modulus (first index on ties).
    """
    h = toy_h0(toy_params(detuning)) + float(epsilon) * toy_h1()
    w = np.linalg.eigvals(h)
    return float(np.min(np.abs(w - 0.0)))


def fig2_table(d_min: float = 1e-4, d_max: float = 1.0, epsilon: float = 1e-8
               ) -> ScanTable:
    """Splitting and both bounds vs detuning at fixed perturbation strength."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    detunings = log_grid(d_min, d_max)
    ep3_bound = splitting_bound(toy_xi3(toy_params(0.0)), 3, epsilon, 1.0)

    def one(d: float) -> tuple[float, ...]:
        ep2_bound = splitting_bound(toy_xi2(toy_params(d)), 2, epsilon, 1.0)
        return (float(d), toy_splitting(d, epsilon), ep2_bound, ep3_bound)

    return ScanTable(["detuning", "splitting", "ep2_bound", "ep3_bound"],
                     [one(d) for d in detunings])


def fig3_table(eps_min: float = 1e-13, eps_max: float = 1e-3,
               detuning: float = 2e-3) -> ScanTable:
    """Splitting and both bounds vs perturbation strength at fixed detuning.

    On log-log axes the two bound columns are straight lines with slopes 1/2
    and 1/3.
    """
    if eps_min <= 0:
        raise ValueError("epsilon range must be positive")
    xi2 = toy_xi2(toy_params(detuning))
    xi3 = toy_xi3(toy_params(0.0))
    epsilons = log_grid(eps_min, eps_max)

    def one(eps: float) -> tuple[float, ...]:
        return (float(eps), toy_splitting(detuning, eps),
                splitting_bound(xi2, 2, eps, 1.0),
                splitting_bound(xi3, 3, eps, 1.0))

    return ScanTable(["epsilon", "splitting", "ep2_bound", "ep3_bound"],
                     [one(eps) for eps in epsilons])


def fig4_grid(detuning: float = 2e-3, frame=None, resolution: int = 401,
              c_window: tuple[float, float] = (-14.0, -4.0)
              ) -> tuple[PseudospectrumGrid, float]:
    """Pseudospectrum grid of the toy model plus the separatrix level c*.

    Returns the grid (log10 of the resolvent spectral norm) and the level at
    which the superlevel-set components around the EP2 and the isolated
    state merge, located on that same grid.
    """
    params = toy_params(detuning)
    h0 = toy_h0(params)
    if frame is None:
        span = params.detuning()
        margin = 0.75 * span
        frame = ((-margin, span + margin), (-margin - span / 2, margin + span / 2))
    grid = pseudospectrum(h0, frame[0], frame[1], resolution)
    c_star = separatrix_level(h0, params.e_a, params.e_b, c_window, grid=grid)
    return grid, c_star


def toy_ep2_report(detuning: float, r_c: float | None = None):
    """Residue-calculus report for the toy model's EP2 at one detuning."""
    h0 = toy_h0(toy_params(detuning))
    clusters = cluster_spectrum(h0)
    ep2 = next(c for c in clusters if c.order == 2)
    contour = default_contour(h0, ep2, radius=r_c)
    return xi_residue(h0, ep2, contour)


def fig5_table(d_min: float = 1e-3, d_max: float = 1.0, r_c: float = 1e-11,
               eta: float = 1e-21, seed: int = DEFAULT_SEED) -> ScanTable:
    """Relative error of both xi estimators vs detuning.

    Columns: detuning, residue-method error, regularized-Petermann error,
    both relative to the closed form. Each row perturbs with its own
    deterministic sub-seed (seed + row index).
    """
    from .petermann import xi_via_petermann

    if r_c <= 0 or eta <= 0:
        raise ValueError("r_c and eta must be positive")
    detunings = log_grid(d_min, d_max)

    def one(i: int, d: float) -> tuple[float, ...]:
        xi_exact = toy_xi2(toy_params(d))
        res = toy_ep2_report(d, r_c)
        pet = xi_via_petermann(toy_h0(toy_params(d)), 0.0, 2, eta=eta,
                               seed=seed + i)
        return (float(d),
                abs(res.strength - xi_exact) / xi_exact,
                abs(pet.xi - xi_exact) / xi_exact)

    return ScanTable(["detuning", "residue_rel_err", "petermann_rel_err"],
                     [one(i, d) for i, d in enumerate(detunings)])
