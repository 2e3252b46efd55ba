"""Green's function of the unperturbed Hamiltonian and pseudospectra.

The resolvent G(E) = (E*1 - H0)^-1 is the object everything downstream
integrates or takes norms of. Pseudospectra are stored as log10 of the
spectral norm of G on a rectangular grid (the norm spans many decades near
poles, so the log is what survives in double precision).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BracketingError, SingularMatrixError
from .linalg import as_matrix, eigenvalues
from .tables import write_text

logger = logging.getLogger(__name__)

#: Default grid resolution per axis.
DEFAULT_RESOLUTION = 401

#: Pivots below this modulus make :func:`greens_function` fail hard.
SINGULAR_PIVOT = 1e-300

#: Condition-number estimates above this are logged as warnings by
#: :func:`greens_function` (the Green's function is legitimately evaluated
#: close to poles, so this never raises).
CONDITION_WARN = 1e14

#: Saddle refinement: Newton iterations, step tolerance and finite-difference
#: step (both in grid cells), and the relative gap sigma_2 - sigma_1 below
#: which sigma_min counts as degenerate.
_NEWTON_ITERATIONS = 20
_NEWTON_TOL = 1e-6
_FD_STEP = 1e-3
_SIMPLE_GAP = 1e-6


def greens_function(h0, energy: complex) -> np.ndarray:
    """Resolvent (E*1 - H0)^-1 at one complex energy, by LU with partial
    pivoting.

    Raises :class:`~epsrs.exceptions.SingularMatrixError` if any pivot
    modulus falls below ``SINGULAR_PIVOT`` (``energy`` hits the spectrum of
    ``h0`` to working precision); logs a warning when the estimated condition
    number exceeds ``CONDITION_WARN`` (near-pole evaluations live there on
    purpose). Raises ``ValueError`` for a non-finite ``energy``.
    """
    import scipy.linalg

    m = as_matrix(h0, square=True)
    if not np.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    shifted = as_matrix(energy * np.eye(m.shape[0], dtype=complex) - m)
    with warnings.catch_warnings():
        # scipy warns on exactly-zero pivots; the pivot check below raises.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
    pivots = np.abs(np.diag(lu))
    smallest = float(pivots.min())
    if smallest < SINGULAR_PIVOT:
        raise SingularMatrixError(
            f"matrix singular to working precision (|pivot| = {smallest:.3e})",
            pivot=smallest,
        )
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(m.shape[0], dtype=complex),
                                check_finite=False)
    cond_est = float(np.linalg.norm(shifted, 1) * np.linalg.norm(inv, 1))
    if cond_est > CONDITION_WARN:
        logger.warning("ill-conditioned inversion: cond_1 ~ %.3e", cond_est)
    return inv


def _log10_resolvent_norms(h0: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """log10 ||G(E)||_2 for a flat array of energies, via batched SVD.

    ||G||_2 = 1 / sigma_min(E*1 - H0); computing sigma_min of the shifted
    matrix avoids forming huge inverses near poles.
    """
    m = h0.shape[0]
    shifted = energies.reshape(-1, 1, 1) * np.eye(m, dtype=complex) - h0
    sigma_min = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    # a grid point exactly on an eigenvalue is nudged by the caller, so
    # sigma_min is positive here
    return -np.log10(sigma_min)


@dataclass
class PseudospectrumGrid:
    """log10 ||G(E)||_2 sampled on a rectangular complex-energy grid.

    ``values[i, j]`` belongs to ``im_axis[i]`` and ``re_axis[j]``. The
    eps-pseudospectrum is the strict superlevel set ``values > -log10(eps)``.
    ``nudged`` lists grid points (i, j) that coincided with an eigenvalue and
    were displaced by one cell width times 1e-6.
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray
    nudged: list[tuple[int, int]] = field(default_factory=list)

    def write_csv(self, file) -> None:
        """Row-major CSV with header ``re,im,log10_norm``."""
        re_cells = [f"{re:.17g}," for re in self.re_axis.tolist()]
        lines = ["re,im,log10_norm\n"]
        for im, row in zip(self.im_axis.tolist(), self.values.tolist()):
            im_cell = f"{im:.17g},"
            lines.extend(f"{re}{im_cell}{v:.17g}\n" for re, v in zip(re_cells, row))
        write_text(file, "".join(lines))


def pseudospectrum(h0, re_range, im_range,
                   resolution: int = DEFAULT_RESOLUTION) -> PseudospectrumGrid:
    """Evaluate log10 ||G(E)||_2 on a uniform grid.

    Parameters
    ----------
    h0 : square matrix
    re_range, im_range : (min, max)
        Nonempty ranges of the real and imaginary energy axes.
    resolution : int
        Samples per axis, at least 2.

    Grid points within 1e-14 of an eigenvalue are displaced by one
    grid-cell-width x 1e-6 and recorded in ``nudged``; every stored value is
    finite.
    """
    m = as_matrix(h0, square=True)
    n = int(resolution)
    if n < 2:
        raise ValueError("resolution must be >= 2 per axis")
    re_lo, re_hi = float(re_range[0]), float(re_range[1])
    im_lo, im_hi = float(im_range[0]), float(im_range[1])
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("ranges must be nonempty (min < max)")

    re_axis = np.linspace(re_lo, re_hi, n)
    im_axis = np.linspace(im_lo, im_hi, n)
    energies = re_axis[np.newaxis, :] + 1j * im_axis[:, np.newaxis]

    cell = np.hypot(re_axis[1] - re_axis[0], im_axis[1] - im_axis[0])
    eigs = eigenvalues(m)
    dist = np.min(np.abs(energies.reshape(-1, 1) - eigs[np.newaxis, :]), axis=1)
    hit = dist.reshape(n, n) <= 1e-14
    nudged = [(int(i), int(j)) for i, j in zip(*np.nonzero(hit))]
    if nudged:
        energies = energies.copy()
        energies[hit] += cell * 1e-6

    values = _log10_resolvent_norms(m, energies.ravel()).reshape(n, n)
    return PseudospectrumGrid(re_axis, im_axis, values, nudged)


def _pole_pixel(grid: PseudospectrumGrid, pole: complex) -> int:
    """Flat index of the grid pixel nearest ``pole``."""
    j = int(np.argmin(np.abs(grid.re_axis - pole.real)))
    i = int(np.argmin(np.abs(grid.im_axis - pole.imag)))
    return i * grid.re_axis.size + j


def _merge_pixel(grid: PseudospectrumGrid, pole_a: complex, pole_b: complex
                 ) -> tuple[int, int]:
    """Grid index (i, j) of the pixel at which the two poles' components join.

    Pixels are added in descending value order (union-find over 4-neighbours)
    until both pole pixels are in one set. The last pixel added holds the
    merge level v*: the largest v such that a 4-connected path of values >= v
    joins the poles, so they share a component of ``{values > t}`` exactly
    when ``v* > t``.
    """
    n_re = grid.re_axis.size
    size = grid.values.size
    a, b = _pole_pixel(grid, pole_a), _pole_pixel(grid, pole_b)
    parent = [-1] * size  # -1: not added yet

    def find(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    for k in np.argsort(-grid.values, axis=None, kind="stable").tolist():
        parent[k] = k
        j = k % n_re
        for nb, inside in ((k - 1, j > 0), (k + 1, j < n_re - 1),
                           (k - n_re, k >= n_re), (k + n_re, k + n_re < size)):
            if inside and parent[nb] >= 0:
                root = find(nb)
                if root != k:
                    parent[root] = k
        # k roots its set: the first time the poles share a set, k joined them
        if parent[a] >= 0 and parent[b] >= 0 and find(a) == find(b):
            return divmod(k, n_re)
    raise AssertionError("every pixel added but the poles never joined")


def _poles_connected(grid: PseudospectrumGrid, pole_a: complex, pole_b: complex,
                     c: float) -> bool:
    """Whether the two poles share a 4-connected component of {values > -c}."""
    return bool(grid.values[_merge_pixel(grid, pole_a, pole_b)] > -c)


def _sigma_min_gradients(m: np.ndarray, energies: np.ndarray):
    """sigma_min(E - H0), the next singular value and grad sigma_min per energy.

    With (E - H0) v = sigma u for the smallest singular pair, the gradient
    with respect to (Re E, Im E) is (Re u^H v, -Im u^H v); it is exact where
    sigma_min is simple.
    """
    shifted = energies.reshape(-1, 1, 1) * np.eye(m.shape[0], dtype=complex) - m
    u, s, vh = np.linalg.svd(shifted)
    overlap = np.einsum("ki,ki->k", u[:, :, -1].conj(), vh[:, -1, :].conj())
    return s[:, -1], s[:, -2], np.stack([overlap.real, -overlap.imag], axis=1)


def _refine_saddle(m: np.ndarray, grid: PseudospectrumGrid, i: int, j: int
                   ) -> float | None:
    """log10 sigma_min(E - H0) at the saddle next to grid pixel (i, j).

    Newton on grad sigma_min, with the Hessian from central differences of
    the gradient. Returns None, so the caller keeps the on-grid level, when
    sigma_min is near-degenerate (a kink, e.g. between the disks of a normal
    pair), the Hessian is not indefinite, an iterate leaves the 2-cell
    neighbourhood of the pixel, or 20 iterations do not converge.
    """
    d_re = grid.re_axis[1] - grid.re_axis[0]
    d_im = grid.im_axis[1] - grid.im_axis[0]
    seed = complex(grid.re_axis[j], grid.im_axis[i])
    h = _FD_STEP * min(d_re, d_im)
    probes = np.array([0.0, h, -h, 1j * h, -1j * h])
    energy = seed
    for _ in range(_NEWTON_ITERATIONS):
        s1, s2, grad = _sigma_min_gradients(m, energy + probes)
        if not s2[0] - s1[0] > _SIMPLE_GAP * s2[0]:
            return None
        hess = np.column_stack([grad[1] - grad[2], grad[3] - grad[4]]) / (2 * h)
        hess = 0.5 * (hess + hess.T)
        if not np.linalg.det(hess) < 0:
            return None
        step = np.linalg.solve(hess, -grad[0])
        if abs(step[0]) <= _NEWTON_TOL * d_re and abs(step[1]) <= _NEWTON_TOL * d_im:
            return float(np.log10(s1[0]))
        energy += complex(step[0], step[1])
        if abs(energy.real - seed.real) > 2 * d_re or abs(energy.imag - seed.imag) > 2 * d_im:
            return None
    return None


def separatrix_level(h0, pole_a: complex, pole_b: complex,
                     window: tuple[float, float],
                     frame=None,
                     resolution: int = DEFAULT_RESOLUTION,
                     grid: PseudospectrumGrid | None = None) -> float:
    """Locate c* = log10(eps) at which the superlevel-set components around
    two poles merge: the saddle of sigma_min(E - H0) between them.

    The merge pixel comes from one union-find pass over the grid in
    descending value order; its value is the exact on-grid merge level
    c_grid. Newton on grad sigma_min then refines c* to the saddle next to
    that pixel. The refinement is kept only if sigma_min is simple there,
    the Hessian is indefinite, the iterate stays within 2 cells of the pixel,
    it converges within 20 iterations and moves c by at most 0.01; otherwise
    (e.g. the kink saddle of a normal pair, where the two smallest singular
    values cross) c_grid is returned.

    Parameters
    ----------
    h0 : square matrix
    pole_a, pole_b : complex
        Two distinct eigenvalues of ``h0``.
    window : (c_lo, c_hi)
        Search bracket in c; the components must be separate at ``c_lo`` and
        merged at ``c_hi`` on the grid, otherwise :class:`BracketingError` is
        raised.
    frame : ((re_min, re_max), (im_min, im_max)), optional
        Complex-plane window; default frames both poles with a margin of
        0.75x their separation.
    resolution : int
        Grid resolution per axis.
    grid : PseudospectrumGrid, optional
        A grid of ``h0`` already computed (e.g. by :func:`pseudospectrum`);
        it is used as is and ``frame`` and ``resolution`` are ignored.
        Without it one grid is built from ``frame`` and ``resolution``.

    At a smooth saddle the result is the saddle level itself, whatever the
    resolution (it agrees with a direct saddle search to 1e-6). At a kink it
    is the on-grid level, off by at most the change of the values over one
    cell: within +-0.01 in c at the default resolution and frame.
    """
    m = as_matrix(h0, square=True)
    pole_a, pole_b = complex(pole_a), complex(pole_b)
    eigs = eigenvalues(m)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    for name, pole in (("pole_a", pole_a), ("pole_b", pole_b)):
        if np.min(np.abs(eigs - pole)) > 1e-8 * scale:
            raise ValueError(f"{name} = {pole} is not an eigenvalue of h0")
    if pole_a == pole_b:
        raise ValueError("pole_a and pole_b must be distinct")

    c_lo, c_hi = float(window[0]), float(window[1])
    if not c_lo < c_hi:
        raise ValueError("window must satisfy c_lo < c_hi")

    if grid is None:
        if frame is None:
            span = abs(pole_b - pole_a)
            margin = 0.75 * span
            re_lo = min(pole_a.real, pole_b.real) - margin
            re_hi = max(pole_a.real, pole_b.real) + margin
            im_mid = 0.5 * (pole_a.imag + pole_b.imag)
            im_half = max(abs(pole_a.imag - pole_b.imag) / 2 + margin, margin)
            frame = ((re_lo, re_hi), (im_mid - im_half, im_mid + im_half))
        grid = pseudospectrum(m, frame[0], frame[1], resolution)

    i, j = _merge_pixel(grid, pole_a, pole_b)
    merge_level = float(grid.values[i, j])
    if merge_level > -c_lo:
        raise BracketingError(
            f"components already merged at c_lo = {c_lo}; window does not bracket"
        )
    if not merge_level > -c_hi:
        raise BracketingError(
            f"components still separate at c_hi = {c_hi}; window does not bracket"
        )
    c_grid = -merge_level
    c_saddle = _refine_saddle(m, grid, i, j)
    if c_saddle is not None and abs(c_saddle - c_grid) <= 0.01:
        return c_saddle
    return c_grid
