"""Petermann factors and the spectral response of isolated eigenstates.

For an isolated (non-EP) eigenstate the role of the response strength is
played by ||P_l||_2 = sqrt(K_l): the Bauer-Fike displacement bound reads
|E_l - E_l(0)| <= eps ||H1||_2 sqrt(K_l). Near an EP of order n the split
states obey sqrt(K_l) = xi / (n |E_l - lambda|^(n-1)), which is also the
basis of the regularized estimator :func:`xi_via_petermann` used as the
comparison method for the residue route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AtEpError, SeparationError
from .linalg import EigenPair, as_matrix, eig, spectral_norm
from .tables import write_text


def _overlap(pair: EigenPair) -> complex:
    """Biorthogonal overlap <L|R>, checked to be usable as a divisor.

    Raises :class:`AtEpError` when it vanishes (the state is defective). Besides
    the hard |<L|R>| <= 1e-300 cutoff this also fires when |<L|R>|^2
    underflows, since K is then not representable in double precision.
    """
    overlap = complex(np.vdot(pair.left, pair.right))
    if abs(overlap) <= 1e-300 or abs(overlap) ** 2 == 0.0:
        raise AtEpError(
            "biorthogonal overlap vanished: eigenstate is defective (at an EP)"
        )
    return overlap


def petermann_factor(pair: EigenPair) -> float:
    """K = <R|R><L|L> / |<L|R>|^2 (= 1/|<L|R>|^2 for unit vectors); K >= 1.

    Raises :class:`AtEpError` when the biorthogonal overlap vanishes (the
    state is defective and K diverges).
    """
    overlap = abs(_overlap(pair))
    rr = float(np.vdot(pair.right, pair.right).real)
    ll = float(np.vdot(pair.left, pair.left).real)
    return rr * ll / (overlap * overlap)


def projector_of_state(pair: EigenPair) -> np.ndarray:
    """Rank-1 spectral projector |R><L| / <L|R> of an isolated state.

    Idempotent, maps R to itself, and ||P||_2 = ||P||_F = sqrt(K).
    """
    return np.outer(pair.right, pair.left.conj()) / _overlap(pair)


def bauer_fike_bound(k_factor: float, epsilon: float, h1_norm: float) -> float:
    """Displacement bound eps ||H1||_2 sqrt(K) for an isolated eigenstate."""
    if min(k_factor, epsilon, h1_norm) < 0:
        raise ValueError("k_factor, epsilon and h1_norm must be nonnegative")
    return float(epsilon * h1_norm * np.sqrt(k_factor))


@dataclass(frozen=True)
class PetermannRecord:
    """Petermann factor and projector norm of one eigenpair.

    ``projector_norm`` is ||R|| ||L|| / |<L|R>|, the spectral norm of the
    rank-1 projector |R><L| / <L|R> in closed form (= sqrt(K)).
    """

    eigen: EigenPair
    factor: float
    projector_norm: float


def petermann_records(h0) -> list[PetermannRecord]:
    """K and ||P||_2 for every eigenpair of ``h0``.

    Raises :class:`AtEpError` if any state is defective.
    """
    records = []
    for pair in eig(as_matrix(h0, square=True)):
        norms = float(np.linalg.norm(pair.right) * np.linalg.norm(pair.left))
        records.append(PetermannRecord(pair, petermann_factor(pair),
                                       norms / abs(_overlap(pair))))
    return records


def records_to_csv(records, file) -> None:
    """CSV with header ``eigen_re,eigen_im,K,proj_norm``."""
    lines = ["eigen_re,eigen_im,K,proj_norm\n"]
    for r in records:
        v = complex(r.eigen.value)
        lines.append(f"{v.real:.17g},{v.imag:.17g},"
                     f"{r.factor:.17g},{r.projector_norm:.17g}\n")
    write_text(file, "".join(lines))


@dataclass(frozen=True)
class PetermannXiEstimate:
    """Regularized Petermann-based xi estimate with its per-member values."""

    xi: float
    member_estimates: tuple[float, ...]
    eta: float
    seed: int


def _unit_ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return g / spectral_norm(g)


def xi_via_petermann(h0, lambda_ep: complex, n: int, eta: float = 1e-21,
                     seed: int = 0) -> PetermannXiEstimate:
    """Estimate xi by regularizing the EP with a random perturbation.

    Adds ``eta`` times a seeded complex Ginibre matrix (normalized to unit
    spectral norm) to ``h0``, takes the n perturbed eigenpairs nearest
    ``lambda_ep`` and inverts sqrt(K_l) = xi / (n |E_l - lambda|^(n-1)) for
    each. The reported xi is the nearest member's estimate; all n member
    estimates are returned alongside. (Averaging the members cancels their
    leading, symmetric regularization errors and degenerates the method into
    a second residue-quality estimator, which it is not.)

    Raises :class:`SeparationError` if the n nearest eigenvalues are not
    separated from the rest, and propagates :class:`AtEpError` from the
    Petermann factor when the regularization is too weak (e.g. eta = 0).
    """
    a = as_matrix(h0, square=True)
    if not 1 <= int(n) <= a.shape[0]:
        raise ValueError(f"order n must be in 1..{a.shape[0]}")
    n = int(n)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    rng = np.random.default_rng(seed)
    perturbed = a + eta * _unit_ginibre(a.shape[0], rng)
    pairs = sorted(eig(perturbed), key=lambda p: abs(p.value - lambda_ep))
    members, foreign = pairs[:n], pairs[n:]
    if foreign:
        max_member = max(abs(p.value - lambda_ep) for p in members)
        min_foreign = min(abs(p.value - lambda_ep) for p in foreign)
        # require a factor-two gap, not mere ordering: when the perturbation
        # splitting reaches the foreign-eigenvalue distance the n "nearest"
        # eigenvalues no longer identify the cluster
        if min_foreign <= 2.0 * max_member:
            raise SeparationError(
                f"perturbed cluster not separable: member at distance "
                f"{max_member:.3e} vs foreign at {min_foreign:.3e}"
            )
    estimates = tuple(
        float(n * abs(p.value - lambda_ep) ** (n - 1) * np.sqrt(petermann_factor(p)))
        for p in members
    )
    return PetermannXiEstimate(estimates[0], estimates, float(eta), int(seed))
