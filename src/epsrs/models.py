"""Reference model Hamiltonians and their closed-form response strengths.

Two families: a 3x3 upper-triangular toy model (one isolated state plus a
second-order EP that merges into a third-order EP at zero detuning) and a 4x4
chirality model (two second-order EPs that merge into a fourth-order EP).
The closed forms here are the analytic oracles the numerical pipeline is
tested against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

import numpy as np


def _as_complex(value) -> complex:
    """Accept a number or an [re, im] pair (the JSON encoding)."""
    try:
        if isinstance(value, (list, tuple)):
            re, im = value
            return complex(float(re), float(im))
        return complex(value)
    except (TypeError, ValueError) as exc:
        raise ValueError("complex JSON value must be a number or [re, im], "
                         f"got {value!r}") from exc


def _check_keys(cls, obj: dict) -> None:
    """Reject keys of ``obj`` that name no field of ``cls``."""
    known = [f.name for f in fields(cls)]
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ValueError(f"{cls.__name__} has no parameter "
                         f"{', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(known)})")


@dataclass(frozen=True)
class ToyModelParams:
    """Parameters of the triangular 3x3 model.

    ``e_a`` is the (doubly degenerate) EP eigenvalue, ``e_b`` the isolated
    one; ``a`` and ``b`` are the couplings. Both couplings must be nonzero;
    ``b = 0`` (the degenerate EP2-plus-isolated-state end case) is allowed
    only with ``allow_degenerate_b=True``.
    """

    e_a: complex
    e_b: complex
    a: complex
    b: complex
    allow_degenerate_b: bool = False

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("coupling a must be nonzero")
        if self.b == 0 and not self.allow_degenerate_b:
            raise ValueError("coupling b must be nonzero "
                             "(or pass allow_degenerate_b=True)")

    @classmethod
    def from_dict(cls, obj: dict) -> "ToyModelParams":
        _check_keys(cls, obj)
        kwargs = {k: _as_complex(obj[k]) for k in ("e_a", "e_b", "a", "b")}
        if obj.get("allow_degenerate_b"):
            kwargs["allow_degenerate_b"] = True
        return cls(**kwargs)

    def detuning(self) -> float:
        return abs(self.e_b - self.e_a)


def toy_h0(p: ToyModelParams) -> np.ndarray:
    """The 3x3 upper-triangular Hamiltonian.

    Eigenvalues are ``e_b`` and ``e_a`` (algebraic multiplicity two); for
    ``e_a != e_b`` the pair at ``e_a`` forms an EP2, for ``e_a == e_b`` a
    single EP3.
    """
    return np.array(
        [[p.e_b, p.b, 0.0],
         [0.0, p.e_a, p.a],
         [0.0, 0.0, p.e_a]],
        dtype=complex,
    )


def toy_h1() -> np.ndarray:
    """The generic unit-spectral-norm perturbation (bottom row 1/sqrt2, 1/sqrt2, 0)."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [[0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0],
         [s, s, 0.0]],
        dtype=complex,
    )


def toy_xi2(p: ToyModelParams) -> float:
    """Closed-form response strength of the EP2 at ``e_a``:

    xi2 = |a| sqrt(1 + |b|^2 / |e_b - e_a|^2), valid for ``e_a != e_b``.
    """
    d = p.detuning()
    if d == 0:
        raise ValueError("zero detuning: the EP2 formula diverges, use toy_xi3")
    return abs(p.a) * np.sqrt(1.0 + abs(p.b) ** 2 / d**2)


def toy_xi3(p: ToyModelParams) -> float:
    """Closed-form response strength at zero detuning.

    For ``b != 0`` the coalesced point is an EP3 with xi3 = |a||b|; for the
    degenerate-mode case ``b = 0`` the surviving EP2 has strength |a|.
    """
    if p.detuning() != 0:
        raise ValueError("toy_xi3 requires e_a == e_b")
    if p.b == 0:
        return abs(p.a)
    return abs(p.a) * abs(p.b)


@dataclass(frozen=True)
class ChiralityModelParams:
    """Parameters of the 4x4 chirality-transport model."""

    omega_is: complex
    omega_ch: complex
    v: complex
    a: complex
    b: complex

    @classmethod
    def from_dict(cls, obj: dict) -> "ChiralityModelParams":
        _check_keys(cls, obj)
        return cls(**{k: _as_complex(obj[k])
                      for k in ("omega_is", "omega_ch", "v", "a", "b")})


def chirality_h0(p: ChiralityModelParams) -> np.ndarray:
    """The 4x4 Hamiltonian with asymmetric backscattering couplings a, b."""
    return np.array(
        [[p.omega_is, p.v, 0.0, 0.0],
         [p.v, p.omega_ch, p.a, 0.0],
         [0.0, p.b, p.omega_ch, p.v],
         [0.0, 0.0, p.v, p.omega_is]],
        dtype=complex,
    )


def chirality_eigenvalues(p: ChiralityModelParams) -> list[complex]:
    """Closed-form eigenvalues, ordered (sigma=+1: +, -), (sigma=-1: +, -).

    Square roots use the principal branch; since both signs in front of the
    outer root are returned, the branch choice is observationally irrelevant.
    """
    out: list[complex] = []
    root = cmath.sqrt(p.a * p.b)
    for sigma in (1.0, -1.0):
        center = (p.omega_is + p.omega_ch + sigma * root) / 2.0
        disc = cmath.sqrt(p.v**2 + ((p.omega_is - p.omega_ch - sigma * root) / 2.0) ** 2)
        out.append(center + disc)
        out.append(center - disc)
    return out


def _b0_branches(p: ChiralityModelParams) -> tuple[complex, complex]:
    """(Omega_plus, Omega_minus) of the b = 0 case."""
    if p.b != 0:
        raise ValueError("closed-form EP formulas require b = 0")
    center = (p.omega_is + p.omega_ch) / 2.0
    disc = cmath.sqrt(p.v**2 + ((p.omega_is - p.omega_ch) / 2.0) ** 2)
    return center + disc, center - disc


def chirality_xi2(p: ChiralityModelParams, branch: int) -> float:
    """Closed-form strength of one of the two EP2s of the b = 0 case:

    xi2 = |a| (|v|^2 + |Omega_branch - omega_is|^2) / |Omega_other - Omega_branch|^2.

    ``branch`` is +1 or -1 and labels the sign in front of the square root,
    consistently with :func:`chirality_eigenvalues`.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    plus, minus = _b0_branches(p)
    own, other = (plus, minus) if branch == +1 else (minus, plus)
    gap = abs(other - own)
    if gap == 0:
        raise ValueError("branches coalesced (EP4): use chirality_xi4")
    return abs(p.a) * (abs(p.v) ** 2 + abs(own - p.omega_is) ** 2) / gap**2


def chirality_xi4(p: ChiralityModelParams) -> float:
    """Closed-form strength of the EP4 (b = 0, coalesced branches):

    xi4 = |a| (|v|^2 + |Omega - omega_is|^2) with Omega = (omega_is + omega_ch)/2.
    """
    plus, minus = _b0_branches(p)
    scale = max(abs(plus), abs(minus), 1.0)
    if abs(plus - minus) > 1e-12 * scale:
        raise ValueError("branches not coalesced: use chirality_xi2")
    coalesced = (p.omega_is + p.omega_ch) / 2.0
    return abs(p.a) * (abs(p.v) ** 2 + abs(coalesced - p.omega_is) ** 2)
