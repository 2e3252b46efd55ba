"""Self-test of the benchmark's oracles and failure accounting.

    python3 perfbench/run.py --self-test

Checks that the benchmark's own oracles agree with independent routes (the
closed forms in epsrs.models, xi_special, the Sylvester projector identities,
the published c* at d = 2e-3), and that an op whose correct result is
corrupted before its check (xi, c* or a projector off by more than the
tolerance, or converged=False) is counted as a failed op by the same runner
the benchmark uses. Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np
import scipy.linalg

import epsrs
import tracing
import workloads as wls
from worker import Runner

RESULTS: list[bool] = []


def line(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(bool(ok))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def check_oracles(rng) -> None:
    worst = 0.0
    for _ in range(20):
        p = epsrs.ToyModelParams(e_a=0.0, e_b=complex(rng.uniform(1e-3, 1)),
                                 a=wls._coupling(rng), b=wls._coupling(rng))
        h = epsrs.toy_h0(p)
        worst = max(worst, wls._rel(wls.toy_xi2_oracle(h), epsrs.toy_xi2(p)))
        p3 = epsrs.ToyModelParams(e_a=0.0, e_b=0.0, a=p.a, b=p.b)
        worst = max(worst, wls._rel(wls.toy_xi3_oracle(epsrs.toy_h0(p3)), epsrs.toy_xi3(p3)))
        w_is, w_ch, v, a = (wls._coupling(rng) for _ in range(4))
        cp = epsrs.ChiralityModelParams(omega_is=w_is, omega_ch=w_ch, v=v, a=a, b=0.0)
        plus, minus = wls.chirality_branches(w_is, w_ch, v)
        worst = max(worst, wls._rel(wls.chirality_xi2_oracle(w_is, w_ch, v, a, plus, minus),
                                    epsrs.chirality_xi2(cp, +1)))
        v4 = 1j * (w_is - w_ch) / 2
        cp4 = epsrs.ChiralityModelParams(omega_is=w_is, omega_ch=w_ch, v=v4, a=a, b=0.0)
        worst = max(worst, wls._rel(wls.chirality_xi4_oracle(w_is, w_ch, v4, a),
                                    epsrs.chirality_xi4(cp4)))
    line("model oracles match epsrs.models closed forms", worst <= 1e-13,
         f"max rel diff {worst:.1e}")

    worst = 0.0
    for n in (2, 3, 4):
        t, a, lam, nil = wls._dense(rng, n, n)
        worst = max(worst, wls._rel(wls.schur_xi(t, n, nil),
                                    epsrs.xi_special(a, lam, n).strength))
    line("Schur xi oracle matches xi_special for m = n", worst <= 1e-10,
         f"max rel diff {worst:.1e}")

    n, m = 3, 16
    t, _, _ = wls.schur_form(rng, n, m)
    x = scipy.linalg.solve_sylvester(t[:n, :n], -t[n:, n:], t[:n, n:])
    proj = np.zeros((m, m), dtype=complex)
    proj[:n, :n] = np.eye(n)
    proj[:n, n:] = x
    err = max(np.linalg.norm(proj @ t - t @ proj), np.linalg.norm(proj @ proj - proj))
    line("Sylvester projector commutes with T and is idempotent", err <= 1e-12,
         f"residual {err:.1e}")

    t, a, _, _ = wls._dense(rng, 1, 16)
    pairs = epsrs.eig(a)
    worst = 0.0
    for j in range(16):
        want = wls.schur_root_k(t, j)
        pair = min(pairs, key=lambda p: abs(p.value - t[j, j]))
        worst = max(worst, wls._rel(math.sqrt(epsrs.petermann_factor(pair)), want))
    line("triangular sqrt(K) oracle matches petermann_factor", worst <= 1e-8,
         f"max rel diff {worst:.1e}")

    c_star = wls.separatrix_oracle(2e-3)
    line("separatrix oracle at d = 2e-3 is -8.926214", abs(c_star + 8.926214) <= 1e-6,
         f"c* = {c_star:.7f}")


def first_good(wl, call, want_label=None):
    """Run cases until one passes its check; return (case, result)."""
    for case in wl.make_rounds(np.random.default_rng(7))[0]:
        if want_label and case.label != want_label:
            continue
        try:
            cause, res = wl.run(case, call)
        except epsrs.EpsrsError:
            continue
        if cause is None and wl.check(case, res) is None:
            return case, res
    raise RuntimeError(f"no correct op in the first round of {wl.name}")


class Corrupted:
    """A workload whose op result is altered by ``corrupt`` before its check."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt, self.name = wl, corrupt, wl.name

    def run(self, case, call):
        cause, res = self.wl.run(case, call)
        return cause, self.corrupt(res)

    def check(self, case, res):
        return self.wl.check(case, res)


def counted_as(wl, case, corrupt) -> str | None:
    """The failure cause the benchmark's runner records for a corrupted op."""
    return Runner(Corrupted(wl, corrupt), trace=False).one(case, traced=False).cause


def off_by(key, factor):
    return lambda res: dict(res, **{key: res[key] * factor})


def check_corruption(scratch: str) -> None:
    call = tracing.Direct()

    wl = wls.ModelSrs()
    wl.rounds = 1
    for label in ("toy-ep2", "chir-ep4", "fig5"):
        case, _ = first_good(wl, call, label)
        line(f"model-srs {label}: xi off by 1e-6 counts as a mismatch",
             counted_as(wl, case, off_by("xi", 1 + 1e-6)) == "mismatch")
        line(f"model-srs {label}: converged=False counts as a failure",
             counted_as(wl, case, lambda res: dict(res, converged=False)) == "unconverged")
    case, _ = first_good(wl, call, "fig5")
    line("model-srs fig5: Petermann xi off by 1% counts as a mismatch",
         counted_as(wl, case, off_by("petermann_xi", 1.01)) == "mismatch")

    wl = wls.DenseEp()
    wl.rounds = 1
    wl.counts = {"n": 1, 16: 4, 64: 0, 256: 0}
    case, _ = first_good(wl, call, "ep2-m16")
    line("dense-ep: xi off by 1e-6 counts as a mismatch",
         counted_as(wl, case, off_by("xi", 1 + 1e-6)) == "mismatch")

    wl = wls.DenseDecompose()
    wl.rounds = 1
    wl.counts = {16: 2, 64: 0}
    case, _ = first_good(wl, call, "ord2-m16")

    def bad_projector(res):
        deco = res["deco"]
        projectors = list(deco.projectors)
        projectors[0] = projectors[0] * (1 + 1e-6)
        return dict(res, deco=epsrs.SpectralDecomposition(
            deco.clusters, projectors, deco.nilpotent_powers))

    line("dense-decompose: a projector off by 1e-6 counts as a mismatch",
         counted_as(wl, case, bad_projector) == "mismatch")

    wl = wls.Fig4Separatrix(scratch)
    wl.rounds = 1
    case, res = first_good(wl, call)
    line("fig4-separatrix: c* off by 0.02 counts as a mismatch",
         counted_as(wl, case, lambda r: dict(r, c_star=r["c_star"] + 2 * wls.C_STAR_TOL))
         == "mismatch")
    traced_res = wl.run(case, tracing.Tracer())[1]
    line("fig4-separatrix: the traced op gives the CLI's c*",
         traced_res["c_star"] == res["c_star"] and wl.check(case, traced_res) is None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)
    if not os.path.realpath(epsrs.__file__).startswith(os.path.realpath(args.src) + os.sep):
        print(f"epsrs imported from {epsrs.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    check_oracles(np.random.default_rng(20))
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        check_corruption(tmp)
    print(f"self-test: {sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
