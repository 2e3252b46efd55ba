"""Command-line front end.

Subcommands: srs, fig2, fig3, fig4, fig5, scan-surface, petermann,
decompose. Exit codes: 0 success, 1 input error, 2 numerical failure.
Outputs are deterministic given flags + seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments
from .exceptions import AmbiguousOrderError, EpsrsError
from .linalg import load_matrix, matrix_to_json
from .models import ChiralityModelParams, ToyModelParams, chirality_h0, toy_h0
from .petermann import petermann_records, records_to_csv
from .response import (
    cluster_spectrum,
    default_contour,
    spectral_decomposition,
    surface_scan,
    xi_residue,
)
from .tables import write_text


class _Parser(argparse.ArgumentParser):
    """argparse with input errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: Flags several subcommands read. Each subcommand declares only the ones its
#: handler reads, so a flag it would ignore is an input error.
_FLAGS = {
    "matrix": dict(required=True, help="input matrix JSON file"),
    "out": dict(help="output file path"),
    "rc": dict(type=float, help="contour radius override"),
    "nodes": dict(type=int, default=64,
                  help="starting quadrature node count (power of two >= 16)"),
    "tol-cluster": dict(type=float, help="eigenvalue clustering tolerance override"),
    "order": dict(type=int, help="declared EP order for the selected cluster"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="epsrs",
                     description="spectral response strength of exceptional points")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, func, summary, flags, **defaults):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func, **defaults)
        return p

    p = command("srs", _cmd_srs, "response strength of one cluster of a matrix",
                ("matrix", "out", "rc", "nodes", "tol-cluster", "order"))
    p.add_argument("--cluster", type=int,
                   help="cluster index (default: highest order)")

    p = command("fig2", _cmd_fig2, "splitting and bounds vs detuning (CSV)",
                ("out",), default_out="fig2.csv")
    p.add_argument("--d-min", type=float, default=1e-4)
    p.add_argument("--d-max", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-8)

    p = command("fig3", _cmd_fig3, "splitting and bounds vs perturbation strength (CSV)",
                ("out",), default_out="fig3.csv")
    p.add_argument("--eps-min", type=float, default=1e-13)
    p.add_argument("--eps-max", type=float, default=1e-3)
    p.add_argument("--detuning", type=float, default=2e-3)

    p = command("fig4", _cmd_fig4, "pseudospectrum grid and separatrix level",
                ("out",), default_out="fig4.csv")
    p.add_argument("--detuning", type=float, default=2e-3)
    p.add_argument("--resolution", type=int, default=401)
    p.add_argument("--window", type=float, nargs=4,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
                   help="complex-plane window (default frames both poles)")
    p.add_argument("--c-lo", type=float, default=-14.0,
                   help="separatrix bracket, lower log10(eps)")
    p.add_argument("--c-hi", type=float, default=-4.0,
                   help="separatrix bracket, upper log10(eps)")

    p = command("fig5", _cmd_fig5, "residue vs regularized-Petermann accuracy (CSV)",
                ("out",), default_out="fig5.csv")
    p.add_argument("--rc", type=float, default=1e-11, help="contour radius")
    p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED,
                   help="PRNG seed of the Petermann perturbations")
    p.add_argument("--d-min", type=float, default=1e-3)
    p.add_argument("--d-max", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1e-21)

    p = command("scan-surface", _cmd_scan_surface,
                "xi along an exceptional surface (CSV)",
                ("out", "rc", "nodes", "tol-cluster"), default_out="scan.csv")
    p.add_argument("model", choices=["toy", "chirality"])
    p.add_argument("--spec", required=True,
                   help="JSON scan spec: {base, vary, values, order[, compensate]}")

    command("petermann", _cmd_petermann, "Petermann factors of every eigenpair (CSV)",
            ("matrix", "out"))
    command("decompose", _cmd_decompose,
            "spectral projectors and nilpotent powers (JSON)",
            ("matrix", "out", "tol-cluster", "order"))
    return parser


def _emit(args, text: str) -> None:
    write_text(args.out or getattr(args, "default_out", None) or sys.stdout, text)


def _clusters_for(args, a):
    """Clustering honoring --cluster/--order declarations; without --cluster,
    --order names the order of the cluster whose rank test is ambiguous."""
    cluster = getattr(args, "cluster", None)
    if args.order is None:
        return cluster_spectrum(a, args.tol_cluster)
    if cluster is not None:
        return cluster_spectrum(a, args.tol_cluster,
                                declared_orders={cluster: args.order})
    try:
        cluster_spectrum(a, args.tol_cluster)
    except AmbiguousOrderError as err:
        if err.cluster_index is None:
            raise
        return cluster_spectrum(a, args.tol_cluster,
                                declared_orders={err.cluster_index: args.order})
    raise ValueError("--order needs --cluster or an ambiguous cluster; "
                     "the order of every cluster here is unambiguous")


def _cmd_srs(args) -> int:
    a = load_matrix(args.matrix)
    clusters = _clusters_for(args, a)
    if args.cluster is not None:
        if not 0 <= args.cluster < len(clusters):
            raise ValueError(
                f"cluster index {args.cluster} out of range 0..{len(clusters) - 1}")
        cluster = clusters[args.cluster]
    else:
        cluster = max(clusters, key=lambda c: c.order)
    contour = default_contour(a, cluster, radius=args.rc, nodes=args.nodes)
    report = xi_residue(a, cluster, contour)
    _emit(args, json.dumps(report.to_json()) + "\n")
    return 0 if report.converged else 2


def _cmd_fig2(args) -> int:
    table = experiments.fig2_table(args.d_min, args.d_max, args.eps)
    _emit(args, table.to_csv())
    return 0


def _cmd_fig3(args) -> int:
    table = experiments.fig3_table(args.eps_min, args.eps_max, args.detuning)
    _emit(args, table.to_csv())
    return 0


def _cmd_fig4(args) -> int:
    out = args.out or args.default_out
    sidecar = os.path.splitext(out)[0] + ".json"
    if sidecar == out:
        raise ValueError(f"--out {out} is the path of the separatrix sidecar; "
                         "give the CSV another extension than .json")
    frame = None
    if args.window:
        frame = ((args.window[0], args.window[1]), (args.window[2], args.window[3]))
    grid, c_star = experiments.fig4_grid(args.detuning, frame, args.resolution,
                                         (args.c_lo, args.c_hi))
    grid.write_csv(out)
    write_text(sidecar, json.dumps({"separatrix_c": c_star}) + "\n")
    sys.stdout.write(f"separatrix_c = {c_star:.4f} ({out}, {sidecar})\n")
    return 0


def _cmd_fig5(args) -> int:
    table = experiments.fig5_table(args.d_min, args.d_max, args.rc, args.eta, args.seed)
    _emit(args, table.to_csv())
    return 0


_VALUES_USAGE = 'scan spec needs "values": [..] or {"geomspace": [lo, hi, n]}'


def _scan_values(spec: dict) -> list[float]:
    values = spec.get("values")
    geomspace = isinstance(values, dict) and "geomspace" in values
    if geomspace:
        values = values["geomspace"]
    if not isinstance(values, list) or (geomspace and len(values) != 3):
        raise ValueError(_VALUES_USAGE)
    try:
        if geomspace:
            lo, hi, num = values
            return [float(v) for v in np.geomspace(float(lo), float(hi), int(num))]
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{_VALUES_USAGE}: {exc}") from exc


def _cmd_scan_surface(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("scan spec must be a JSON object")
    base, vary = spec["base"], spec["vary"]
    if not isinstance(base, dict) or not isinstance(vary, str):
        raise ValueError('scan spec needs "base": {parameter: value, ..} and '
                         '"vary": "<parameter>"')
    try:
        order, compensate = int(spec["order"]), int(spec.get("compensate", 1))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f'scan spec "order" and "compensate" must be integers: '
                         f"{exc}") from exc
    params_cls = ToyModelParams if args.model == "toy" else ChiralityModelParams
    build = toy_h0 if args.model == "toy" else chirality_h0
    values = _scan_values(spec)
    # built before the scan, which would turn a spec the model rejects (an
    # unknown key, a bad value) into NaN rows instead of an input error
    h0 = {v: build(params_cls.from_dict({**base, vary: v})) for v in values}

    table = surface_scan(h0.__getitem__, values, order,
                         compensate_power=compensate,
                         tolerance=args.tol_cluster,
                         nodes=args.nodes, radius=args.rc)
    _emit(args, table.to_csv())
    return 0


def _cmd_petermann(args) -> int:
    a = load_matrix(args.matrix)
    records_to_csv(petermann_records(a), args.out or sys.stdout)
    return 0


def _cmd_decompose(args) -> int:
    a = load_matrix(args.matrix)
    clusters = _clusters_for(args, a)
    deco = spectral_decomposition(a, clusters)
    payload = {"clusters": []}
    for cluster, proj, nils in zip(deco.clusters, deco.projectors,
                                   deco.nilpotent_powers):
        lam = complex(cluster.eigenvalue)
        payload["clusters"].append({
            "eigenvalue": [lam.real, lam.imag],
            "multiplicity": cluster.algebraic_multiplicity,
            "order": cluster.order,
            "projector": matrix_to_json(proj),
            "nilpotent_powers": [matrix_to_json(n) for n in nils],
        })
    _emit(args, json.dumps(payload) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except EpsrsError as exc:
        print(f"epsrs: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"epsrs: input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
