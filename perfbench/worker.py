"""One workload in one fresh process: build inputs, run closed-loop, report.

Started by run.py with BLAS pinned to one thread, an address-space limit and
``src`` on PYTHONPATH. Prints one JSON object as its last stdout line.

The run is divided into rounds, each a fixed, interleaved mix of the
workload's input classes. Ops run one after another (one client, closed
loop) over a fixed number of rounds, ``--seconds`` times the workload's
``rounds_per_s``: the work is sized to take about ``--seconds``, and the
ops attempted and failed depend on the seed and ``--seconds`` alone, never
on how fast the host happened to be. With ``--trace 1`` the rounds
alternate untraced and traced: the traced ones give the per-layer numbers,
the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import struct
import sys
import zlib
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np
import scipy

import epsrs
import tracing
import workloads

TAIL_MIN_BEYOND = 10


def input_digest(rounds) -> str:
    """sha256 over every input and oracle, so two runs can prove equal data."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, complex):
            h.update(struct.pack("<dd", x.real, x.imag))
        elif isinstance(x, (float, int)):
            h.update(struct.pack("<d", float(x)))
        elif isinstance(x, str):
            h.update(x.encode())
        elif isinstance(x, dict):
            for key in sorted(x, key=str):
                feed(key)
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    for rnd in rounds:
        for c in rnd:
            feed((c.label, c.m, c.order, c.data, complex(c.lam), c.xi, c.extra))
    return h.hexdigest()


def blas_info() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded in-process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


class Op(NamedTuple):
    """One finished operation (a tuple, so the collector can untrack it)."""

    label: str
    m: int
    cause: str | None
    ns: int
    stats: dict
    traced: bool
    op_span: int


def _stats(case, res) -> dict:
    if not res:
        return {}
    out = {k: res[k] for k in ("nodes", "converged", "csv_bytes") if k in res}
    if "deco" in res:
        out["clusters"] = len(res["deco"].clusters)
    if "c_star" in res:
        out["c_err"] = abs(res["c_star"] - case.extra["c_star"])
    return out


class Runner:
    def __init__(self, wl, trace: bool):
        self.wl = wl
        self.direct = tracing.Direct()
        self.tracer = tracing.Tracer() if trace else None
        self.op_name = "cli.fig4" if wl.name == "fig4-separatrix" else "op"
        self.ops_started = 0

    def _probe(self, matrix) -> None:
        """One linalg call of each kind per input, outside the op span."""
        for name, fn in (("linalg.eigenvalues", epsrs.eigenvalues),
                         ("linalg.eig", epsrs.eig)):
            try:
                self.tracer(name, fn, matrix)
            except epsrs.EpsrsError:
                pass          # recorded on the span

    def one(self, case, traced: bool) -> Op:
        op_span = -1
        if traced:
            self.tracer.op = self.ops_started
            matrix = case.data if isinstance(case.data, np.ndarray) else \
                workloads.toy_figure_matrix(case.data)
            self._probe(matrix)
            op_span = len(self.tracer.spans)
        self.ops_started += 1
        res = None
        start = perf_counter_ns()
        try:
            if traced:
                cause, res = self.tracer(self.op_name, self.wl.run, case, self.tracer)
            else:
                cause, res = self.wl.run(case, self.direct)
        except MemoryError:
            cause = "memory"
        except epsrs.EpsrsError as exc:
            cause = f"error:{type(exc).__name__}"
        except Exception as exc:          # an untyped error is a counted failure
            cause = f"untyped:{type(exc).__name__}"
        ns = perf_counter_ns() - start
        if cause is None:
            try:
                cause = self.wl.check(case, res)
            except Exception as exc:      # the check could not run: not verified
                cause = f"check_error:{type(exc).__name__}"
        return Op(case.label, case.m, cause, ns, _stats(case, res), traced, op_span)

    def measure(self, rounds, n_rounds: int, limit_s: float):
        """Closed loop over ``n_rounds`` rounds of the deck, cycling through it.

        ``limit_s`` is a safety stop for a program far slower than the one the
        work was sized on: no round starts after it, and the run is marked
        truncated. Returns the rounds' ops and how many inputs that ran more
        than once ended differently (a deterministic program has none).
        """
        trace = self.tracer is not None
        kept: list[list[Op]] = []
        seen: dict[tuple[int, int], str | None] = {}
        unstable = 0
        deadline = perf_counter() + limit_s
        for k in range(n_rounds):
            if kept and perf_counter() >= deadline:
                break
            traced = trace and k % 2 == 1
            ops = []
            for i, case in enumerate(rounds[k % len(rounds)]):
                op = self.one(case, traced)
                ops.append(op)
                key = (k % len(rounds), i)
                if key in seen and seen[key] != op.cause:
                    unstable += 1
                seen[key] = op.cause
            kept.append(ops)
        return kept, unstable


def _rate(ops) -> float:
    good = sum(1 for op in ops if op.cause is None)
    seconds = sum(op.ns for op in ops) / 1e9
    return good / seconds if seconds > 0 else 0.0


def goodput(rounds) -> float:
    """Median over rounds of correct ops per second of op time: every round
    has the same mix, and the median shrugs off a round slowed by the host."""
    return float(np.median([_rate(ops) for ops in rounds]))


def end_to_end(rounds, tail_pct: float) -> tuple[dict, dict]:
    ops = [op for rnd in rounds for op in rnd]
    good_ms = np.sort([op.ns / 1e6 for op in ops if op.cause is None])
    n = len(good_ms)
    detail = {"n_good": n}
    if n == 0:
        return {}, detail
    tail = float(np.percentile(good_ms, tail_pct))
    beyond = int(np.sum(good_ms > tail))
    detail.update(tail_pct=tail_pct, tail_beyond=beyond,
                  tail_supported=beyond >= TAIL_MIN_BEYOND,
                  good_ms_percentiles={str(p): float(np.percentile(good_ms, p))
                                       for p in (50, 90, 99, 99.9)})
    metrics = {
        "good_ops_per_s": (goodput(rounds), "1/s"),
        "good_frac": (n / len(ops), "frac"),
        "op_ms_p50": (float(np.percentile(good_ms, 50)), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, detail


def per_layer_metrics(runner: Runner, rounds) -> dict:
    """Per-layer numbers of the traced rounds.

    Layer times are shares (%) of the traced op time; probe times and counts
    are per traced round, and every round holds the same mix of inputs.
    """
    spans = runner.tracer.spans
    traced_rounds = [rnd for rnd in rounds if rnd[0].traced]
    traced = [op for rnd in traced_rounds for op in rnd]
    per_round = 1.0 / len(traced_rounds)
    op_of_span = {op.op_span: op for op in traced}
    op_ns = sum(spans[op.op_span][2] - spans[op.op_span][1] for op in traced)

    busy: dict[str, int] = {}
    errors: dict[str, int] = {}
    children = tracing.child_ns(spans)
    for i, (name, start, end, parent, _, error) in enumerate(spans):
        key = name
        if name == "response.xi_residue":
            root = i
            while spans[root][3] >= 0:
                root = spans[root][3]
            key = f"{name}.{workloads.size_class(op_of_span[root].m)}"
        busy[key] = busy.get(key, 0) + (end - start)
        if error:
            errors[name] = errors.get(name, 0) + 1
    busy["cli.fig4.self"] = sum(
        spans[op.op_span][2] - spans[op.op_span][1] - children[op.op_span]
        for op in traced if spans[op.op_span][0] == "cli.fig4")

    def share(key):
        return 100.0 * busy.get(key, 0) / op_ns if op_ns else 0.0, "%"

    def round_ms(key):
        return busy.get(key, 0) / 1e6 * per_round, "ms/round"

    def round_count(value, unit="count/round"):
        return value * per_round, unit

    def total(key):
        return sum(op.stats.get(key, 0) for op in traced)

    c_errs = [op.stats["c_err"] for op in traced if "c_err" in op.stats]
    untraced_rate = goodput([rnd for rnd in rounds if not rnd[0].traced])
    traced_rate = goodput(traced_rounds)
    metrics = {
        "linalg.eigvals_ms": round_ms("linalg.eigenvalues"),
        "linalg.eig_ms": round_ms("linalg.eig"),
        "response.cluster_pct": share("response.cluster_spectrum"),
        "response.cluster_miss": round_count(sum(op.cause == "cluster_miss" for op in traced)),
        "response.contour_pct": share("response.default_contour"),
        **{f"response.residue_pct.{size}": share(f"response.xi_residue.{size}")
           for size in ("m4", "m16", "m64", "m256")},
        "response.residue_nodes": round_count(total("nodes")),
        "response.residue_unconverged": round_count(
            sum(op.stats.get("converged") is False for op in traced)),
        "response.resolvent_mb": round_count(
            sum(op.stats.get("nodes", 0) * op.m * op.m * 16 for op in traced) / 1e6,
            "MB/round"),
        "response.decompose_pct": share("response.spectral_decomposition"),
        "response.decompose_clusters": round_count(total("clusters")),
        "response.decompose_failed": round_count(
            errors.get("response.spectral_decomposition", 0)),
        "petermann.records_pct": share("petermann.petermann_records"),
        "petermann.xi_pct": share("petermann.xi_via_petermann"),
        "greens.pseudospectrum_pct": share("greens.pseudospectrum"),
        "greens.svds": round_count(workloads.FIG4_RESOLUTION ** 2 * sum(
            1 for s in spans if s[0] == "greens.pseudospectrum" and not s[5])),
        "greens.separatrix_pct": share("greens.separatrix_level"),
        "greens.separatrix_err": (max(c_errs) if c_errs else 0.0, "log10"),
        "tables.csv_pct": share("tables.write_csv"),
        "tables.csv_mb": round_count(total("csv_bytes") / 1e6, "MB/round"),
        "cli.fig4_self_pct": share("cli.fig4.self"),
        "trace.overhead_frac": (
            1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "frac"),
        "trace.ops": (len(traced), "count"),
    }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit-s", type=float, required=True,
                    help="start no round after this many seconds of the loop")
    ap.add_argument("--src", required=True, help="directory epsrs must come from")
    ap.add_argument("--scratch", required=True, help="directory for output files")
    args = ap.parse_args(argv)

    src = os.path.realpath(args.src)
    if not os.path.realpath(epsrs.__file__).startswith(src + os.sep):
        print(f"epsrs imported from {epsrs.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.scratch)
    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
    t0 = perf_counter()
    rounds = wl.make_rounds(rng)
    digest = input_digest(rounds)
    build_s = perf_counter() - t0

    runner = Runner(wl, bool(args.trace))
    # one untimed op per input class: lazy imports and LAPACK workspaces
    warm = {}
    for case in rounds[0]:
        if case.m <= 16:
            warm.setdefault(case.label, case)
    for case in warm.values():
        runner.one(case, False)
    # inputs live for the whole run: keep them out of the collector's scans
    gc.collect()
    gc.freeze()

    n_rounds = max(1, round(args.seconds * wl.rounds_per_s))
    if args.trace:
        n_rounds = max(2, n_rounds + n_rounds % 2)
    kept, unstable = runner.measure(rounds, n_rounds, args.limit_s)
    ops = [op for rnd in kept for op in rnd]
    causes: dict[str, int] = {}
    classes: dict[str, dict] = {}
    for op in ops:
        row = classes.setdefault(op.label, {"attempted": 0, "good": 0, "ms": 0.0,
                                            "causes": {}})
        row["attempted"] += 1
        row["ms"] += op.ns / 1e6
        if op.cause is None:
            row["good"] += 1
        else:
            causes[op.cause] = causes.get(op.cause, 0) + 1
            row["causes"][op.cause] = row["causes"].get(op.cause, 0) + 1
    failed = sum(causes.values())

    detail = {
        "rounds": len(kept), "rounds_planned": n_rounds,
        "truncated": len(kept) < n_rounds, "rounds_in_deck": len(rounds),
        "unstable_outcomes": unstable, "input_digest": digest,
        "input_build_s": build_s, "causes": causes, "classes": classes,
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "epsrs_file": epsrs.__file__,
    }
    if args.trace:
        metrics = per_layer_metrics(runner, kept)
        detail["layers"] = tracing.per_layer(runner.tracer.spans)
        spans_path = os.path.join(args.scratch, f"{args.workload}.spans.jsonl")
        runner.tracer.write_jsonl(spans_path)
        detail["spans_file"] = spans_path
    else:
        metrics, e2e_detail = end_to_end(kept, wl.tail_pct)
        detail.update(e2e_detail)
    unverified = any(c.startswith("check_error") for c in causes)
    good = len(ops) - failed
    result = {
        "correct": bool(good > 0 and not unverified),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
