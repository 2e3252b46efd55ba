"""epsrs benchmark: oracle-checked goodput on four workloads.

    python3 perfbench/run.py --workload dense-ep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/run.py --self-test                  # corrupted results must fail

Run from the root of a checkout. Each workload runs in a fresh child
process (worker.py) with BLAS pinned to one thread, EPSRS_THREADS unset and
an address-space limit, importing epsrs from ``src/`` of this checkout only.
``setup_s`` is the median of several cold ``import epsrs`` in fresh
interpreters. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); a self-describing record
of the run goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("model-srs", "dense-ep", "dense-decompose", "fig4-separatrix")

SETUP_RUNS = 5
ADDRESS_SPACE_LIMIT = 3 << 30     # bytes; a runaway quadrature hits MemoryError
RUN_BUDGET_S = 170.0              # one workload, set-up included
LIMIT_FACTOR = 4                  # a run far slower than sized stops early
LIMIT_MARGIN_S = 30.0

IMPORT_PROBE = (
    "import json, time\n"
    "t = time.perf_counter()\n"
    "import epsrs\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'s': t, 'file': epsrs.__file__}))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EPSRS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def from_checkout(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def setup_times(env) -> list[float]:
    """Cold ``import epsrs`` in fresh interpreters; the first run is discarded
    because it may compile the bytecode cache."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import epsrs failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not from_checkout(probe["file"]):
            raise RuntimeError(f"epsrs imported from {probe['file']}, not from {SRC}")
        if i:
            samples.append(probe["s"])
    return samples


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, env, started) -> dict:
    setup = setup_times(env)
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    # the worker's safety stop leaves room for input building, one last
    # round and the report inside the budget
    limit = max(1.0, min(LIMIT_FACTOR * seconds, budget - LIMIT_MARGIN_S))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--limit-s", f"{limit:.1f}", "--src", SRC, "--scratch", scratch]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=budget, preexec_fn=_limit_address_space)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = result.pop("detail")
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "blas_env": {k: env[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "address_space_limit_mb": ADDRESS_SPACE_LIMIT >> 20,
        "setup_samples_s": setup, **result, "detail": detail,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    record["record_file"] = path
    return record


def show(record: dict) -> None:
    d = record["detail"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} ops, {record['failed']} failed "
          f"(fail_frac {record['failed'] / max(1, record['attempted']):.4f}), "
          f"{d['rounds']} rounds, inputs sha256 {d['input_digest'][:16]}")
    if d["causes"]:
        print("   failures: " + ", ".join(f"{k} {v}" for k, v in sorted(d["causes"].items())))
    for key, m in record["metrics"].items():
        print(f"   {key:32s} {m['value']:.6g} {m['unit']}")
    if "tail_pct" in d:
        print(f"   op_ms_tail is p{d['tail_pct']:g} of {d['n_good']} good ops "
              f"({d['tail_beyond']} beyond)")
    print(f"   record: {record['record_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that corrupted results are counted as failed")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "epsrs", "__init__.py")):
        print(f"run.py: no epsrs sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("run.py: --seconds must be >= 1", file=sys.stderr)
        return 2
    env = child_env()
    if args.self_test:
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py"),
                               "--src", SRC], env=env, cwd=ROOT).returncode

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            start = started if len(names) == 1 else time.monotonic()
            records.append(run_workload(name, args.seed, args.seconds, args.trace, env,
                                        start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    for record in records:
        show(record)
    if len(records) == 1:
        r = records[0]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": m for r in records
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
