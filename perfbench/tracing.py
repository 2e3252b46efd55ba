"""In-memory spans around the benchmark's calls into epsrs.

A span is ``(name, start_ns, end_ns, parent, op, error)``: ``parent`` is the
index of the enclosing span (-1 for an op span), ``op`` the op id shared by
every span of one operation, ``error`` the exception class name or None.
Spans are kept in a list while the run lasts and written as JSON lines at the
end; nothing inside epsrs is patched. A span's layer is its name up to the
first dot (``response.xi_residue`` -> ``response``).
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Direct:
    """The untraced caller: a plain function call."""

    traced = False

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """The traced caller: every call becomes a span under the current op."""

    traced = True

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def __call__(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        error = None
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, error)

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def child_ns(spans) -> list[int]:
    """Summed duration of each span's direct children."""
    out = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] += end - start
    return out


def per_layer(spans) -> dict:
    """Calls, busy time and self time per layer, in milliseconds.

    Busy time counts the outermost span of a layer only (a span nested in a
    span of the same layer adds nothing); self time is a span's duration
    minus the durations of its direct children.
    """
    children = child_ns(spans)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        layer = layer_of(name)
        row = out.setdefault(layer, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        duration = end - start
        row["self_ms"] += (duration - children[i]) / 1e6
        nested = parent >= 0 and layer_of(spans[parent][0]) == layer
        if not nested:
            row["busy_ms"] += duration / 1e6
    return out
