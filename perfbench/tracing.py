"""Spans around the calls the benchmark makes into cvsteer, kept in memory.

The tracer patches public functions in every loaded ``cvsteer`` module
namespace, so calls between modules (``fit_efficiency`` calling
``build_epr_source``) are recorded too.  Nothing inside the package changes;
:meth:`Tracer.restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter_ns

# (module, function, span name); measure_campaign is split by dark noise.
TRACED = (
    ("gaussian", "build_epr_source", "gaussian.build_epr_source"),
    ("sampler", "measure_campaign", "sampler.measure_campaign"),
    ("loss_model", "fit_efficiency", "loss_model.fit_efficiency"),
    ("reconstruction", "reconstruct", "reconstruction.reconstruct"),
    ("reconstruction", "propagate_errors", "reconstruction.propagate_errors"),
    ("criteria", "criteria_report", "criteria.criteria_report"),
)


def _campaign_span(args, kwargs) -> tuple[str, int]:
    """Span name and sample count (six settings) of a measure_campaign call."""
    n = kwargs.get("n_per_setting", args[1] if len(args) > 1 else 0)
    dark = kwargs.get("dark_noise", args[3] if len(args) > 3 else 0.0)
    name = "sampler.measure_campaign_dark" if dark > 0.0 else "sampler.measure_campaign"
    return name, 6 * n


class Tracer:
    """Span recorder.

    Each span is [name, start_ns, end_ns, parent index, op id, items], where
    items counts the work units of the call (samples for the sampler, else 1).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, namer=None):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span_name, items = namer(args, kwargs) if namer else (name, 1)
            span = [span_name, 0, 0, stack[-1] if stack else -1, tracer.op, items]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    def begin(self, name: str, op: int) -> int:
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, op, 1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def install(self):
        """Patch every TRACED function wherever a cvsteer module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cvsteer" or n.startswith("cvsteer.")]
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"cvsteer.{mod_name}"], fn_name)
            namer = _campaign_span if fn_name == "measure_campaign" else None
            wrapper = self.wrap(original, span_name, namer)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def restore(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def layer_stats(self) -> dict:
        """Per span name: calls, items, inclusive and self time, and each duration (ns).

        Self time is the span's duration minus the time its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = {}
        for k, (name, start, end, _, _, items) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "items": 0, "busy_ns": 0, "self_ns": 0,
                                        "durs": []})
            dur = end - start
            s["calls"] += 1
            s["items"] += items
            s["busy_ns"] += dur
            s["self_ns"] += dur - child_ns[k]
            s["durs"].append(dur)
        return stats

    def dump(self, path, header: dict):
        """Write all spans once, as gzipped JSON: a header plus one list per span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({**header,
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "items"],
                       "names": names,
                       "spans": [[ids[s[0]], *s[1:]] for s in self.spans]},
                      fh, separators=(",", ":"))
