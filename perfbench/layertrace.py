"""Outside-in layer tracing for the benchmark.

The tracer wraps the functions that one persistd module calls in another,
from the benchmark's own files: every module attribute bound to a hooked
function (``bottleneck.interval_distance``, ``pmodule.parse_interval``,
``persistd.module_distance``, ...) and hooked methods on their class
(``PModule.__init__``).  Nothing under ``src/`` changes.

Each wrapped call pushes a frame; on return its duration is added to its
parent frame, so every name gets calls, inclusive time and self time.
Coarse layers also keep a span (id, parent span, op id, name, start, end,
self) in memory; leaf calls made tens of thousands of times per op only
aggregate.  Spans are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (defining module, attribute, layer name, keep spans)
HOOKS = (
    ("persistd.interleaving", "interval_distance", "interleaving.interval_distance", False),
    ("persistd.interleaving", "distance_to_zero", "interleaving.distance_to_zero", False),
    ("persistd.interleaving", "are_eps_interleaved", "interleaving.are_eps_interleaved", False),
    ("persistd.intervals", "parse_interval", "intervals.parse_interval", False),
    ("persistd.pmodule", "PModule.__init__", "pmodule.construct", False),
    ("persistd.pmodule", "PModule.radical", "pmodule.radical", True),
    ("persistd.pmodule", "parse_module", "pmodule.parse_module", True),
    ("persistd.bottleneck", "module_distance", "bottleneck.module_distance", True),
    ("persistd.bottleneck", "_cost_tables", "bottleneck.cost_table", True),
    ("persistd.bottleneck", "_matching_at", "bottleneck.probe", True),
    ("persistd.bottleneck", "_hopcroft_karp", "bottleneck.hk", True),
    ("persistd.bottleneck", "distance_certificate", "bottleneck.certificate", True),
    ("persistd.bottleneck", "verify_certificate", "bottleneck.verify_certificate", True),
    ("persistd.bottleneck", "modules_eps_interleaved", "bottleneck.decide", True),
    ("persistd.families", "cube_point_module", "families.generate", True),
    ("persistd.families", "binary_sequence_module", "families.generate", True),
    ("persistd.families", "cauchy_witness", "families.generate", True),
    ("persistd.families", "staircase", "families.generate", True),
    ("persistd.families", "replicate", "families.generate", True),
    ("persistd.families", "open_subset_witness", "families.generate", True),
    ("persistd.verify", "run_suite", "verify.run_suite", True),
    ("persistd.cli", "cli_main", "cli.command", True),
)


def _after_construct(tracer, args, result):
    tracer.counts["pmodule.construct.summands"] += len(args[0])


def _after_run_suite(tracer, args, result):
    tracer.counts["verify.trials"] += sum(r.trials for r in result.results)


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


AFTER = {"pmodule.construct": _after_construct, "verify.run_suite": _after_run_suite}
LABEL = {"cli.command": _cli_label}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start_ns, child_ns, span_id or None]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[dict] = []
        self.ops: dict[int, str] = {}
        self.op_id: int | None = None
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook; a hook whose target is gone is listed in
        ``missing`` instead of failing the run."""
        packages = [m for n, m in sys.modules.items() if n == "persistd" or n.startswith("persistd.")]
        for module_name, attr, layer, keep in HOOKS:
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original, keep)
            if len(path) > 1:
                self._set(owner, path[-1], wrapper, original)
                continue
            for module in packages:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper, original)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _set(self, owner, name, wrapper, original) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def _wrap(self, layer: str, fn, keep: bool):
        stack, calls, total, self_t = self.stack, self.calls, self.total_ns, self.self_ns
        after, label = AFTER.get(layer), LABEL.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(tracer.spans) if keep else None
            if keep:
                tracer.spans.append(None)  # reserve the id; filled on return
            frame = [perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                total[layer] += dur
                self_t[layer] += dur - frame[1]
                if keep:
                    tracer.spans[span_id] = {
                        "id": span_id,
                        "parent": tracer._parent_span(),
                        "op": tracer.op_id,
                        "name": layer,
                        "label": label(args, kwargs) if label else None,
                        "start_ns": frame[0],
                        "end_ns": end,
                        "self_ns": dur - frame[1],
                    }
            if after:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id: int, kind: str, call):
        """Run one benchmark op as a root span; spans under it carry its id."""
        self.op_id = op_id
        self.ops[op_id] = kind
        try:
            return self._wrap("op", call, True)()
        finally:
            self.op_id = None

    # -- output ------------------------------------------------------------

    def ms(self, layer: str) -> float:
        return self.total_ns[layer] / 1e6

    def self_ms(self, layer: str) -> float:
        return self.self_ns[layer] / 1e6

    def per_op(self, layer: str) -> dict[int, int]:
        """How many spans of ``layer`` each op produced."""
        out = defaultdict(int)
        for span in self.spans:
            if span["name"] == layer and span["op"] is not None:
                out[span["op"]] += 1
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "ops": {str(k): v for k, v in self.ops.items()},
            "aggregate": {
                layer: {
                    "calls": self.calls[layer],
                    "total_ns": self.total_ns[layer],
                    "self_ns": self.self_ns[layer],
                }
                for layer in sorted(self.calls)
            },
            "counts": dict(self.counts),
            "missing_hooks": self.missing,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))
