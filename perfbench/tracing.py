"""Spans and counters recorded at the package's layer boundaries, from outside.

The tracer replaces public functions of ``burstrecon`` with wrappers, in every
module namespace that holds them, and puts the originals back afterwards.
Nothing inside ``src/`` changes.

* Span functions (command, sampler, ball enumeration, decoders, classifier,
  candidate expansion, exhaustive overlap) get one span per call: id, parent,
  operation id, name, start, end.
* Hot leaf functions (``apply_burst_*``, ``is_deletion_descendant``,
  ``format_word``, ``parse_word`` and the closed forms) get a call count and
  summed time per (function, enclosing span name); a closed form called by
  another closed form is not counted twice.

Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from types import ModuleType

# (module, function, span name) of the functions that get one span per call
SPAN_FUNCTIONS = (
    ("cli", "main", "cli"),
    ("channel", "sample_distinct_outputs", "channel.sample"),
    ("balls", "enumerate_deletion_ball", "balls.enumerate_deletion"),
    ("balls", "enumerate_insertion_ball", "balls.enumerate_insertion"),
    ("balls", "max_intersection_exhaustive", "balls.overlap"),
    ("reconstruct", "reconstruct_from_insertions", "reconstruct.ins"),
    ("reconstruct", "reconstruct_from_deletions", "reconstruct.del"),
    ("reconstruct", "classify_first_symbol", "reconstruct.classify"),
    ("reconstruct", "candidate_expansion", "reconstruct.candidates"),
)

# (module, function, counter name) of the hot functions that get counts only
LEAF_FUNCTIONS = (
    ("channel", "apply_burst_insertion", "channel.apply_burst"),
    ("channel", "apply_burst_deletion", "channel.apply_burst"),
    ("balls", "is_deletion_descendant", "balls.membership"),
    ("sequences", "format_word", "sequences.format"),
    ("sequences", "parse_word", "sequences.parse"),
)

CLOSED_FORMS = (
    "ins_ball_size",
    "ins_intersection_max",
    "ins_recurrence_check",
    "del_ball_max",
    "del_intersection_max_binary",
    "del_intersection_threshold",
    "del_intersection_lower_bound",
    "sphere_packing_bound",
    "count_centers_by_radius1_ball_size",
)

_ID, _PARENT, _OP, _NAME, _START, _END, _LEAF_S, _BURSTS, _INFO = range(9)


class Tracer:
    """Records spans and leaf counters while installed on the package."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.modules = [
            getattr(package, name)
            for name in ("channel", "cli", "reconstruct", "balls", "combinatorics", "sequences")
        ] + [package]
        self.spans: list[list] = []
        self.stack: list[list] = []
        # (leaf name, enclosing span name) -> [calls, seconds, weight]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.op_id = 0
        self._in_leaf = False
        self._saved: list[tuple[ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in SPAN_FUNCTIONS:
            original = getattr(getattr(self.package, module_name), attr, None)
            if original is not None:
                self._replace(original, self._span_wrapper(span_name, original))
        for module_name, attr, leaf_name in LEAF_FUNCTIONS:
            original = getattr(getattr(self.package, module_name), attr, None)
            if original is not None:
                self._replace(original, self._leaf_wrapper(leaf_name, original))
        for attr in CLOSED_FORMS:
            original = getattr(self.package.combinatorics, attr, None)
            if original is not None:
                self._replace(original, self._leaf_wrapper("combinatorics", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, original, wrapper) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, func):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            label = f"cli.{args[0][0]}" if name == "cli" else name
            record = [len(spans), parent[_ID] if parent else -1, self.op_id, label, clock(), 0.0, 0.0, 0, None]
            spans.append(record)
            stack.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            record[_INFO] = _span_info(label, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, func):
        clock = time.perf_counter
        stack, leaves = self.stack, self.leaves

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return func(*args, **kwargs)
            self._in_leaf = True
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._in_leaf = False
                top = stack[-1] if stack else None
                entry = leaves[(name, top[_NAME] if top else "")]
                entry[0] += 1
                entry[1] += elapsed
                if top is not None:
                    top[_LEAF_S] += elapsed
                    if name == "channel.apply_burst":
                        top[_BURSTS] += 1
            if name == "sequences.format":
                entry[2] += len(args[0])
            elif name == "sequences.parse":
                entry[2] += len(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals of the recorded spans and counters, per traced round."""
        total = defaultdict(float)
        children = defaultdict(float)
        for record in self.spans:
            if record[_PARENT] >= 0:
                children[record[_PARENT]] += record[_END] - record[_START]
        for record in self.spans:
            name, duration, info = record[_NAME], record[_END] - record[_START], record[_INFO]
            parent_name = self.spans[record[_PARENT]][_NAME] if record[_PARENT] >= 0 else ""
            if name == "channel.sample":
                total["channel.sample_s"] += duration
                if info is not None:
                    kept, t = info
                    total["outputs_kept"] += kept
                    total["traces_drawn"] += record[_BURSTS] / t if t else 0
            elif name == "balls.enumerate_deletion" or name == "balls.enumerate_insertion":
                total["balls.enumerate_s"] += duration
                total["balls.enumerated_words"] += info or 0
                if parent_name == "channel.sample":
                    total["channel.feasibility_s"] += duration
            elif name == "balls.overlap":
                total["balls.overlap_s"] += duration
            elif name == "reconstruct.ins":
                total["reconstruct.ins_s"] += duration
            elif name == "reconstruct.del":
                if info is not None:
                    total["reconstruct.del_phase1_s"] += info[0]
                    total["reconstruct.del_phase2_s"] += info[1]
                    total["del_decodes"] += 1
            elif name == "reconstruct.classify":
                total["reconstruct.classify_calls"] += 1
                total["reconstruct.classify_s"] += duration
            elif name == "reconstruct.candidates":
                total["reconstruct.phase2_candidates"] += info or 0
            elif name in ("cli.simulate", "cli.reconstruct"):
                self_s = duration - children[record[_ID]] - record[_LEAF_S]
                total[f"{name}_self_s"] += self_s
        for (leaf, parent_name), (calls, seconds, weight) in self.leaves.items():
            if leaf == "channel.apply_burst" and parent_name == "channel.sample":
                total["channel.bursts_applied"] += calls
            elif leaf == "balls.membership" and parent_name == "reconstruct.del":
                total["balls.membership_calls"] += calls
                total["balls.membership_s"] += seconds
            elif leaf == "sequences.format":
                total["sequences.format_s"] += seconds
                total["sequences.symbols"] += weight
            elif leaf == "sequences.parse":
                total["sequences.parse_s"] += seconds
                total["sequences.symbols"] += weight
            elif leaf == "combinatorics":
                total["combinatorics.calls"] += calls
                total["combinatorics.s"] += seconds
        kept, drawn = total.pop("outputs_kept", 0.0), total.pop("traces_drawn", 0.0)
        decodes = total.pop("del_decodes", 0.0)
        candidates = total.get("reconstruct.phase2_candidates", 0.0)
        metrics = {name: total.get(name, 0.0) / rounds for name in TRACED_TOTALS}
        metrics["channel.draw_yield"] = kept / drawn if drawn else 0.0
        metrics["reconstruct.phase2_yield"] = decodes / candidates if candidates else 0.0
        return metrics

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, then the leaf counters."""
        fields = ("id", "parent", "op", "name", "start", "end")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(fields, record[:6]))) + "\n")
            for (leaf, parent_name), (calls, seconds, weight) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": leaf, "under": parent_name, "calls": calls,
                                     "seconds": seconds, "weight": weight}) + "\n")


def _span_info(label, args, kwargs, result):
    """What a span keeps besides its times: sizes read from arguments and results."""
    if label == "channel.sample":
        t = args[2] if len(args) > 2 else kwargs["t"]
        return (len(result.outputs), t)
    if label.startswith("balls.enumerate"):
        return len(result)
    if label == "reconstruct.del":
        return (getattr(result, "phase1_seconds", 0.0), getattr(result, "phase2_seconds", 0.0))
    if label == "reconstruct.candidates":
        return len(result)
    return None


# per-layer metrics: name, unit, better.  Every traced run reports all of them,
# as totals per traced round; a layer a workload never reaches reads 0.
PER_LAYER = (
    ("channel.sample_s", "s", "lower"),
    ("channel.bursts_applied", "count", "lower"),
    ("channel.draw_yield", "ratio", "higher"),
    ("channel.feasibility_s", "s", "lower"),
    ("reconstruct.del_phase1_s", "s", "lower"),
    ("reconstruct.del_phase2_s", "s", "lower"),
    ("reconstruct.phase2_candidates", "count", "lower"),
    ("reconstruct.phase2_yield", "ratio", "higher"),
    ("reconstruct.ins_s", "s", "lower"),
    ("reconstruct.classify_calls", "count", "lower"),
    ("reconstruct.classify_s", "s", "lower"),
    ("balls.membership_calls", "count", "lower"),
    ("balls.membership_s", "s", "lower"),
    ("balls.enumerate_s", "s", "lower"),
    ("balls.enumerated_words", "count", "lower"),
    ("balls.overlap_s", "s", "lower"),
    ("sequences.format_s", "s", "lower"),
    ("sequences.parse_s", "s", "lower"),
    ("sequences.symbols", "count", "lower"),
    ("cli.simulate_self_s", "s", "lower"),
    ("cli.reconstruct_self_s", "s", "lower"),
    ("cli.verify.ins_oracle_ms", "ms", "lower"),
    ("cli.verify.del_oracle_ms", "ms", "lower"),
    ("cli.verify.roundtrip_ms", "ms", "lower"),
    ("cli.verify.closed_form_ms", "ms", "lower"),
    ("cli.verify_rows_true", "count", "higher"),
    ("cli.verify_rows_skip", "count", "lower"),
    ("combinatorics.calls", "count", "lower"),
    ("combinatorics.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

_NOT_TRACED = ("channel.draw_yield", "reconstruct.phase2_yield", "trace.overhead")
TRACED_TOTALS = tuple(
    name for name, _, _ in PER_LAYER if not name.startswith("cli.verify") and name not in _NOT_TRACED
)
