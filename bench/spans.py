"""Spans around the public functions of every ``homprop`` module.

``Tracer.install`` replaces each public function in every namespace that
binds it: its own module (so calls inside the module are seen) and every
module that imported it (for example the ``compose`` that
``homprop.algebra`` imported from ``homprop.linalg``).  A span is named
``<defining module>.<function>`` and records its start, end, parent span
and the id of the benchmark command it ran under.  Spans stay in memory in
flat arrays until ``write`` is called at the end of the run.  A few
functions also feed exact counters (matrix sizes, hits) from their
arguments and results.  Nothing under ``src/`` is modified.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# The homprop modules, less corpus: it runs only in set-up, which is not traced.
LAYERS = ("perm", "term", "graphprop", "presentation", "builtins", "linalg",
          "algebra", "twist", "serialize", "cli")

# Counts that must repeat exactly for a fixed seed; later changes may cite them.
EXACT_COUNTS = ("linalg.compose.mul_ops", "linalg.tensor.entries", "algebra.eval_monomial.calls",
                "graphprop.isomorphic.calls", "presentation.relations_match.calls")
_EXACT = ("linalg.rank", "linalg.inverse_map", "linalg.char_poly")
_HOMIFY = ("presentation.homify_typed", "presentation.homify_multiplicative")


def _nonzero(m) -> int:
    return sum(1 for row in m.entries for v in row if v != 0)


def _count_product(counts: Counter, args, result) -> None:
    f, g = args[0], args[1]
    counts["linalg.compose.mul_ops"] += f.rows * f.cols * g.cols
    counts["linalg.produced"] += result.rows * result.cols
    counts["linalg.produced_nonzero"] += _nonzero(result)


def _count_tensor(counts: Counter, args, result) -> None:
    counts["linalg.tensor.entries"] += result.rows * result.cols
    counts["linalg.produced"] += result.rows * result.cols
    counts["linalg.produced_nonzero"] += _nonzero(result)


def _count_hit(label: str):
    def hook(counts: Counter, args, result) -> None:
        if result:
            counts[label + ".hits"] += 1
    return hook


def _count_bytes(counts: Counter, args, result) -> None:
    counts["serialize.bytes_out"] += len(result.encode())


_HOOKS = {
    "linalg.compose": _count_product,
    "linalg.tensor": _count_tensor,
    "graphprop.isomorphic": _count_hit("graphprop.isomorphic"),
    "presentation.relations_match": _count_hit("presentation.relations_match"),
    "serialize.dumps": _count_bytes,
}


class Tracer:
    """Records spans while installed; ``command`` tags the spans that follow."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.label = array("H")
        self.cmd = array("I")
        self.command = 0
        self.counts: Counter = Counter()
        self.max_entries = 0
        self._stack = [-1]
        self._wrappers: dict = {}
        self._saved: list = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, fn, label: str):
        lid = self._label_id(label)
        hook = _HOOKS.get(label)
        sizes = label.startswith("linalg.")
        clock = time.perf_counter
        start, end, parent, labels, cmd, stack = (
            self.start, self.end, self.parent, self.label, self.cmd, self._stack)
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            labels.append(lid)
            cmd.append(tracer.command)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            if sizes and hasattr(result, "entries"):
                n = result.rows * result.cols
                if n > tracer.max_entries:
                    tracer.max_entries = n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every public homprop function in every homprop namespace."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "homprop" or modname.startswith("homprop.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith("homprop.") or value.__name__.startswith("_"):
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    label = f"{owner.rsplit('.', 1)[1]}.{value.__name__}"
                    wrapper = self._wrappers[value] = self._wrap(value, label)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Spans as one JSON header plus one raw array file per field."""
        path.mkdir(parents=True, exist_ok=True)
        fields = {"start": self.start, "end": self.end, "parent": self.parent,
                  "label": self.label, "cmd": self.cmd}
        for name, arr in fields.items():
            with open(path / f"{name}.bin", "wb") as fh:
                arr.tofile(fh)
        (path / "spans.json").write_text(json.dumps({
            "labels": self.labels,
            "count": len(self),
            "fields": {name: arr.typecode for name, arr in fields.items()},
            "byteorder": sys.byteorder,
        }, indent=1) + "\n")


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread nest, so direct children never overlap each other."""
    own = [e - s for s, e in zip(tracer.start, tracer.end)]
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            own[p] -= tracer.end[i] - tracer.start[i]
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans and counters of one traced pass."""
    own = self_times(tracer)
    counts = tracer.counts
    labels = tracer.labels
    calls: Counter = Counter()
    label_self: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    outer: defaultdict = defaultdict(float)  # inclusive time, outermost spans only
    outer_layer: defaultdict = defaultdict(float)
    for i in range(len(tracer)):
        name = labels[tracer.label[i]]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        label_self[name] += own[i]
        layer_self[layer] += own[i]
        dur = tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        pname = labels[tracer.label[p]] if p >= 0 else ""
        if pname != name:
            outer[name] += dur
        if pname.split(".", 1)[0] != layer:
            outer_layer[name] += dur

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = sum(v for k, v in outer_layer.items()
                if k.startswith("serialize.") and k.endswith("_from_json"))
    dumps = sum(v for k, v in outer_layer.items()
                if k.startswith("serialize.") and (k.endswith("_to_json") or k == "serialize.dumps"))
    out = {
        "linalg.compose.calls": calls["linalg.compose"],
        "linalg.compose.self_s": label_self["linalg.compose"],
        "linalg.compose.mul_ops": counts["linalg.compose.mul_ops"],
        "linalg.tensor.calls": calls["linalg.tensor"],
        "linalg.tensor.self_s": label_self["linalg.tensor"],
        "linalg.tensor.entries": counts["linalg.tensor.entries"],
        "linalg.perm_action.calls": calls["linalg.perm_action"],
        "linalg.perm_action.self_s": label_self["linalg.perm_action"],
        "perm.koszul_sign.calls": calls["perm.koszul_sign"],
        "linalg.nonzero_frac": ratio(counts["linalg.produced_nonzero"], counts["linalg.produced"]),
        "linalg.max_entries": tracer.max_entries,
        "linalg.exact_s": sum(label_self[k] for k in _EXACT),
        "algebra.eval_monomial.calls": calls["algebra.eval_monomial"],
        "algebra.eval_monomial.self_s": label_self["algebra.eval_monomial"],
        "algebra.check_algebra.s": outer["algebra.check_algebra"],
        "algebra.is_morphism.calls": calls["algebra.is_morphism"],
        "algebra.is_morphism.s": outer["algebra.is_morphism"],
        "twist.calls": calls["twist"],
        "twist.self_s": layer_self["twist"],
        "serialize.parse_s": parse,
        "serialize.dumps_s": dumps,
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self["cli"],
        "builtins.calls": calls["builtins"],
        "builtins.build_s": sum(v for k, v in outer_layer.items() if k.startswith("builtins.")),
        "presentation.homify_s": sum(outer[k] for k in _HOMIFY),
        "graphprop.term_to_graph.calls": calls["graphprop.term_to_graph"],
        "graphprop.isomorphic.calls": calls["graphprop.isomorphic"],
        "graphprop.isomorphic.self_s": label_self["graphprop.isomorphic"],
        "graphprop.isomorphic.hit_frac": ratio(counts["graphprop.isomorphic.hits"],
                                               calls["graphprop.isomorphic"]),
        "presentation.relations_match.calls": calls["presentation.relations_match"],
        "presentation.relations_match.hit_frac": ratio(counts["presentation.relations_match.hits"],
                                                       calls["presentation.relations_match"]),
        "presentation.self_s": layer_self["presentation"],
        "term.layerize.calls": calls["term.layerize"],
        "term.substitute.calls": calls["term.substitute"],
        "term.self_s": layer_self["term"],
        "perm.compose.calls": calls["perm.compose"],
    }
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_s", layer_self[layer])
    return out
