"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` replaces the
public functions of each ``l2x`` module with timing wrappers in every
module namespace that looks the name up, patches a few methods on their
classes, and puts everything back on exit.

Two kinds of record are kept, both in memory until the run ends:

* spans, one per call at a layer boundary: name, start, end, parent span
  and a few attributes (rows, method, path size);
* counters for the calls too numerous to keep one by one: every autodiff
  op (forward time and node count per op tag) and every vector-Jacobian
  product (backward time per op tag).  Each node's vjp closure is wrapped
  when the node is created, so backward time lands on the op tag and on
  the span that built the node.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# ops not wrapped although listed in autodiff.__all__: leaves and drivers
_NOT_OPS = {"constant", "parameter", "backward", "finite_diff_check"}

# span name -> pipeline stage it belongs to (outermost stage span wins)
STAGES = {
    "datasets.generate": "data",
    "datasets.as_arrays": "data",
    "datasets.read_csv": "data",
    "datasets.write_csv": "data",
    "training.train_classifier": "classifier",
    "training.train_l2x": "selector",
    "explain.dataset": "explain",
    "metrics.ranks_for": "evaluate",
    "metrics.posthoc_for": "evaluate",
    "metrics.median_rank": "evaluate",
    "metrics.post_hoc_accuracy": "evaluate",
    "networks.save": "artifacts",
    "networks.load": "artifacts",
    "training.write_curve_csv": "artifacts",
    "explain.write_jsonl": "artifacts",
    "explain.read_jsonl": "artifacts",
    "metrics.write_ranks_csv": "artifacts",
    "pipeline.write_json": "artifacts",
}
STAGE_NAMES = ("data", "classifier", "selector", "explain", "evaluate", "artifacts")

# (defining module, function, span name); patched wherever the name is bound
FUNCTIONS = (
    ("l2x.autodiff", "backward", "autodiff.backward"),
    ("l2x.sampling", "batched_relaxed_mask", "sampling.relaxed_mask"),
    ("l2x.sampling", "gumbel_from_uniform", "sampling.gumbel"),
    ("l2x.sampling", "hard_top_k", "sampling.hard_top_k"),
    ("l2x.training", "train_classifier", "training.train_classifier"),
    ("l2x.training", "train_l2x", "training.train_l2x"),
    ("l2x.training", "write_curve_csv", "training.write_curve_csv"),
    ("l2x.pipeline", "explain_dataset", "explain.dataset"),
    ("l2x.pipeline", "ranks_for", "metrics.ranks_for"),
    ("l2x.pipeline", "posthoc_for", "metrics.posthoc_for"),
    ("l2x.pipeline", "write_json", "pipeline.write_json"),
    ("l2x.metrics", "median_rank", "metrics.median_rank"),
    ("l2x.metrics", "post_hoc_accuracy", "metrics.post_hoc_accuracy"),
    ("l2x.metrics", "write_ranks_csv", "metrics.write_ranks_csv"),
    ("l2x.networks", "save_model", "networks.save"),
    ("l2x.networks", "load_model", "networks.load"),
    ("l2x.explain", "write_jsonl", "explain.write_jsonl"),
    ("l2x.explain", "read_jsonl", "explain.read_jsonl"),
    ("l2x.datasets", "generate", "datasets.generate"),
    ("l2x.datasets", "as_arrays", "datasets.as_arrays"),
    ("l2x.datasets", "write_csv", "datasets.write_csv"),
    ("l2x.datasets", "read_csv", "datasets.read_csv"),
    ("l2x.cli", "main", "cli.main"),
)

# (defining module, class, method, span name)
METHODS = (
    ("l2x.training", "RmsProp", "step", "training.rmsprop_step"),
    ("l2x.networks", "Mlp", "forward_tensor", "networks.forward_tensor"),
    ("l2x.networks", "Mlp", "forward", "networks.forward"),
)

# spans whose ``path`` argument names a file whose size is recorded
_PATH_SPANS = (
    "networks.save", "networks.load", "explain.write_jsonl", "explain.read_jsonl",
    "datasets.write_csv", "datasets.read_csv",
)

# spans that read their call's arguments; binding them costs microseconds per call
_ARG_SPANS = ("explain.dataset", "cli.main", "autodiff.backward", "training.train_l2x",
              "networks.forward", "networks.forward_tensor")

# node tags whose gradients are discarded while only the variational net trains
_DISCARDED_IN_WARMUP = ("networks.forward_tensor.explainer", "sampling.relaxed_mask")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patches l2x on ``install()``; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.fwd_s: dict[str, float] = defaultdict(float)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)
        self.vjp_s = 0.0
        self.matmul_flop = 0
        self.matmul_bytes = 0
        self.warmup_bwd_s = 0.0
        self.warmup_discarded_bwd_s = 0.0
        self._warmup = False

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def recording(self):
        """Record one iteration under a root span; yields the root's index."""
        self.reset_counters()
        self.enabled = True
        index = self._open("iteration", {})
        try:
            yield index
        finally:
            self._close(index)
            self.enabled = False

    def _current(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        import l2x.autodiff as ad

        modules = [m for n, m in sorted(sys.modules.items()) if n == "l2x" or n.startswith("l2x.")]
        for name in ad.__all__:
            fn = getattr(ad, name, None)
            if inspect.isfunction(fn) and name not in _NOT_OPS:
                self._patch_everywhere(modules, fn, self._op_wrapper(fn))
        for module_name, name, span_name in FUNCTIONS:
            fn = getattr(sys.modules[module_name], name, None)
            if fn is not None:
                self._patch_everywhere(modules, fn, self._span_wrapper(fn, span_name))
        for module_name, cls_name, name, span_name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            fn = getattr(cls, name, None) if cls is not None else None
            if fn is not None:
                self._undo.append((cls, name, fn))
                setattr(cls, name, self._span_wrapper(fn, span_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch_everywhere(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _op_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def op(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            tag = out.op
            tracer.fwd_s[tag] += dt
            tracer.nodes[tag] += 1
            if tag == "matmul":
                m, k = out.parents[0].shape
                n = out.shape[1]
                tracer.matmul_flop += 2 * m * k * n
                tracer.matmul_bytes += 8 * (m * k + k * n + m * n)
            if out._vjp is not None:
                out._vjp = tracer._timed_vjp(out, tracer._current())
            return out

        return op

    def _timed_vjp(self, node, creator: str):
        vjp, tag = node._vjp, node.op
        discarded = creator in _DISCARDED_IN_WARMUP
        if tag == "matmul":
            (m, k), n = node.parents[0].shape, node.shape[1]
            flop, nbytes = 4 * m * k * n, 16 * (m * k + k * n + m * n)
        else:
            flop = nbytes = 0
        tracer = self

        def timed(g):
            t0 = time.perf_counter()
            out = vjp(g)
            dt = time.perf_counter() - t0
            tracer.bwd_s[tag] += dt
            tracer.vjp_s += dt
            tracer.matmul_flop += flop
            tracer.matmul_bytes += nbytes
            if tracer._warmup:
                tracer.warmup_bwd_s += dt
                if discarded:
                    tracer.warmup_discarded_bwd_s += dt
            return out

        return timed

    def _span_wrapper(self, fn, span_name: str):
        tracer = self
        signature = inspect.signature(fn)
        has_path = span_name in _PATH_SPANS
        needs_args = has_path or span_name in _ARG_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments if needs_args else {}
            name, attrs = span_name, {}
            if span_name.startswith("networks.forward"):
                name = f"{span_name}.{args[0].kind}"
                data = getattr(bound["x"], "data", bound["x"])
                attrs["rows"] = 1 if data.ndim == 1 else len(data)
            elif span_name == "explain.dataset":
                attrs["method"] = bound.get("method")
                attrs["rows"] = len(bound.get("x"))
            elif span_name == "cli.main":
                argv = bound.get("argv") or [""]
                attrs["command"] = argv[0]
            elif span_name == "autodiff.backward":
                params = bound.get("params")
                names = params.names() if params is not None else []
                # warmup: the variational net alone is being updated
                tracer._warmup = bool(names) and all(n.startswith("variational.") for n in names)
                attrs["vjp_s_before"] = tracer.vjp_s
            elif span_name == "training.train_l2x":
                attrs["warmup_epochs"] = bound["config"].warmup_epochs
            index = tracer._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if span_name == "autodiff.backward":
                    attrs["vjp_s"] = tracer.vjp_s - attrs.pop("vjp_s_before")
                    tracer._warmup = False
            if has_path:
                attrs["bytes"] = os.path.getsize(bound["path"])
            if span_name in ("training.train_classifier", "training.train_l2x"):
                report = out[-1]
                attrs["epoch_s"] = [stat.wall_ms / 1e3 for stat in report.curve]
            return out

        return wrapper

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, attrs]``."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.attrs]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


OP_TAGS = (
    "matmul", "add_bias", "relu", "softmax", "mul", "maximum", "log",
    "neg", "sum", "mean", "max", "expand", "add",
)
ROLES = ("classifier", "explainer", "variational")
METHOD_NAMES = ("l2x", "saliency", "taylor")
CLI_COMMANDS = ("generate", "explain", "evaluate")


def _ancestor(spans: list[Span], index: int, names) -> Span | None:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return spans[parent]
        parent = spans[parent].parent
    return None


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer numbers for the traced iteration whose span index is ``root``.

    Times are seconds summed over the iteration; counts are exact.  The
    autodiff counters must have been reset when the iteration began.
    """
    spans = tracer.spans
    mine = range(root + 1, len(spans))
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in mine:
        by_name[spans[i].name].append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    m: dict[str, float] = {}
    for tag in OP_TAGS:
        m[f"autodiff.fwd_s.{tag}"] = tracer.fwd_s.get(tag, 0.0)
        m[f"autodiff.bwd_s.{tag}"] = tracer.bwd_s.get(tag, 0.0)
        m[f"autodiff.nodes.{tag}"] = tracer.nodes.get(tag, 0)
    matmul_s = tracer.fwd_s.get("matmul", 0.0) + tracer.bwd_s.get("matmul", 0.0)
    m["autodiff.matmul_gflop"] = tracer.matmul_flop / 1e9
    m["autodiff.matmul_mb"] = tracer.matmul_bytes / 1e6
    m["autodiff.matmul_gflops"] = tracer.matmul_flop / 1e9 / matmul_s if matmul_s else 0.0
    m["autodiff.backward_s"] = total("autodiff.backward")
    m["autodiff.backward_calls"] = count("autodiff.backward")
    m["autodiff.backward_self_s"] = m["autodiff.backward_s"] - attr_sum("autodiff.backward", "vjp_s")

    for role in ROLES:
        m[f"networks.forward_tensor_s.{role}"] = total(f"networks.forward_tensor.{role}")
        m[f"networks.forward_s.{role}"] = total(f"networks.forward.{role}")
    graphs = [
        i for i in by_name.get("autodiff.backward", ())
        if _ancestor(spans, i, ("explain.dataset",)) is not None
    ]
    m["networks.rows_evaluated.classifier"] = (
        attr_sum("networks.forward.classifier", "rows")
        + attr_sum("networks.forward_tensor.classifier", "rows")
        + len(graphs)
    )
    m["networks.save_s"] = total("networks.save")
    m["networks.load_s"] = total("networks.load")
    m["networks.checkpoint_bytes"] = attr_sum("networks.save", "bytes") + attr_sum("networks.load", "bytes")

    m["sampling.relaxed_mask_s"] = total("sampling.relaxed_mask")
    m["sampling.relaxed_mask_calls"] = count("sampling.relaxed_mask")
    m["sampling.gumbel_s"] = total("sampling.gumbel")
    m["sampling.hard_top_k_s"] = total("sampling.hard_top_k")
    m["sampling.hard_top_k_calls"] = count("sampling.hard_top_k")

    clf_epochs = [e for i in by_name.get("training.train_classifier", ()) for e in spans[i].attrs["epoch_s"]]
    warm, joint = [], []
    for i in by_name.get("training.train_l2x", ()):
        n_warm = spans[i].attrs["warmup_epochs"]
        warm += spans[i].attrs["epoch_s"][:n_warm]
        joint += spans[i].attrs["epoch_s"][n_warm:]
    m["training.classifier_epoch_s"] = sum(clf_epochs) / len(clf_epochs) if clf_epochs else 0.0
    m["training.selector_warmup_epoch_s"] = sum(warm) / len(warm) if warm else 0.0
    m["training.selector_joint_epoch_s"] = sum(joint) / len(joint) if joint else 0.0
    m["training.steps"] = count("training.rmsprop_step")
    m["training.rmsprop_s"] = total("training.rmsprop_step")
    m["training.warmup_discarded_bwd_share"] = (
        tracer.warmup_discarded_bwd_s / tracer.warmup_bwd_s if tracer.warmup_bwd_s else 0.0
    )

    m["explain.graphs_built"] = len(graphs)
    for method in METHOD_NAMES:
        m[f"explain.method_s.{method}"] = sum(
            spans[i].duration for i in by_name.get("explain.dataset", ())
            if spans[i].attrs["method"] == method
        )
    m["explain.write_jsonl_s"] = total("explain.write_jsonl")
    m["explain.read_jsonl_s"] = total("explain.read_jsonl")
    m["explain.jsonl_bytes"] = attr_sum("explain.write_jsonl", "bytes") + attr_sum("explain.read_jsonl", "bytes")

    m["metrics.median_rank_s"] = total("metrics.median_rank")
    m["metrics.post_hoc_s"] = total("metrics.post_hoc_accuracy")
    m["metrics.write_ranks_csv_s"] = total("metrics.write_ranks_csv")

    m["datasets.generate_s"] = total("datasets.generate")
    m["datasets.as_arrays_s"] = total("datasets.as_arrays")
    m["datasets.write_csv_s"] = total("datasets.write_csv")
    m["datasets.read_csv_s"] = total("datasets.read_csv")
    m["datasets.csv_bytes"] = attr_sum("datasets.write_csv", "bytes") + attr_sum("datasets.read_csv", "bytes")

    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = sum(
            spans[i].duration for i in by_name.get("cli.main", ())
            if spans[i].attrs["command"] == command
        )

    stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
    for i in mine:
        stage = STAGES.get(spans[i].name)
        if stage is not None and _ancestor(spans, i, STAGES) is None:
            stage_s[stage] += spans[i].duration
    for stage in STAGE_NAMES:
        m[f"pipeline.stage_s.{stage}"] = stage_s[stage]
    m["pipeline.unaccounted_s"] = spans[root].duration - sum(stage_s.values())
    return m
