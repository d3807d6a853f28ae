"""Span tracing from outside the program.

`Tracer.install` replaces the public entry points of each polycap module with
wrappers that record a span per call: name, start, end, parent span and
request id, plus counts measured at the same boundary. Spans stay in memory
until the run ends. `uninstall` puts every original back, so untraced runs
execute polycap unmodified.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

# A span is [id, name, start, end, parent id or None, request id, counts dict].
_ID, _NAME, _START, _END, _PARENT, _REQ, _COUNTS = range(7)

# step time outside these direct children is batch preparation
_STEP_PARTS = (
    "model.forward",
    "autodiff.backward",
    "training.loss",
    "training.optimizer",
    "training.specaug",
    "trace.graph_walk",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = "-"
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._linear_roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._models: weakref.WeakSet = weakref.WeakSet()

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.request, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for s in self.spans:
                sink.write(
                    json.dumps(
                        {
                            "id": s[_ID],
                            "name": s[_NAME],
                            "start": s[_START],
                            "end": s[_END],
                            "parent": s[_PARENT],
                            "request": s[_REQ],
                            "counts": s[_COUNTS],
                        }
                    )
                    + "\n"
                )

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around owner.attr. `name` is the span name, or a
        function of the call's arguments giving it (None: record nothing);
        `after(span, args, kwargs, result)` adds counts."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            span = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _register(self, model) -> None:
        """Label the Linear layers whose time belongs to `ff` or `head`."""
        if model in self._models:
            return
        self._models.add(model)
        for layer in model.layers:
            self._linear_roles[layer.w1] = "model.ff"
            self._linear_roles[layer.w2] = "model.ff"
        for head in model.heads.values():
            self._linear_roles[head.classifier] = "model.head"

    def install(self) -> None:
        import polycap
        from polycap import autodiff, cli, corpus, decoding, evaluation, model, text, training

        tracer = self

        # autodiff: the graph walk is its own span so it never counts as backward
        orig_backward = autodiff.Tensor.backward

        @functools.wraps(orig_backward)
        def backward(loss):
            walk = tracer.open("trace.graph_walk")
            nodes, nbytes = graph_size(loss)
            tracer.close(walk)
            walk[_COUNTS].update(nodes=nodes, bytes=nbytes)
            return tracer.call("autodiff.backward", orig_backward, loss)

        self._patch(autodiff.Tensor, "backward", backward)
        self._wrap(autodiff, "gelu", "model.ff")
        self._wrap(autodiff, "embedding", "model.head")

        # model
        def forward_counts(span, args, kwargs, result):
            ids = args[2] if len(args) > 2 else kwargs["target_ids"]
            rows, length = ids.shape
            span[_COUNTS].update(rows=rows, tokens=rows * length)

        def forward_label(args):
            tracer._register(args[0])
            return "model.forward"

        self._wrap(model.MultilingualModel, "forward", forward_label, forward_counts)
        self._wrap(model.MultilingualModel, "encode_audio", "model.frontend")
        self._wrap(
            model.MultiHeadAttention,
            "__call__",
            lambda a: "model.self_attn" if a[1] is a[2] else "model.cross_attn",
        )
        self._wrap(model.LayerNorm, "__call__", "model.norm")
        self._wrap(model.Linear, "__call__", lambda a: tracer._linear_roles.get(a[0]))

        def ckpt_bytes(span, args, kwargs, result):
            span[_COUNTS]["bytes"] = Path(args[1]).stat().st_size

        self._wrap(model, "save_checkpoint", "model.ckpt_save", ckpt_bytes)
        self._wrap(model, "load_checkpoint", "model.ckpt_load")

        # training
        self._wrap(training, "smoothed_cross_entropy", "training.loss")
        self._wrap(training.AdamW, "step", "training.optimizer")
        self._wrap(training, "spec_mask", "training.specaug")

        # decoding: each caption is its own request
        orig_caption = decoding.caption_audio

        @functools.wraps(orig_caption)
        def caption_audio(*args, **kwargs):
            outer = tracer.request
            tracer.request = f"{outer}/{args[2].value}"
            try:
                span = tracer.open("decoding.caption")
                try:
                    result = orig_caption(*args, **kwargs)
                finally:
                    tracer.close(span)
            finally:
                tracer.request = outer
            span[_COUNTS]["words"] = len(result.tokens)
            return result

        self._patch(decoding, "caption_audio", caption_audio)

        # evaluation
        self._wrap(evaluation, "cider_d", "evaluation.cider")

        # text: modules that imported these names hold their own references
        for owner in (polycap, text, cli, corpus, evaluation, training):
            self._wrap(owner, "tokenize", "text.tokenize")
        for owner in (polycap, text, cli):
            self._wrap(owner, "build_vocabulary", "text.vocab_build")
        for owner in (text, cli):
            self._wrap(owner, "load_stopwords", "text.stopwords")

        # corpus
        def embedding_bytes(span, args, kwargs, result):
            span[_COUNTS]["bytes"] = 16 + result.data.nbytes

        self._wrap(corpus, "load_embedding", "corpus.load_embedding", embedding_bytes)
        self._wrap(corpus, "load_manifests", "corpus.manifest")

        # cli
        self._wrap(cli, "write_run_manifest", "cli.run_manifest")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def graph_size(loss) -> tuple[int, int]:
    """Tensors reachable from `loss` through the autodiff graph, and the
    bytes of their data arrays."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


def self_times(spans: list[list]) -> tuple[dict[int, float], dict[int, float]]:
    """Per span: duration, and duration minus the time its child spans cover.
    Spans nest on one thread, so children never overlap one another."""
    duration = {s[_ID]: s[_END] - s[_START] for s in spans}
    own = dict(duration)
    for s in spans:
        if s[_PARENT] is not None:
            own[s[_PARENT]] -= duration[s[_ID]]
    return duration, own


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics per op (step, caption or cycle) from recorded spans."""
    duration, own = self_times(spans)
    by_id = {s[_ID]: s for s in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s[_NAME]] += own[s[_ID]]
        calls[s[_NAME]] += 1
        for key, value in s[_COUNTS].items():
            counts[f"{s[_NAME]}.{key}"] += value

    step_parts = 0.0
    score_s = 0.0
    search_rows = search_tokens = search_forwards = 0
    for s in spans:
        parent = by_id.get(s[_PARENT]) if s[_PARENT] is not None else None
        if parent is not None and parent[_NAME] == "bench.step" and s[_NAME] in _STEP_PARTS:
            step_parts += duration[s[_ID]]
        if s[_NAME] == "model.forward" and _has_ancestor(s, by_id, "decoding.caption"):
            score_s += duration[s[_ID]]
            search_forwards += 1
            search_rows += s[_COUNTS]["rows"]
            search_tokens += s[_COUNTS]["tokens"]
    step_total = sum(duration[s[_ID]] for s in spans if s[_NAME] == "bench.step")
    caption_total = sum(duration[s[_ID]] for s in spans if s[_NAME] == "decoding.caption")
    captions = calls["decoding.caption"]
    backward_calls = calls["autodiff.backward"]

    def per_op(x: float) -> float:
        return x / ops

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    return {
        "autodiff.backward_s": per_op(self_s["autodiff.backward"]),
        "autodiff.graph_nodes": per(counts["trace.graph_walk.nodes"], backward_calls),
        "autodiff.graph_mb": per(counts["trace.graph_walk.bytes"], backward_calls) / 1e6,
        "model.forward_s": per_op(self_s["model.forward"]),
        "model.frontend_s": per_op(self_s["model.frontend"]),
        "model.self_attn_s": per_op(self_s["model.self_attn"]),
        "model.cross_attn_s": per_op(self_s["model.cross_attn"]),
        "model.ff_s": per_op(self_s["model.ff"]),
        "model.norm_s": per_op(self_s["model.norm"]),
        "model.head_s": per_op(self_s["model.head"]),
        "model.forward_calls": per_op(calls["model.forward"]),
        "model.tokens_forwarded": per_op(counts["model.forward.tokens"]),
        "model.ckpt_mb": per_op(counts["model.ckpt_save.bytes"]) / 1e6,
        "model.ckpt_save_s": per_op(self_s["model.ckpt_save"]),
        "model.ckpt_load_s": per_op(self_s["model.ckpt_load"]),
        "training.loss_s": per_op(self_s["training.loss"]),
        "training.optimizer_s": per_op(self_s["training.optimizer"]),
        "training.specaug_s": per_op(self_s["training.specaug"]),
        "training.batch_prep_s": per_op(step_total - step_parts),
        "decoding.score_s": per_op(score_s),
        "decoding.search_s": per_op(caption_total - score_s),
        "decoding.rounds": per(search_forwards, captions),
        "decoding.recompute_ratio": per(search_tokens, search_rows),
        "decoding.caption_words": per(counts["decoding.caption.words"], captions),
        "evaluation.cider_s": per_op(self_s["evaluation.cider"]),
        "text.tokenize_calls": per_op(calls["text.tokenize"]),
        "text.tokenize_s": per_op(self_s["text.tokenize"]),
        "text.vocab_build_s": per_op(self_s["text.vocab_build"]),
        "text.stopword_loads": per_op(calls["text.stopwords"]),
        "corpus.load_embedding_s": per_op(self_s["corpus.load_embedding"]),
        "corpus.embedding_mb_read": per_op(counts["corpus.load_embedding.bytes"]) / 1e6,
        "corpus.manifest_loads": per_op(calls["corpus.manifest"]),
        "corpus.manifest_s": per_op(self_s["corpus.manifest"]),
        "cli.run_manifest_s": per_op(self_s["cli.run_manifest"]),
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_mb", "_mb_read")):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return "ratio" if metric.endswith("_ratio") else "count"


def durations(spans: list[list], name: str) -> list[float]:
    return [s[_END] - s[_START] for s in spans if s[_NAME] == name]


def _has_ancestor(span: list, by_id: dict, name: str) -> bool:
    parent = span[_PARENT]
    while parent is not None:
        node = by_id[parent]
        if node[_NAME] == name:
            return True
        parent = node[_PARENT]
    return False
