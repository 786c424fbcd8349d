"""Spans around the program's public functions, installed from outside `src/`.

`Patches` swaps a function for a wrapper in every `lusoforge` module that
holds it (so `from x import f` call sites are covered too) and puts the
originals back on `restore()`. `CoreTimer` is the only wrapper present in
untraced rounds: it times the workload's core public call at its boundary.
`Tracer` wraps every public function that one of the per-layer metrics
reads, keeps the spans in memory, and turns them into per-round metrics.

Attribution rules:
- self time = span time minus the time of child spans, so nested ops such
  as `sub` -> `add` are not counted twice;
- an op's backward time is the time of its backward closure, and
  `autodiff.walk_ms` is the self time of `backward()` around those closures;
- an op belongs to the block of the public function it runs under
  (`disentangled_attention` -> attn, `conv1d_same` -> conv,
  `enhanced_mask_decode`/`standard_attention` -> emd), except that under the
  decoder an op reading the tied token table is `vocab_proj`; elsewhere in
  the encoder the block comes from the parameter the op reads (`embed.*`,
  `layerN.attn.*`, `layerN.ffn.*`), or else from its newest tagged input.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

OP_KINDS = ("matmul", "gather_last", "embedding", "gelu", "layer_norm", "softmax",
            "dropout", "cross_entropy")
OTHER_OPS = ("add", "mul", "scale", "sub", "transpose", "swap_last2", "reshape", "narrow",
             "take", "shift_seq", "tensor_sum", "tensor_mean")
KINDS = OP_KINDS + ("other",)
BLOCKS = ("embed", "attn", "conv", "ffn", "emd", "vocab_proj")
SCOPES = {"disentangled_attention": "attn", "conv1d_same": "conv",
          "standard_attention": "emd", "enhanced_mask_decode": "emd",
          "encoder_forward": "encoder"}

# (name, unit); per optimizer step unless README.md says per round
PER_LAYER = (
    [(f"autodiff.{k}.{d}", "ms") for k in KINDS for d in ("fwd_ms", "bwd_ms")]
    + [("autodiff.walk_ms", "ms"), ("autodiff.nodes", "count")]
    + [(f"encoder.{b}.{d}", "ms") for b in BLOCKS for d in ("fwd_ms", "bwd_ms")]
    + [("optim.adam_ms", "ms"), ("optim.params", "count"),
       ("pretrain.step_ms.p50", "ms"), ("pretrain.tokenize_ms", "ms"), ("pretrain.mask_ms", "ms"),
       ("pretrain.batch_ms", "ms"), ("pretrain.predicted_tokens", "count"),
       ("checkpoint.save_ms", "ms"), ("checkpoint.saves", "count"), ("checkpoint.bytes", "bytes"),
       ("checkpoint.load_ms", "ms"),
       ("finetune.run_s.p50", "s"), ("finetune.train_step_ms.p50", "ms"),
       ("finetune.train_step_ms.p90", "ms"), ("finetune.predict_ms", "ms"),
       ("finetune.predict_examples", "count"), ("finetune.runs", "count"),
       ("tokenizer.train_s", "s"), ("tokenizer.merges", "count"),
       ("tokenizer.encode_ms", "ms"), ("tokenizer.encoded_tokens", "count")]
    + [(f"corpus.{n}", "s") for n in ("read_s", "tld_s", "dedup_s", "neardup_s", "quality_s",
                                        "stats_s", "write_s")]
    + [("corpus.kept", "count"), ("corpus.rejected", "count"),
       ("cli.manifest_ms", "ms"), ("cli.loss_curve_ms", "ms"), ("trace.overhead_s", "s")]
)


def program_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "lusoforge" or name.startswith("lusoforge."))]


class Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, wrapper):
        """Replace module.name, and every alias of it in the program's modules."""
        orig = getattr(module, name)
        new = wrapper(orig)
        for m in program_modules():
            for attr in [a for a, v in vars(m).items() if v is orig]:
                setattr(m, attr, new)
                self._undo.append((m, attr, orig))

    def method(self, cls, name: str, wrapper):
        orig = cls.__dict__[name]
        setattr(cls, name, wrapper(orig))
        self._undo.append((cls, name, orig))

    def restore(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()


class CoreTimer:
    """Summed wall time inside the workload's core public calls."""

    def __init__(self, targets):
        self.targets = targets        # [(module, function name)]
        self.seconds = 0.0
        self._patches = Patches()

    def install(self):
        for module, name in self.targets:
            self._patches.function(module, name, self._wrap)

    def restore(self):
        self._patches.restore()

    def _wrap(self, f):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0
        return timed


def _param_block(name: str, scope: str) -> str | None:
    if name == "embed.tokens" and scope == "emd":
        return "vocab_proj"
    head = name.split(".", 1)[0]
    if head == "embed":
        return "embed"
    if head == "conv":
        return "conv"
    if head == "relpos":
        return "attn"
    if head == "abspos" or head.startswith("emd"):
        return "emd"
    if head.startswith("layer"):
        return "ffn" if ".ffn." in name else "attn"
    return None


class Tracer:
    def __init__(self, lf):
        self.lf = lf
        self._patches = Patches()
        self.stack: list[list] = []           # [name, child seconds]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.fwd: dict[tuple, float] = defaultdict(float)
        self.bwd: dict[tuple, float] = defaultdict(float)
        self.glue: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.depth: dict[str, int] = defaultdict(int)
        self.scope: list[str] = []
        self.param_names: dict[int, str] = {}
        self.tags: dict[int, tuple[int, str | None]] = {}
        self._alive: list = []
        self._seq = 0
        self._step_start: float | None = None
        self._run_start: float | None = None

    # -- installation -------------------------------------------------------

    def install(self):
        lf, p = self.lf, self._patches
        ad = lf.autodiff
        self._tensor = ad.Tensor
        for name in OP_KINDS:
            p.function(ad, name, lambda f, k=name: self._op(k, f))
        for name in OTHER_OPS:
            p.function(ad, name, lambda f: self._op("other", f))
        p.function(ad, "backward", lambda f: self._span("autodiff.backward", f))
        for name, block in SCOPES.items():
            p.function(lf.encoder, name, lambda f, n=name, b=block: self._scope(n, b, f))

        p.method(lf.optim.Adam, "zero_grad", lambda f: self._span("optim.zero_grad", f, before=self._mark_step))
        p.method(lf.optim.Adam, "step", lambda f: self._span("optim.step", f, before=self._count_params,
                                                             after=self._end_step))
        p.method(lf.finetune.TaskModel, "forward", lambda f: self._span("finetune.forward", f,
                                                                        before=self._mark_train_forward))

        spans = {
            lf.pretrain: ("train", "tokenize_corpus", "apply_mlm_masking", "make_batches"),
            lf.checkpoint: ("load_checkpoint",),
            lf.finetune: ("run_grid", "finetune"),
            lf.tokenizer: ("train_tokenizer", "encode", "encode_pair"),
            lf.corpus: ("read_jsonl", "write_jsonl", "tld_reason", "deduplicate", "quality_reason",
                        "source_stats", "run_pipeline"),
            lf.cli: ("emit_loss_curve",),
        }
        after = {
            "tokenizer.train_tokenizer": self._count_merges,
            "tokenizer.encode": self._count_tokens,
            "tokenizer.encode_pair": self._count_tokens,
            "corpus.run_pipeline": self._count_kept,
        }
        for module, names in spans.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                key = f"{short}.{name}"
                p.function(module, name, lambda f, k=key: self._span(k, f, after=after.get(k)))
        p.function(lf.checkpoint, "save_checkpoint",
                   lambda f: self._span("checkpoint.save_checkpoint", f, after=self._count_bytes))
        p.function(lf.finetune, "attach_head",
                   lambda f: self._span("finetune.attach_head", f, before=self._start_run))
        p.function(lf.finetune, "predict",
                   lambda f: self._span("finetune.predict", f, before=self._count_examples,
                                        after=self._end_run))
        for name in ("add_input", "add_output", "write"):
            p.method(lf.manifest.RunManifest, name, lambda f: self._span("cli.manifest", f))

    def restore(self):
        self._patches.restore()
        self.tags.clear()
        self._alive.clear()
        self.param_names.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, f, before=None, after=None):
        stack = self.stack

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            self.depth[name] += 1
            t0 = perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.depth[name] -= 1
                if stack:
                    stack[-1][1] += dur
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                self.count[name] += 1
            if after is not None:
                after(args, out, frame)
            return out
        return span

    def _scope(self, name, block, f):
        stack = self.stack

        def scoped(*args, **kwargs):
            if name in ("encoder_forward", "enhanced_mask_decode"):
                if name == "encoder_forward" and "encoder" not in self.scope:
                    self.tags.clear()
                    self._alive.clear()
                params = args[0]
                self.param_names = {id(t): n for n, t in params.items()}
            self.scope.append(block)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.scope.pop()
                if stack:
                    stack[-1][1] += dur
                if block != "encoder":
                    self.glue[block] += dur - frame[1]
        return scoped

    def _block(self, tensors) -> str | None:
        scope = self.scope[-1] if self.scope else None
        if scope is None:
            return None
        newest, newest_tag = -1, None
        for t in tensors:
            name = self.param_names.get(id(t))
            if name is not None:
                tag = _param_block(name, scope)
                if scope == "encoder":
                    return tag
                if tag == "vocab_proj":
                    return tag
                continue
            seq, tag = self.tags.get(id(t), (-1, None))
            if scope == "emd" and tag == "vocab_proj":
                return tag
            if seq > newest:
                newest, newest_tag = seq, tag
        return newest_tag if scope == "encoder" else scope

    def _op(self, kind, f):
        stack = self.stack
        Tensor = self._tensor

        def op(*args, **kwargs):
            frame = ["op", 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
            inputs = [a for a in args if isinstance(a, Tensor)]
            block = self._block(inputs)
            self.fwd[(kind, block)] += dur - frame[1]
            if kind == "cross_entropy" and self.depth["pretrain.train"]:
                labels = args[1] if len(args) > 1 else kwargs["labels"]
                ignore = kwargs.get("ignore_index", -100)
                self.count["pretrain.predicted"] += int((labels != ignore).sum())
            if isinstance(out, Tensor) and not any(out is a for a in inputs):
                self._seq += 1
                self.tags[id(out)] = (self._seq, block)
                self._alive.append(out)
                bw = out._backward
                if bw is not None and not getattr(bw, "traced", False):
                    self.count["autodiff.nodes"] += 1
                    out._backward = self._timed_backward(bw, kind, block)
            return out
        return op

    def _timed_backward(self, bw, kind, block):
        stack = self.stack

        def timed(g):
            frame = ["bwd", 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                bw(g)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.bwd[(kind, block)] += dur
        timed.traced = True
        return timed

    # -- hooks --------------------------------------------------------------

    def _mark_step(self, args):
        if self._step_start is None:
            self._step_start = perf_counter()

    def _mark_train_forward(self, args):
        if not self.depth["finetune.predict"]:
            self._mark_step(args)

    def _count_params(self, args):
        opt = args[0]
        self.count["optim.params"] += sum(p.data.size for p in opt.params.values() if p.grad is not None)

    def _end_step(self, args, out, frame):
        if self._step_start is not None:
            ms = 1000.0 * (perf_counter() - self._step_start)
            if self.depth["pretrain.train"]:
                self.samples["pretrain.step_ms"].append(ms)
            elif self.depth["finetune.finetune"]:
                self.samples["finetune.train_step_ms"].append(ms)
        self._step_start = None

    def _start_run(self, args):
        self._run_start = perf_counter()

    def _end_run(self, args, out, frame):
        # the test-set predict, called straight from run_grid, closes a grid run
        if self.stack and self.stack[-1][0] == "finetune.run_grid" and self._run_start is not None:
            self.samples["finetune.run_s"].append(perf_counter() - self._run_start)
            self._run_start = None

    def _count_examples(self, args):
        self.count["finetune.predict_examples"] += len(args[1])

    def _count_bytes(self, args, out, frame):
        self.count["checkpoint.bytes"] += os.path.getsize(args[0])

    def _count_merges(self, args, out, frame):
        self.count["tokenizer.merges"] += len(out.merges)

    def _count_tokens(self, args, out, frame):
        self.count["tokenizer.encoded_tokens"] += len(out.ids)

    def _count_kept(self, args, out, frame):
        kept, report = out
        self.count["corpus.kept"] += len(kept)
        self.count["corpus.rejected"] += report.input_count - len(kept)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced round (trace.overhead_s excluded)."""
        steps = self.count["optim.step"]
        pt_steps = len(self.samples["pretrain.step_ms"])

        def per_step(seconds):
            return 1000.0 * seconds / steps if steps else 0.0

        def pct(name, q, scale=1.0):
            xs = self.samples[name]
            if not xs:
                return 0.0
            if q == 50:
                return scale * statistics.median(xs)
            return scale * statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else scale * xs[0]

        ms = lambda name: 1000.0 * self.total[name]  # noqa: E731
        m: dict[str, float] = {}
        for k in KINDS:
            m[f"autodiff.{k}.fwd_ms"] = per_step(sum(v for (kk, _), v in self.fwd.items() if kk == k))
            m[f"autodiff.{k}.bwd_ms"] = per_step(sum(v for (kk, _), v in self.bwd.items() if kk == k))
        m["autodiff.walk_ms"] = per_step(self.self_time["autodiff.backward"])
        m["autodiff.nodes"] = self.count["autodiff.nodes"] / steps if steps else 0.0
        for b in BLOCKS:
            m[f"encoder.{b}.fwd_ms"] = per_step(
                sum(v for (_, bb), v in self.fwd.items() if bb == b) + self.glue[b])
            m[f"encoder.{b}.bwd_ms"] = per_step(sum(v for (_, bb), v in self.bwd.items() if bb == b))
        m["optim.adam_ms"] = per_step(self.total["optim.step"])
        m["optim.params"] = self.count["optim.params"] / steps if steps else 0.0
        m["pretrain.step_ms.p50"] = pct("pretrain.step_ms", 50)
        m["pretrain.tokenize_ms"] = ms("pretrain.tokenize_corpus")
        m["pretrain.mask_ms"] = ms("pretrain.apply_mlm_masking")
        m["pretrain.batch_ms"] = ms("pretrain.make_batches")
        m["pretrain.predicted_tokens"] = self.count["pretrain.predicted"] / pt_steps if pt_steps else 0.0
        m["checkpoint.save_ms"] = ms("checkpoint.save_checkpoint")
        m["checkpoint.saves"] = self.count["checkpoint.save_checkpoint"]
        m["checkpoint.bytes"] = self.count["checkpoint.bytes"]
        m["checkpoint.load_ms"] = ms("checkpoint.load_checkpoint")
        m["finetune.run_s.p50"] = pct("finetune.run_s", 50)
        m["finetune.train_step_ms.p50"] = pct("finetune.train_step_ms", 50)
        m["finetune.train_step_ms.p90"] = pct("finetune.train_step_ms", 90)
        m["finetune.predict_ms"] = ms("finetune.predict")
        m["finetune.predict_examples"] = self.count["finetune.predict_examples"]
        m["finetune.runs"] = self.count["finetune.attach_head"]
        m["tokenizer.train_s"] = self.total["tokenizer.train_tokenizer"]
        m["tokenizer.merges"] = self.count["tokenizer.merges"]
        m["tokenizer.encode_ms"] = ms("tokenizer.encode") + ms("tokenizer.encode_pair")
        m["tokenizer.encoded_tokens"] = self.count["tokenizer.encoded_tokens"]
        for name, span in (("read_s", "read_jsonl"), ("tld_s", "tld_reason"), ("dedup_s", "deduplicate"),
                           ("quality_s", "quality_reason"), ("stats_s", "source_stats"),
                           ("write_s", "write_jsonl")):
            m[f"corpus.{name}"] = self.total[f"corpus.{span}"]
        m["corpus.neardup_s"] = self.self_time["corpus.run_pipeline"]
        m["corpus.kept"] = self.count["corpus.kept"]
        m["corpus.rejected"] = self.count["corpus.rejected"]
        m["cli.manifest_ms"] = ms("cli.manifest")
        m["cli.loss_curve_ms"] = ms("cli.emit_loss_curve")
        return m
