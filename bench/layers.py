"""Which program names are traced, and the per-layer metrics made from them.

Each layer is one ``src/mnmt`` module.  A call is traced where its caller
looks the name up: ``model.train_step`` calls ``backward`` through
``mnmt.model.backward``, so that attribute is wrapped, and the same numerics
function reached through ``mnmt.memory.backward`` is wrapped separately.
Per-op numerics kernels (``matmul``, ``add`` ...) are not wrapped: at desk
scale there are thousands per step, and their time lands in the model or
memory function that called them.
"""

from __future__ import annotations

import importlib
import statistics
import tracemalloc

from mnmt import checkpoint, cli, corpus, lexicon, memory, model
from tracing import HARNESS_LAYERS, Tracer, layer_report
from workloads import ibm1_links

# the package re-exports the function bleu under the module's name
bleu = importlib.import_module("mnmt.bleu")

LAYERS = ("corpus", "lexicon", "numerics", "model", "memory", "checkpoint", "bleu", "cli")


def count_tape(root) -> int:
    """Nodes reachable from ``root`` through the tape's parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class BackwardProbe:
    """Counts the tape on every call; measures allocation on the first.

    The tape count runs in a harness span, outside the backward time.  The
    first call of a pass runs under tracemalloc, which slows it, so that
    call is left out of ``numerics.backward_s``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.nodes: list[int] = []
        self.alloc_mb: float = 0.0

    def __call__(self, span, call, args, kwargs):
        with self.tracer.span("trace.count_tape", "trace"):
            self.nodes.append(count_tape(args[0]))
        if len(self.nodes) > 1:
            return call()
        span.info["alloc_sampled"] = True
        tracemalloc.start()
        try:
            return call()
        finally:
            self.alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()


def instrument(tracer: Tracer, counters: dict) -> BackwardProbe:
    """Wrap every traced name; returns the probe on the NMT model's backward."""
    w = tracer.wrap

    def record_entries(span, args, kwargs, mem):
        counters.setdefault("mem_entries", []).append(mem.size)

    for name in ("load_parallel_corpus", "build_vocabulary", "encode_sentence", "make_batches"):
        w(corpus, name, f"corpus.{name}", "corpus")
    w(corpus.Vocabulary, "load", "corpus.Vocabulary.load", "corpus")
    w(memory.SimilarWordMap, "load", "memory.SimilarWordMap.load", "memory")

    def record_links(span, args, kwargs, lex):
        counters["ibm1_links"] = counters.get("ibm1_links", 0) + ibm1_links(
            args[0], args[1] if len(args) > 1 else kwargs["iterations"])

    w(lexicon, "train_ibm1", "lexicon.train_ibm1", "lexicon", after=record_links)
    for name in ("save_lexicon", "load_lexicon"):
        w(lexicon, name, f"lexicon.{name}", "lexicon")

    for name in ("save_checkpoint", "load_checkpoint", "params_from_arrays"):
        w(checkpoint, name, f"checkpoint.{name}", "checkpoint")

    for name in ("init_nmt_params", "train_model", "train_step", "teacher_forced_loss",
                 "encode_batch", "encode", "beam_search"):
        w(model, name, f"model.{name}", "model")
    for name in ("encode", "encode_batch"):
        w(memory, name, f"model.{name}", "model")
    for name in ("encode", "beam_search"):
        w(cli, name, f"model.{name}", "model")

    probe = BackwardProbe(tracer)
    w(model, "backward", "numerics.backward", "numerics", around=probe)
    w(memory, "backward", "numerics.backward", "numerics")
    for owner in (model, memory):
        for name in ("clip_gradients", "adam_step"):
            w(owner, name, f"numerics.{name}", "numerics")

    w(memory, "init_memory_params", "memory.init_memory_params", "memory")
    w(memory, "train_memory_attention", "memory.train_memory_attention", "memory")
    w(memory.MemoryHook, "__call__", "memory.MemoryHook.__call__", "memory")
    w(cli, "sentence_memory", "memory.sentence_memory", "memory", after=record_entries)
    w(cli, "make_memory_hook", "memory.make_memory_hook", "memory")

    w(cli, "translate_lines", "cli.translate_lines", "cli")

    for name in ("bleu", "recalled_words"):
        w(bleu, name, f"bleu.{name}", "bleu")
    return probe


def per_layer_metrics(tracer: Tracer, counters: dict, probe: BackwardProbe,
                      traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric BENCHMARK.json lists; 0 where a layer is idle."""
    spans = tracer.spans
    selfs = tracer.self_times()
    harness = [0.0] * len(spans)
    for s in spans:
        if s.layer in HARNESS_LAYERS and s.parent is not None:
            harness[s.parent] += s.duration
    phases = tracer.phase_of()

    # only spans inside phases: correctness checks run outside them
    def total(*names, own=False, skip_sampled=False) -> float:
        out = 0.0
        for s, own_t, h, ph in zip(spans, selfs, harness, phases):
            if s.name not in names or ph is None:
                continue
            if skip_sampled and s.info.get("alloc_sampled"):
                continue
            out += own_t if own else s.duration - h
        return out

    def calls(name, phase=None) -> int:
        return sum(1 for s, ph in zip(spans, phases)
                   if s.name == name and ph is not None and (phase is None or ph == phase))

    report = layer_report(tracer)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for entry in report.values():
        for layer, secs in entry["layers"].items():
            layer_self[layer] += secs

    mem_sents = counters.get("decode_mem_sentences", 0)
    entries = counters.get("mem_entries", [])
    nodes = probe.nodes
    m = {
        "corpus.pad_frac": (counters.get("pad_frac", 0.0), "share"),
        "lexicon.train_ibm1_s": (total("lexicon.train_ibm1"), "s"),
        "lexicon.links": (counters.get("ibm1_links", 0), "count"),
        "lexicon.load_s": (total("lexicon.load_lexicon"), "s"),
        "checkpoint.load_s": (
            total("checkpoint.load_checkpoint", "checkpoint.params_from_arrays"), "s"),
        "model.fwd_s": (total("model.teacher_forced_loss", own=True), "s"),
        "model.encode_s": (total("model.encode_batch"), "s"),
        "model.beam_search_self_s": (total("model.beam_search", own=True), "s"),
        "model.encode_calls_per_sent": (
            calls("model.encode_batch", "decode_mem") / mem_sents if mem_sents else 0.0, "count"),
        "numerics.backward_s": (total("numerics.backward", skip_sampled=True), "s"),
        "numerics.adam_s": (total("numerics.adam_step", "numerics.clip_gradients"), "s"),
        "numerics.tape_nodes_per_step": (
            statistics.fmean(nodes) if nodes else 0.0, "count"),
        "numerics.backward_alloc_mb": (probe.alloc_mb, "MB"),
        "memory.hook_s": (total("memory.MemoryHook.__call__"), "s"),
        "memory.hook_calls": (calls("memory.MemoryHook.__call__"), "count"),
        "memory.sentence_memory_s": (total("memory.sentence_memory"), "s"),
        "memory.entries_per_sent": (statistics.fmean(entries) if entries else 0.0, "count"),
        "memory.train_prep_s": (counters.get("mem_prep_s", 0.0), "s"),
        "memory.train_epoch_s": (counters.get("mem_epoch_s", 0.0), "s"),
        "memory.positions": (counters.get("mem_positions", 0), "count"),
        "memory.coverage": (counters.get("mem_coverage", 0.0), "share"),
        "cli.translate_lines_self_s": (total("cli.translate_lines", own=True), "s"),
    }
    for layer in LAYERS:
        if layer != "cli":  # the cli layer's self time is cli.translate_lines_self_s
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "share")
    m["trace.coverage_min"] = (min(e["coverage"] for e in report.values()), "share")
    return m
