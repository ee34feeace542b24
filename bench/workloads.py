"""The workloads: the paper's pipeline at two scales, each a closed loop run
by one caller in one process.

A workload is a `Recipe` run by `pipeline` on a `Pass`: it sets up from the
files `inputs` wrote, runs its timed phases through the program's public
entry points (always looked up on the module at call time, so a tracer can
wrap them), checks the outputs and records every end-to-end metric.  See
NOTES.md for why each workload exists and which optimisation it exposes.
"""

from __future__ import annotations

import hashlib
import importlib
import logging
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

import inputs
from tracing import after_calls
from mnmt import checkpoint, cli, corpus, lexicon, memory, model, numerics

# the package re-exports the function bleu under the module's name
bleu = importlib.import_module("mnmt.bleu")

BETA = 1.0 / 3.0
MEMORY_K = 3
STEPS = 300
IBM1_ITERS = 10
LEX_FLOOR = 0.1
MEM_EPOCHS = 40
MEM_LR = 0.02
MEM_BATCH = 16
DECODE_CHUNKS = 12     # alternations of the plain and memory decodes
IBM1_SHARE = 0.3       # of --seconds given to IBM-1, split over the rounds
IBM1_ROUNDS = 3


@dataclass(frozen=True)
class Recipe:
    """One scale of the pipeline."""

    dims: dict         # NmtConfig fields
    heldout: int       # held-out sentences decoded in each mode
    filler: int        # Zipfian pairs added to the lexicon corpus


RECIPES = {
    # the c03 recipe
    "desk": Recipe(dict(embed_dim=24, hidden_dim=32, batch_size=20, beam_size=4, lr=0.005),
                   heldout=360, filler=0),
    # twice the widths, the paper's beam and a lexicon corpus that is mostly
    # a large Zipfian vocabulary
    "mid": Recipe(dict(embed_dim=48, hidden_dim=64, batch_size=20, beam_size=12, lr=0.005),
                  heldout=216, filler=300),
}


class Pass:
    """One execution of a workload: phases, operations, outputs, metrics.

    With ``fixed`` set, every phase runs its minimum number of units, so a
    traced pass and the untraced pass it is compared with do the same work.
    Otherwise time-boxed phases run until their share of ``seconds`` is used.
    ``started`` is the process's start time; only a pass given it reports
    ``setup_s``.
    """

    def __init__(self, workdir: str, seed: int, seconds: float, fixed: bool, tracer=None,
                 started: float | None = None):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.fixed = fixed
        self.tracer = tracer
        self.started = started
        self.untimed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.counters: dict[str, float] = {}
        self.outputs: list = []
        self.phase_walls: dict[str, float] = {}
        self.unit_log: dict[str, list[tuple[float, float]]] = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def rate(self, name: str, units: list[tuple[float, float]], unit: str) -> None:
        """A throughput metric from (work, seconds) units, which are kept."""
        self.unit_log[name] = units
        self.metric(name, throughput(units), unit)

    def span(self, name: str, layer: str):
        """A layer span when tracing, else nothing."""
        return self.tracer.span(name, layer) if self.tracer else nullcontext()

    @contextmanager
    def phase(self, name: str):
        span = self.tracer.open(name, "phase") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_walls[name] = self.phase_walls.get(name, 0.0) + time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)

    def units(self, min_units: int, budget_s: float):
        """Unit indices: ``min_units`` when fixed, else until the budget is used."""
        start = time.perf_counter()
        i = 0
        while i < min_units or (not self.fixed and time.perf_counter() - start < budget_s):
            yield i
            i += 1

    @contextmanager
    def untimed(self):
        """Harness work left out of ``setup_s``: writing the input files,
        which a user of the command line already has."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def setup(self, build):
        """Build the workload's state, once, in the ``setup`` phase.

        ``setup_s`` runs from process start, imports included, to the end of
        set-up, where the first timed phase begins; `untimed` work is not in it.
        """
        with self.phase("setup"):
            state = build()
        if self.started is not None:
            self.metric("setup_s", time.perf_counter() - self.started - self.untimed_s, "s")
        return state


def throughput(units: list[tuple[float, float]]) -> float:
    """Work per second over all units: total work / total seconds."""
    return sum(work for work, _ in units) / sum(secs for _, secs in units)


class MemoryTrainingLog(logging.Handler):
    """Reads the ``memory training: N sentences, M positions`` record.

    The record marks the end of per-sentence record building inside
    `train_memory_attention`; its arrival time splits preparation from the
    epochs.
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.at: float | None = None
        self.positions = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("memory training:"):
            self.at = time.perf_counter()
            _, self.positions = record.args

    @contextmanager
    def attached(self):
        log = logging.getLogger(memory.__name__)
        saved = log.level
        log.setLevel(logging.INFO)
        log.addHandler(self)
        try:
            yield self
        finally:
            log.removeHandler(self)
            log.setLevel(saved)


def _train_units(p: Pass, batches, params, lr: float, steps):
    """One `train_model` call per step; returns [(tokens, seconds)] and the losses."""
    units, losses = [], []
    for i in steps:
        batch = batches[i % len(batches)]
        start = time.perf_counter()
        (loss,) = model.train_model([batch], params, lr, 1)
        units.append((float(batch.tgt_mask.sum()), time.perf_counter() - start))
        losses.append(loss)
        p.op(math.isfinite(loss), f"train step {i}: loss {loss}")
    return units, losses


def _encode_pairs(p: Pass, pairs, sv, tv) -> list[tuple[list[int], list[int]]]:
    """The command line's corpus-encoding loop, traced as corpus work."""
    with p.span("corpus.encode_pairs", "corpus"):
        return [(corpus.encode_sentence(s, sv, True), corpus.encode_sentence(t, tv, True))
                for s, t in pairs]


def ibm1_links(data, iterations: int) -> int:
    """IBM-1 link updates: sum |s|*|t| per iteration, in both directions."""
    return 2 * iterations * sum(len(s) * len(t) for s, t in data.pairs)


def _pad_frac(batches) -> float:
    slots = sum(b.src_mask.size + b.tgt_mask.size for b in batches)
    real = sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in batches)
    return 1.0 - real / slots


def _digest(entries: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for item in sorted(entries.items()):
        h.update(repr(item).encode())
    return h.hexdigest()


class Ibm1Rounds:
    """IBM-1 calls in rounds spread over the run, so the rate spans the
    host's drift rather than one stretch of it.

    The first call's lexicon is the one the pipeline uses; every later call
    must give it again.  A round repeats the call until its share of
    ``--seconds`` is used; a fixed pass makes the first call only.
    """

    def __init__(self, p: Pass, lexcorpus):
        self.p = p
        self.lexcorpus = lexcorpus
        self.links = ibm1_links(lexcorpus, IBM1_ITERS)
        self.units: list[tuple[float, float]] = []
        self.first: lexicon.Lexicon | None = None
        self.digest = ""

    def round(self) -> lexicon.Lexicon:
        p = self.p
        if p.fixed and self.first is not None:
            return self.first
        with p.phase("ibm1"):
            for _ in p.units(1, IBM1_SHARE * p.seconds / IBM1_ROUNDS):
                start = time.perf_counter()
                lex = lexicon.train_ibm1(self.lexcorpus, IBM1_ITERS, LEX_FLOOR)
                self.units.append((self.links, time.perf_counter() - start))
                if self.first is None:
                    self.first, self.digest = lex, _digest(lex.entries)
                else:
                    p.op(_digest(lex.entries) == self.digest,
                         "IBM-1 rerun gave a different lexicon")
                del lex  # not alive beside the next call's working tables
        return self.first


def _round_trip(p: Pass, files: str, params, lex):
    """Save and load the model checkpoint and the lexicon TSV, as the
    command line's ``train``, ``train-lexicon`` and ``train-memory`` do."""
    ckpt, tsv = os.path.join(files, "nmt.ckpt"), os.path.join(files, "lex.tsv")
    with p.phase("checkpoint"):
        checkpoint.save_checkpoint(ckpt, params, {"kind": "nmt"})
        _, arrays = checkpoint.load_checkpoint(ckpt)
        loaded = checkpoint.params_from_arrays(arrays)
        lexicon.save_lexicon(lex, tsv)
        loaded_lex = lexicon.load_lexicon(tsv)
    p.op(all(np.array_equal(loaded[n].data, params[n].data.astype(np.float32))
             for n in params.names()) and loaded.names() == params.names(),
         "checkpoint round trip is not the float32 rounding of the model")
    p.op(loaded_lex.entries.keys() == lex.entries.keys()
         and all(abs(a - b) <= 5e-7 for key, probs in lex.entries.items()
                 for a, b in zip(probs, loaded_lex.entries[key])),
         "lexicon round trip is not the 6-decimal rounding of the lexicon")
    return loaded, loaded_lex


def _rescore(src_ids, hyp, params) -> tuple[bool, str]:
    """A plain hypothesis's log-prob must equal its teacher-forced score."""
    n = len(hyp.tokens)
    batch = corpus.Batch(np.asarray([src_ids], dtype=np.int64), np.ones((1, len(src_ids))),
                         np.asarray([hyp.tokens], dtype=np.int64), np.ones((1, n)))
    with numerics.no_grad():
        rescored = -float(model.teacher_forced_loss(batch, params).data) * n
    ok = abs(rescored - hyp.log_prob) <= 1e-9 * abs(hyp.log_prob)
    return ok, f"beam log-prob {hyp.log_prob!r} vs teacher-forced {rescored!r}"


def pipeline(p: Pass, recipe: Recipe, name: str) -> None:
    """IBM-1, NMT training, checkpoint and lexicon round trip, memory
    training, held-out decode without and with memory, scoring."""
    files = os.path.join(p.workdir, name)
    with p.untimed():
        inputs.write_task(files, p.seed, recipe.heldout, recipe.filler)

    def build():
        train = corpus.load_parallel_corpus(f"{files}/train.src", f"{files}/train.tgt")
        lexcorpus = corpus.load_parallel_corpus(f"{files}/lexcorpus.src", f"{files}/lexcorpus.tgt")
        heldout = corpus.load_parallel_corpus(f"{files}/heldout.src", f"{files}/heldout.tgt")
        sim = memory.SimilarWordMap.load(f"{files}/sim.src", f"{files}/sim.tgt")
        sv = corpus.build_vocabulary([s for s, _ in train.pairs], 40)
        tv = corpus.build_vocabulary([t for _, t in train.pairs], 40)
        encoded = _encode_pairs(p, train.pairs, sv, tv)
        batches = corpus.make_batches(encoded, recipe.dims["batch_size"], 50, inputs.TASK_SEED)
        cfg = model.NmtConfig(src_vocab_size=len(sv), tgt_vocab_size=len(tv), **recipe.dims)
        params = model.init_nmt_params(cfg, inputs.TASK_SEED)
        mparams = memory.init_memory_params(cfg, inputs.TASK_SEED, BETA)
        return train, lexcorpus, heldout, sim, sv, tv, batches, cfg, params, mparams

    (train, lexcorpus, heldout, sim, sv, tv, batches, cfg, params,
     mparams) = p.setup(build)
    p.counters["pad_frac"] = _pad_frac(batches)

    ibm1 = Ibm1Rounds(p, lexcorpus)
    lex = ibm1.round()
    for direction, lls in sorted(lex.log_likelihood.items()):
        p.op(all(b >= a for a, b in zip(lls, lls[1:])),
             f"IBM-1 {direction} log-likelihood decreased: {lls}")
    p.outputs.append(sorted(lex.log_likelihood.items()))

    with p.phase("train"):
        units, losses = _train_units(p, batches, params, cfg.lr, range(STEPS))
    p.rate("train_tok_per_s", units[1:], "tok/s")
    p.outputs.append(losses)

    ibm1.round()
    params, lex = _round_trip(p, files, params, lex)

    with MemoryTrainingLog().attached() as log, p.phase("memory_train"):
        start = time.perf_counter()
        mem_losses = memory.train_memory_attention(
            train.pairs, sv, tv, params, mparams, lex, epochs=MEM_EPOCHS,
            lr=MEM_LR, k=MEMORY_K, batch_pairs=MEM_BATCH)
        end = time.perf_counter()
    if log.at is None:
        raise RuntimeError("train_memory_attention logged no 'memory training:' record")
    p.op(bool(mem_losses) and all(map(math.isfinite, mem_losses)),
         f"memory training losses {mem_losses[:3]}...")
    p.metric("mem_train_pos_per_s", log.positions * MEM_EPOCHS / (end - start), "pos/s")
    tgt_tokens = sum(len(t) + 1 for _, t in train.pairs)
    p.counters.update(mem_prep_s=log.at - start, mem_epoch_s=(end - log.at) / MEM_EPOCHS,
                      mem_positions=log.positions, mem_coverage=log.positions / tgt_tokens)
    p.outputs.append(mem_losses)
    ibm1.round()
    p.rate("ibm1_links_per_s", ibm1.units, "links/s")

    lines = [" ".join(s) for s, _ in heldout.pairs]
    refs = [t for _, t in heldout.pairs]
    modes = {"decode": {}, "decode_mem": dict(lexicon=lex, mparams=mparams, k=MEMORY_K, sim=sim)}
    units: dict[str, list] = {mode: [] for mode in modes}
    outs: dict[str, list[str]] = {mode: [] for mode in modes}
    plain_calls: list = []

    def record(args, _kwargs, hyp):
        plain_calls.append((args[0], hyp))

    # the two modes alternate chunk by chunk, so both rates span the same
    # stretch of the run's wall time
    chunk = -(-len(lines) // DECODE_CHUNKS)
    for at in range(0, len(lines), chunk):
        for mode, kwargs in modes.items():
            hook = after_calls(cli, "beam_search", record) if mode == "decode" else nullcontext()
            with hook, p.phase(mode):
                for line in lines[at : at + chunk]:
                    start = time.perf_counter()
                    outs[mode] += cli.translate_lines([line], sv, tv, params, cfg.beam_size,
                                                      **kwargs)
                    units[mode].append((1, time.perf_counter() - start))
    for mode in modes:
        p.rate(f"{mode}_sent_per_s", units[mode], "sent/s")
        p.attempted += len(outs[mode])
        p.outputs.append(outs[mode])
    for src_ids, hyp in plain_calls:
        p.op(*_rescore(src_ids, hyp, params))
    p.counters["decode_mem_sentences"] = len(lines)

    hyps = {mode: [h.split() for h in out] for mode, out in outs.items()}
    with p.phase("score"):
        plain = bleu.bleu(hyps["decode"], refs).bleu
        memd = bleu.bleu(hyps["decode_mem"], refs).bleu
        recall_plain = bleu.recalled_words(hyps["decode"], refs)
        recall_mem = bleu.recalled_words(hyps["decode_mem"], refs)
    p.op(math.isfinite(plain) and math.isfinite(memd), f"BLEU not finite: {plain}, {memd}")
    p.op(recall_mem > recall_plain,
         f"memory recalled {recall_mem} words, not more than plain decoding's {recall_plain}")
    p.metric("bleu_plain", plain, "BLEU")
    p.metric("bleu_mem", memd, "BLEU")
    p.metric("recall_mem", recall_mem, "words")
    p.counters["recall_plain"] = recall_plain


def run(name: str, p: Pass) -> None:
    pipeline(p, RECIPES[name], name)
