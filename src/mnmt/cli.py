"""Command-line surface: vocabulary/lexicon building, training, translation,
scoring, and gradient checking, all reproducible from (config, seed, files)."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bleu import bleu as corpus_bleu
from .bleu import recalled_words
from .checkpoint import CheckpointError, load_checkpoint, params_from_arrays, save_checkpoint
from .corpus import (
    EOS_ID,
    EmptyTrainingSetError,
    Vocabulary,
    build_vocabulary,
    decode_ids,
    encode_sentence,
    load_parallel_corpus,
    make_batches,
    read_lines,
)
from .lexicon import Lexicon, check_ibm1_settings, load_lexicon, save_lexicon, train_ibm1
from .memory import (
    DEFAULT_BETA,
    DEFAULT_MEMORY_K,
    DEFAULT_MEMORY_LR,
    MemoryParams,
    SimilarWordMap,
    apply_oov_substitution,
    init_memory_params,
    make_memory_hook,
    memory_shapes,
    sentence_memory,
    train_memory_attention,
)
from .model import (
    NmtConfig,
    beam_search,
    encode,
    init_nmt_params,
    nmt_shapes,
    teacher_forced_loss,
    train_model,
)
from .numerics import ParamSet, grad_check

logger = logging.getLogger(__name__)

# how a config file's value or a flag's text becomes its RunConfig field's type
_CASTS = {"int": int, "float": float, "str": str}
# the config keys whose flag is not --key-with-dashes
_FLAG_OF_KEY = {"beam_size": "beam", "memory_k": "k", "train_steps": "steps",
                "memory_epochs": "epochs"}
# what train-memory stores with the memory it trains, and translate reads back
_MEMORY_KEYS = ("beta", "memory_k")


@dataclass
class RunConfig(NmtConfig):
    """Everything a run needs: NmtConfig's keys plus the run keys, all checked on construction."""

    max_len: int = 50
    train_steps: int = 10000
    beta: float = DEFAULT_BETA
    memory_k: int = DEFAULT_MEMORY_K
    memory_epochs: int = 20
    memory_lr: float = DEFAULT_MEMORY_LR
    seed: int = 0
    src: str = ""
    tgt: str = ""
    vocab_src: str = ""
    vocab_tgt: str = ""
    lexicon: str = ""
    sim_src: str = ""
    sim_tgt: str = ""
    ckpt: str = ""
    mem_ckpt: str = ""
    out: str = ""

    def __post_init__(self):
        super().__post_init__()
        for name, low in (("train_steps", 1), ("max_len", 1), ("memory_k", 1),
                          ("memory_epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.memory_lr <= 0:
            raise ValueError("memory_lr must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")

    @classmethod
    def file_values(cls, path: str) -> dict:
        """The keys a config file sets, with their values cast to the field types."""
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        for lineno, line in enumerate(read_lines(path), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
            try:
                values[key] = _CASTS[types[key]](raw)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from exc
        return values


def _config_layers(args: argparse.Namespace) -> list[tuple[str, dict]]:
    """(source, values) of the config file, then of the flags: each flag's dest is its key."""
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    return [(args.config or "", RunConfig.file_values(args.config) if args.config else {}),
            ("", flags)]


def _layered_config(layers: list[tuple[str, dict]]) -> RunConfig:
    """The defaults with each layer's values over them, the last layer winning.  A layer
    whose values fail RunConfig's checks is rejected, named by its source if it has one."""
    cfg = RunConfig()
    for source, values in layers:
        try:
            cfg = dataclasses.replace(cfg, **values)
        except (TypeError, ValueError) as exc:
            if not source:
                raise
            raise ValueError(f"{source}: {exc}") from exc
    logger.info("resolved config: %s", dataclasses.asdict(cfg))
    logger.info("seed: %d", cfg.seed)
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    return _layered_config(_config_layers(args))


def _flag(key: str) -> str:
    return "--" + _FLAG_OF_KEY.get(key, key.replace("_", "-"))


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [k for k in keys if not getattr(cfg, k)]
    if missing:
        print(f"error: missing required option(s): {', '.join(map(_flag, missing))}",
              file=sys.stderr)
        raise SystemExit(2)


def _checked_params(path: str, stored: dict, arrays: dict[str, np.ndarray], kind: str,
                    shapes: dict[str, tuple[int, ...]]) -> ParamSet:
    """The arrays of the checkpoint at ``path`` as one ParamSet, once they are exactly the
    tensors of ``shapes``, each at its shape, and ``stored`` says they are of ``kind``."""
    a_kind = f"{'an' if kind == 'nmt' else 'a'} {kind} checkpoint"
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise CheckpointError(f"{path}: not {a_kind}, missing {', '.join(missing)}")
    extra = [name for name in arrays if name not in shapes]
    if extra:
        raise CheckpointError(f"{path}: not {a_kind}, it also holds {', '.join(extra)}")
    for name, want in shapes.items():
        if arrays[name].shape != want:
            raise CheckpointError(f"{path}: {name} has shape {arrays[name].shape}, expected {want}")
    if stored.get("kind") != kind:
        raise CheckpointError(f"{path}: stored kind {stored.get('kind')!r}, expected {kind!r}")
    return params_from_arrays(arrays)


def _load_model(cfg: RunConfig) -> tuple[RunConfig, ParamSet, Vocabulary, Vocabulary]:
    """``cfg`` with the sizes of the translation model at ``cfg.ckpt``, the model, and its
    vocabularies, each of which must index exactly its embedding's rows.  Every tensor is
    checked against the V, E and H read from src_embed, tgt_embed and dec_init_W (0 if absent)."""
    stored, arrays = load_checkpoint(cfg.ckpt)
    sizes = {key: (*np.shape(arrays.get(name)), 0, 0)[axis] for key, name, axis in (
        ("src_vocab_size", "src_embed", 0), ("tgt_vocab_size", "tgt_embed", 0),
        ("embed_dim", "tgt_embed", 1), ("hidden_dim", "dec_init_W", 0))}
    params = _checked_params(cfg.ckpt, stored, arrays, "nmt", nmt_shapes(*sizes.values()))
    vocabs = []
    for path, embed in ((cfg.vocab_src, "src_embed"), (cfg.vocab_tgt, "tgt_embed")):
        vocab = Vocabulary.load(path)
        n_rows = params[embed].data.shape[0]
        if len(vocab) != n_rows:
            raise ValueError(f"{path}: vocabulary has {len(vocab)} tokens, but the checkpoint's "
                             f"{embed} has {n_rows} rows")
        vocabs.append(vocab)
    return dataclasses.replace(cfg, **sizes), params, *vocabs


def _load_usable_lexicon(path: str, src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                         sim: SimilarWordMap | None) -> Lexicon:
    """The lexicon at ``path``.  An entry is usable if its target is in the target
    vocabulary or, as sentence_memory borrows one, if its source word is outside the
    source vocabulary and both words have an in-vocabulary stand-in in ``sim``.
    Unusable entries are logged; a lexicon of only those is rejected."""
    lex = load_lexicon(path)
    sim = sim or SimilarWordMap()

    def has_stand_in(side: dict[str, list[str]], word: str, vocab: Vocabulary) -> bool:
        return any(c in vocab for c in side.get(word, ()))

    unusable = sum(1 for s, t in lex.entries if t not in tgt_vocab and not (
        s not in src_vocab and has_stand_in(sim.source, s, src_vocab)
        and has_stand_in(sim.target, t, tgt_vocab)))
    if unusable:
        logger.warning("%s: %d of %d lexicon entries have a target outside the target "
                       "vocabulary that no memory can borrow", path, unusable, len(lex))
    if unusable == len(lex):
        raise ValueError(f"{path}: no lexicon entry has a target in the target vocabulary "
                         "or one a memory can borrow; every sentence memory would be empty")
    return lex


# --- translation pipeline ---------------------------------------------------


def translate_lines(
    lines: list[str],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    nmt_params: ParamSet,
    beam: int,
    max_decode_len: int = 0,
    lexicon: Lexicon | None = None,
    mparams: MemoryParams | None = None,
    k: int = DEFAULT_MEMORY_K,
    sim: SimilarWordMap | None = None,
) -> list[str]:
    """Translate text lines; memory interpolation and OOV handling optional.

    Each sentence is encoded once; the sentence memory and the beam search
    share that encoding.
    """
    out_lines = []
    for line in lines:
        tokens = line.split()
        record = None
        if sim is not None and sim.source:
            tokens, record = apply_oov_substitution(tokens, src_vocab, sim)
        src_ids = encode_sentence(tokens, src_vocab, append_eos=True)
        enc = encode(src_ids, nmt_params)
        hook = mem = None
        if lexicon is not None and mparams is not None:
            mem = sentence_memory(tokens, enc.h, lexicon, tgt_vocab, k, record, sim)
            hook = make_memory_hook(mem, mparams, nmt_params)
        hyp = beam_search(src_ids, nmt_params, beam, max_decode_len, hook, enc=enc)
        words = tgt_vocab.tokens if mem is None else mem.words(tgt_vocab)
        out_lines.append(" ".join(decode_ids(hyp.tokens, words)))
    return out_lines


# --- subcommands -------------------------------------------------------------


def _cmd_build_vocab(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "src", "tgt", "vocab_src", "vocab_tgt")
    corpus = load_parallel_corpus(cfg.src, cfg.tgt)
    for side, path, size in ((0, cfg.vocab_src, cfg.src_vocab_size),
                             (1, cfg.vocab_tgt, cfg.tgt_vocab_size)):
        vocab = build_vocabulary([pair[side] for pair in corpus.pairs], size)
        vocab.save(path)
        print(f"wrote {len(vocab)} tokens to {path}")
    return 0


def _cmd_train_lexicon(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "src", "tgt", "out")
    check_ibm1_settings(args.iters, args.floor)
    corpus = load_parallel_corpus(cfg.src, cfg.tgt)
    lex = train_ibm1(corpus, iterations=args.iters, prob_floor=args.floor)
    save_lexicon(lex, cfg.out)
    lls = lex.log_likelihood["t_given_s"]
    print(f"wrote {len(lex)} entries to {cfg.out} "
          f"(log-likelihood {lls[0]:.3f} -> {lls[-1]:.3f})")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "src", "tgt", "vocab_src", "vocab_tgt", "ckpt")
    corpus = load_parallel_corpus(cfg.src, cfg.tgt)
    src_vocab = Vocabulary.load(cfg.vocab_src)
    tgt_vocab = Vocabulary.load(cfg.vocab_tgt)
    cfg.src_vocab_size = len(src_vocab)
    cfg.tgt_vocab_size = len(tgt_vocab)
    encoded = [
        (encode_sentence(s, src_vocab, True), encode_sentence(t, tgt_vocab, True))
        for s, t in corpus.pairs
    ]
    try:
        batches = make_batches(encoded, cfg.batch_size, cfg.max_len, cfg.seed)
    except EmptyTrainingSetError as exc:
        raise EmptyTrainingSetError(f"{cfg.src}, {cfg.tgt}: {exc}") from exc
    params = init_nmt_params(cfg, cfg.seed)
    losses = train_model(batches, params, cfg.lr, cfg.train_steps)
    logger.info("loss %.4f -> %.4f over %d steps", losses[0], losses[-1], len(losses))
    save_checkpoint(cfg.ckpt, params, {"kind": "nmt", **_model_keys(cfg)})
    print(f"wrote checkpoint {cfg.ckpt} (final loss {losses[-1]:.4f})")
    return 0


def _cmd_train_memory(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "src", "tgt", "vocab_src", "vocab_tgt", "lexicon", "ckpt", "mem_ckpt")
    corpus = load_parallel_corpus(cfg.src, cfg.tgt)
    cfg, nmt_params, src_vocab, tgt_vocab = _load_model(cfg)
    lex = _load_usable_lexicon(cfg.lexicon, src_vocab, tgt_vocab, None)
    mparams = init_memory_params(cfg, cfg.seed, cfg.beta)
    losses = train_memory_attention(
        corpus.pairs, src_vocab, tgt_vocab, nmt_params, mparams, lex,
        epochs=cfg.memory_epochs, lr=cfg.memory_lr, k=cfg.memory_k,
    )
    if not losses and cfg.memory_epochs > 0:
        raise ValueError(f"{cfg.lexicon}: no reference word of the corpus is among its "
                         "sentence's lexicon candidates; the memory would train nothing")
    save_checkpoint(cfg.mem_ckpt, mparams.pset,
                    {"kind": "memory", **{key: getattr(cfg, key) for key in _MEMORY_KEYS}})
    tail = f" (loss {losses[0]:.4f} -> {losses[-1]:.4f})" if losses else ""
    print(f"wrote memory checkpoint {cfg.mem_ckpt}{tail}")
    return 0


def _cmd_translate(args) -> int:
    layers = _config_layers(args)
    cfg = _layered_config(layers)
    _require(cfg, "src", "vocab_src", "vocab_tgt", "ckpt", "out")
    if bool(cfg.lexicon) != bool(cfg.mem_ckpt):
        print("error: --lexicon and --mem-ckpt go together: decoding with memory needs both",
              file=sys.stderr)
        raise SystemExit(2)
    if cfg.sim_tgt and not (cfg.sim_src and cfg.mem_ckpt):
        print("error: --sim-tgt needs --sim-src and --mem-ckpt: only the memory at a "
              "substituted source word reads it", file=sys.stderr)
        raise SystemExit(2)
    cfg, nmt_params, src_vocab, tgt_vocab = _load_model(cfg)
    sim = None
    if cfg.sim_src or cfg.sim_tgt:
        sim = SimilarWordMap.load(cfg.sim_src or None, cfg.sim_tgt or None)
    lexicon = mparams = None
    if cfg.mem_ckpt:
        lexicon = _load_usable_lexicon(cfg.lexicon, src_vocab, tgt_vocab, sim)
        stored, mem_arrays = load_checkpoint(cfg.mem_ckpt)
        mem_pset = _checked_params(cfg.mem_ckpt, stored, mem_arrays, "memory",
                                   memory_shapes(cfg.embed_dim, cfg.hidden_dim))
        # the flags, then the config file, then what the memory checkpoint stores
        cfg = _layered_config([(cfg.mem_ckpt, {key: stored[key] for key in _MEMORY_KEYS
                                               if key in stored}), *layers])
        mparams = MemoryParams(mem_pset, cfg.beta)
    outputs = translate_lines(
        read_lines(cfg.src), src_vocab, tgt_vocab, nmt_params, cfg.beam_size,
        cfg.max_decode_len, lexicon=lexicon, mparams=mparams, k=cfg.memory_k, sim=sim,
    )
    with open(cfg.out, "w", encoding="utf-8") as f:
        for line in outputs:
            f.write(line + "\n")
    print(f"translated {len(outputs)} sentences to {cfg.out}")
    return 0


def _cmd_score(args) -> int:
    hyps = [l.split() for l in read_lines(args.hyp)]
    refs = [l.split() for l in read_lines(args.ref)]
    try:
        report = corpus_bleu(hyps, refs)
    except ValueError as exc:
        raise ValueError(f"{args.hyp}, {args.ref}: {exc}") from exc
    recalled = recalled_words(hyps, refs)
    print(f"BLEU: {report.bleu:.2f}")
    if args.breakdown:
        for n, p in enumerate(report.precisions, start=1):
            print(f"p{n}: {p:.6f}")
        print(f"BP: {report.brevity_penalty:.6f}")
        print(f"hyp_length: {report.hyp_length}")
        print(f"ref_length: {report.ref_length}")
        print(f"recalled_words: {recalled}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .corpus import Batch
    from .memory import TrainingRecord, chunk_loss, training_chunk

    seed = args.seed
    cfg = NmtConfig(src_vocab_size=20, tgt_vocab_size=20, embed_dim=8, hidden_dim=12,
                    beam_size=2, batch_size=2, lr=0.001)
    rng = np.random.default_rng(seed)
    params = init_nmt_params(cfg, seed)
    # check at a generic point: near-zero states make finite differences
    # cancellation-bound on this small an instance
    for t in params.params.values():
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
    batch = Batch(
        src=rng.integers(4, 20, size=(2, 5)),
        src_mask=np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 1, 0]]),
        tgt=rng.integers(4, 20, size=(2, 5)),
        tgt_mask=np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]]),
    )
    batch.tgt[:, -1] = EOS_ID
    batch.tgt[1, 2] = EOS_ID
    err_nmt = grad_check(lambda p: teacher_forced_loss(batch, p), params,
                         max_samples_per_tensor=10, seed=seed)
    print(f"nmt loss max relative gradient error: {err_nmt:.3e}")

    mparams = init_memory_params(cfg, seed)
    for t in mparams.pset.params.values():
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
    # the loss memory training minimizes, over two records of K = 4 and K = 2,
    # so the shorter record's pad slots are in play
    e, h = cfg.embed_dim, cfg.hidden_dim
    chunk = training_chunk([
        TrainingRecord(u=rng.standard_normal((n_entries, e + 2 * h)),
                       s_prev=rng.standard_normal((len(target), h)),
                       y_emb=params["tgt_embed"].data[rng.integers(4, 20, size=len(target))],
                       target=np.array(target))
        for n_entries, target in ((4, [1, 3, 0]), (2, [1, 0]))
    ])
    err_mem = grad_check(lambda p: chunk_loss(chunk, p), mparams.pset, seed=seed)
    print(f"memory loss max relative gradient error: {err_mem:.3e}")
    ok = err_nmt < 1e-4 and err_mem < 1e-4
    print("gradient check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _model_keys(cfg: RunConfig) -> dict:
    """The translation checkpoint's snapshot: NmtConfig's fields, in order, then the seed."""
    return {name: getattr(cfg, name) for name in [f.name for f in fields(NmtConfig)] + ["seed"]}


# --- argument parsing --------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    """--config, then one flag per config key, parsed as the key's field type into the key."""
    types = {f.name: f.type for f in fields(RunConfig)}
    p.add_argument("--config", type=str)
    for key in keys:
        p.add_argument(_flag(key), dest=key, type=_CASTS[types[key]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mnmt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build both vocabulary files from the pair corpus")
    _add_config_flags(p, "src", "tgt", "vocab_src", "vocab_tgt")
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("train-lexicon", help="estimate a word-mapping table by EM")
    _add_config_flags(p, "src", "tgt", "out")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--floor", type=float, default=0.01)
    p.set_defaults(func=_cmd_train_lexicon)

    p = sub.add_parser("train", help="train the translation model")
    _add_config_flags(p, "src", "tgt", "vocab_src", "vocab_tgt", "ckpt", "seed", "train_steps")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-memory", help="train the memory attention (model frozen)")
    _add_config_flags(p, "src", "tgt", "vocab_src", "vocab_tgt", "lexicon", "ckpt",
                      "mem_ckpt", "beta", "memory_k", "seed", "memory_epochs")
    p.set_defaults(func=_cmd_train_memory)

    p = sub.add_parser("translate", help="decode a file of source sentences")
    _add_config_flags(p, "src", "vocab_src", "vocab_tgt", "lexicon", "sim_src", "sim_tgt",
                      "ckpt", "mem_ckpt", "beam_size", "beta", "memory_k", "out")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("score", help="BLEU and recalled-word diagnostics")
    p.add_argument("--hyp", type=str, required=True)
    p.add_argument("--ref", type=str, required=True)
    p.add_argument("--breakdown", action="store_true")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("gradcheck", help="finite-difference check at desk scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)
