"""Attention-based GRU translation with a lexicon-derived memory component."""

from .corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Batch,
    ParallelCorpus,
    Vocabulary,
    build_vocabulary,
    encode_sentence,
    load_parallel_corpus,
    make_batches,
)
from .lexicon import Lexicon, lexicon_lookup, load_lexicon, save_lexicon, train_ibm1
from .model import (
    EncodedSource,
    Hypothesis,
    NmtConfig,
    beam_search,
    encode,
    init_nmt_params,
    train_model,
    train_step,
)
from .memory import (
    MemoryParams,
    MergedMemory,
    SimilarWordMap,
    apply_oov_substitution,
    init_memory_params,
    train_memory_attention,
)
from .bleu import BleuReport, bleu, brevity_penalty, ngram_precisions, recalled_words
from .numerics import ParamSet, adam_step, grad_check

__version__ = "0.1.0"
