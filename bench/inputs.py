"""Seeded synthetic inputs for the workloads, written as the files a user of
the command line would have: parallel text and similar-word maps.

Everything here is made from a seed with numpy's generator, so the same seed
gives byte-identical files.  The program only ever sees the files.
"""

from __future__ import annotations

import os

import numpy as np

# the c03 acceptance task
TASK_SEED = 0          # c03's seed
COMMON = 16
RARE = 20
OOV = 8
TRAIN = 150
OOV_EVERY = 8          # every 8th held-out sentence carries an OOV word
LEN = (4, 7)

# Zipfian filler pairs for the lexicon corpus: each source word has a
# preferred translation, kept 85% of the time; the rest are Zipfian noise
FILLER_TYPES = 8000
FILLER_LEN = (10, 19)
FILLER_ZIPF = 1.1
FILLER_NOISE = 0.15


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _write_parallel(path_stem: str, pairs) -> None:
    _write_lines(path_stem + ".src", (" ".join(s) for s, _ in pairs))
    _write_lines(path_stem + ".tgt", (" ".join(t) for _, t in pairs))


def _write_sim(path: str, table: dict[str, list[str]]) -> None:
    _write_lines(path, ("\t".join([k, *v]) for k, v in table.items()))


def _words():
    commons = [(f"s{i:02d}", f"t{i:02d}") for i in range(COMMON)]
    rares = [(f"rs{i:02d}", f"rt{i:02d}") for i in range(RARE)]
    oovs = [(f"os{i:02d}", f"ot{i:02d}") for i in range(OOV)]
    return commons, rares, oovs


def _sentence(rng, commons, word_map, planted: str | None = None):
    n = int(rng.integers(LEN[0], LEN[1] + 1))
    src = [commons[i][0] for i in rng.integers(0, COMMON, size=n)]
    if planted is not None:
        src[int(rng.integers(0, n))] = planted
    return src, [word_map[w] for w in src]


def _zipf_ids(rng, n_types: int, size: int) -> np.ndarray:
    ranks = np.arange(1, n_types + 1, dtype=np.float64)
    p = ranks ** -FILLER_ZIPF
    return rng.choice(n_types, size=size, p=p / p.sum())


def _filler(rng, n_pairs: int):
    translation = rng.permutation(FILLER_TYPES)
    pairs = []
    for n in rng.integers(FILLER_LEN[0], FILLER_LEN[1] + 1, size=n_pairs):
        src = _zipf_ids(rng, FILLER_TYPES, int(n))
        tgt = translation[src]
        noisy = rng.random(int(n)) < FILLER_NOISE
        tgt[noisy] = _zipf_ids(rng, FILLER_TYPES, int(noisy.sum()))
        pairs.append(([f"a{i}" for i in src], [f"b{i}" for i in tgt]))
    return pairs


def write_task(out: str, seed: int, heldout: int, filler: int) -> None:
    """Word-for-word task with rare words seen once and OOV words seen never.

    The training side is the c03 acceptance task at its seed 0 and does not
    depend on ``seed``: at this scale two training seeds differ by up to 2x
    in held-out BLEU, which would swamp any comparison, while one trained
    model scores within a few percent across held-out samples.  ``seed``
    draws the ``heldout`` sentences and the ``filler`` Zipfian pairs.

    Files: ``train.*`` (NMT and memory training), ``lexcorpus.*`` (the
    training pairs, one dictionary sentence per OOV word and the filler
    pairs, for IBM-1), ``heldout.*`` (each sentence holds one rare or OOV
    word) and ``sim.src``/``sim.tgt`` (OOV word -> in-vocabulary stand-in).
    The filler words share no type with the task, and IBM-1 has no NULL
    word, so they add EM work without changing the task's lexicon entries.
    """
    commons, rares, oovs = _words()
    word_map = dict(commons + rares + oovs)
    rng = np.random.default_rng(TASK_SEED)
    train = [_sentence(rng, commons, word_map) for _ in range(TRAIN)]
    train += [_sentence(rng, commons, word_map, rs) for rs, _ in rares]
    train = [train[i] for i in rng.permutation(len(train))]
    dictionary = [_sentence(rng, commons, word_map, os_) for os_, _ in oovs]

    rng = np.random.default_rng(seed)
    held = []
    for j in range(heldout):
        if j % OOV_EVERY == 0:
            planted = oovs[(j // OOV_EVERY) % OOV][0]
        else:
            planted = rares[j % RARE][0]
        held.append(_sentence(rng, commons, word_map, planted))

    os.makedirs(out, exist_ok=True)
    _write_parallel(os.path.join(out, "train"), train)
    _write_parallel(os.path.join(out, "lexcorpus"), train + dictionary + _filler(rng, filler))
    _write_parallel(os.path.join(out, "heldout"), held)
    _write_sim(os.path.join(out, "sim.src"),
               {o: [commons[i % COMMON][0]] for i, (o, _) in enumerate(oovs)})
    _write_sim(os.path.join(out, "sim.tgt"),
               {t: [commons[i % COMMON][1]] for i, (_, t) in enumerate(oovs)})
