"""Golden outputs of the decoder on a c03-scale task, pinned as literals.

Any change to how the decoder step is computed (refactoring, batching the
beam, hoisting GEMMs out of the recurrence) must reproduce these numbers:
tokens exactly, floats within 1e-9 relative, and the output strings of
`translate_lines` with memory and OOV borrowing exactly.  The literals were captured
from the per-sentence implementation and must never be re-captured to make
a change pass.
"""

import numpy as np
import pytest

from conftest import desk_config, make_mapped_task, quick_train
from mnmt.cli import translate_lines
from mnmt.corpus import ParallelCorpus, encode_sentence, make_batches
from mnmt.lexicon import Lexicon, train_ibm1
from mnmt.memory import (
    SimilarWordMap,
    init_memory_params,
    make_memory_hook,
    sentence_memory,
    train_memory_attention,
)
from mnmt.model import beam_search, encode, teacher_forced_loss
from mnmt.numerics import no_grad

REL = 1e-9
SEED = 0
STEPS = 60
BEAMS = (1, 4, 12)
LINE_BEAMS = (4, 12)
N_SENTENCES = 10


def _capture() -> dict:
    task = make_mapped_task(n_common=16, n_rare=20, n_train=150, n_heldout=N_SENTENCES, seed=SEED)
    cfg = desk_config(len(task.src_vocab), len(task.tgt_vocab),
                      embed=24, hidden=32, batch=20, lr=0.005)
    params, losses = quick_train(task, cfg, seed=SEED, steps=STEPS)
    # a padded batch, scored with the trained model
    (batch, *_) = make_batches(task.encoded_train(), cfg.batch_size, max_len=50, seed=SEED + 1)
    with no_grad():
        fixed_loss = float(teacher_forced_loss(batch, params).data)

    lex = train_ibm1(ParallelCorpus(task.train_pairs), iterations=10, prob_floor=0.1)
    mparams = init_memory_params(cfg, SEED)
    mem_losses = train_memory_attention(task.train_pairs, task.src_vocab, task.tgt_vocab,
                                        params, mparams, lex, epochs=2, lr=0.02, batch_pairs=16)

    plain, hooked = {}, {}
    for beam in BEAMS:
        plain[beam], hooked[beam] = [], []
        for src_toks, _ in task.heldout_pairs:
            ids = encode_sentence(src_toks, task.src_vocab, append_eos=True)
            hyp = beam_search(ids, params, beam)
            plain[beam].append((hyp.tokens, hyp.log_prob))
            mem = sentence_memory(src_toks, encode(ids, params).h, lex, task.tgt_vocab, 3)
            hyp = beam_search(ids, params, beam, None, make_memory_hook(mem, mparams, params))
            hooked[beam].append((hyp.tokens, hyp.log_prob))

    # whole lines through memory and OOV borrowing: every held-out sentence
    # with one word replaced by an OOV whose planted lexicon translation is
    # itself OOV, so it decodes through an extended label backed by t05
    oov_lex = Lexicon({**lex.entries, ("oov_s", "oov_t"): (0.9, 0.9)})
    sim = SimilarWordMap(source={"oov_s": ["s05", "s06"]}, target={"oov_t": ["t05"]})
    lines = []
    for j, (src_toks, _) in enumerate(task.heldout_pairs):
        toks = list(src_toks)
        toks[j % len(toks)] = "oov_s"
        lines.append(" ".join(toks))
    lines += [" ".join(src_toks) for src_toks, _ in task.heldout_pairs[:3]]
    translated = {beam: translate_lines(lines, task.src_vocab, task.tgt_vocab, params, beam,
                                        lexicon=oov_lex, mparams=mparams, k=3, sim=sim)
                  for beam in LINE_BEAMS}
    return {"fixed_loss": fixed_loss, "losses": losses, "mem_losses": mem_losses,
            "plain": plain, "hooked": hooked, "translated": translated}


@pytest.fixture(scope="module")
def run():
    return _capture()


def _close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=REL, abs=0.0)


def test_teacher_forced_loss_on_fixed_batch(run):
    _close([run["fixed_loss"]], [GOLDEN["fixed_loss"]])


def test_training_losses(run):
    _close(run["losses"], GOLDEN["losses"])


def test_memory_training_losses(run):
    _close(run["mem_losses"], GOLDEN["mem_losses"])


@pytest.mark.parametrize("kind", ["plain", "hooked"])
@pytest.mark.parametrize("beam", BEAMS)
def test_decodes(run, kind, beam):
    got, want = run[kind][beam], GOLDEN[kind][beam]
    assert [t for t, _ in got] == [t for t, _ in want]
    _close([lp for _, lp in got], [lp for _, lp in want])


@pytest.mark.parametrize("beam", LINE_BEAMS)
def test_translated_lines_with_memory_and_oov(run, beam):
    assert run["translated"][beam] == GOLDEN["translated"][beam]


GOLDEN = {
    "fixed_loss": 2.66026566844761,
    "losses": [
        3.691522284637431, 3.680312548884743, 3.6658324353328973,
        3.6508561720225776, 3.6226244252499247, 3.5993632987721114,
        3.5322126295715854, 3.454585237878042, 3.336623043350942,
        3.2073263742108176, 3.0563510711303827, 2.89504724623655,
        2.9181717142387567, 2.8879078805148377, 3.070499881672298,
        2.930672430516181, 2.8269158595777553, 2.8692746799296045,
        2.880524030091766, 2.927612166128392, 2.7981789995739157,
        2.95111523707444, 2.894567359684785, 3.021169091522134,
        2.851044812791054, 2.815725247104674, 2.8358193370145908,
        2.849152159287496, 2.8390428268552608, 2.755407325845458,
        2.85406835350643, 2.8174245334445986, 2.915297599695175,
        2.814950725436705, 2.7710614699697467, 2.7684471624047484,
        2.8056663175087335, 2.80706737045808, 2.713361146777233,
        2.7941318437382456, 2.7994085477636745, 2.8656314050026603,
        2.7695644875363357, 2.711781075159067, 2.676848214946848,
        2.7266805103592375, 2.748078150129894, 2.617786056566944,
        2.6954187762618003, 2.7328305285392065, 2.8144108162653887,
        2.704948010650654, 2.643303391871807, 2.587130171811329,
        2.637485338594687, 2.681056645354242, 2.555381176189804,
        2.6461624880168433, 2.6574502609962876, 2.8581186599876163,
    ],
    "mem_losses": [1.481106598120248, 0.9235107624603954],
    "plain": {
        1: [
            ([5, 5, 7, 4, 2], -12.155094294119667),
            ([5, 5, 5, 4, 2], -12.674597654047915),
            ([5, 5, 5, 4, 2], -12.671628939594044),
            ([5, 5, 5, 4, 2], -12.41074833304957),
            ([5, 5, 5, 4, 2], -12.681235144287793),
            ([5, 5, 5, 5, 4, 2], -14.664422967549605),
            ([5, 5, 7, 4, 2], -12.08996926395413),
            ([5, 5, 5, 5, 4, 2], -14.230918226813687),
            ([5, 5, 5, 5, 4, 4, 2], -16.562366920975926),
            ([5, 5, 5, 5, 4, 2], -14.933449023553987),
        ],
        4: [
            ([5, 7, 7, 4, 2], -12.122770747209932),
            ([5, 5, 7, 4, 2], -12.646655050039094),
            ([5, 5, 7, 4, 2], -12.64543371396542),
            ([5, 7, 7, 4, 2], -12.350854650074801),
            ([5, 5, 7, 4, 2], -12.655461493512897),
            ([5, 5, 7, 5, 4, 2], -14.647968714518717),
            ([5, 7, 7, 4, 2], -12.055959905778257),
            ([5, 5, 7, 5, 2], -12.839559242229926),
            ([5, 5, 5, 5, 4, 2], -15.165555986679149),
            ([5, 5, 5, 7, 4, 2], -14.927272927515228),
        ],
        12: [
            ([5, 7, 7, 4, 2], -12.122770747209932),
            ([5, 7, 7, 4, 2], -12.619533957309796),
            ([5, 7, 7, 4, 2], -12.619855135194971),
            ([5, 7, 7, 4, 2], -12.350854650074801),
            ([5, 7, 7, 4, 2], -12.631827602063634),
            ([5, 7, 7, 7, 4, 2], -14.617514782741702),
            ([5, 7, 7, 4, 2], -12.055959905778257),
            ([5, 7, 7, 7, 2], -12.816581694482817),
            ([5, 5, 5, 5, 4, 2], -15.165555986679149),
            ([5, 5, 7, 7, 4, 2], -14.918672309182506),
        ],
    },
    "hooked": {
        1: [
            ([36, 5, 15, 8, 8, 8, 2], -8.928884820777741),
            ([19, 19, 8, 13, 13, 13, 2], -8.745605315269913),
            ([9, 17, 12, 12, 10, 35, 2], -8.82365310766361),
            ([10, 8, 8, 15, 29, 2], -7.833034125074386),
            ([11, 10, 18, 19, 28, 28, 2], -9.490576265116395),
            ([9, 8, 7, 13, 4, 24, 24, 2], -11.211309007315007),
            ([19, 19, 8, 8, 8, 2], -7.956000913423759),
            ([5, 6, 6, 10, 11, 11, 2], -8.599910247270758),
            ([6, 17, 17, 16, 16, 5, 5, 2], -11.363289557263803),
            ([9, 10, 6, 6, 17, 17, 2], -9.874555446603209),
        ],
        4: [
            ([5, 5, 15, 8, 8, 2], -8.335306755291256),
            ([19, 19, 8, 13, 13, 2], -8.32947579074657),
            ([9, 17, 12, 12, 2], -7.9855629859135195),
            ([10, 8, 8, 15, 2], -7.243723981112952),
            ([11, 10, 18, 19, 2], -8.33410945869712),
            ([9, 8, 7, 7, 4, 2], -9.785497844563672),
            ([19, 19, 8, 8, 2], -7.331745566909799),
            ([5, 6, 6, 10, 11, 2], -8.40016553361674),
            ([6, 17, 17, 16, 16, 2], -11.192862228473832),
            ([9, 10, 6, 6, 17, 17, 2], -9.874555446603209),
        ],
        12: [
            ([5, 5, 15, 8, 8, 2], -8.335306755291256),
            ([19, 19, 8, 13, 13, 2], -8.32947579074657),
            ([9, 17, 12, 12, 2], -7.9855629859135195),
            ([10, 8, 8, 15, 2], -7.243723981112952),
            ([11, 10, 18, 19, 2], -8.33410945869712),
            ([9, 8, 7, 7, 4, 2], -9.785497844563672),
            ([19, 19, 8, 8, 2], -7.331745566909799),
            ([5, 6, 6, 10, 11, 2], -8.40016553361674),
            ([6, 17, 17, 16, 16, 2], -11.192862228473832),
            ([9, 10, 6, 6, 17, 17, 2], -9.874555446603209),
        ],
    },
    "translated": {
        4: [
            "oov_t t15 t15 t02",
            "t07 oov_t t13 t13",
            "t04 t12 t12 oov_t",
            "t06 t13 t13 oov_t",
            "t14 t06 t07 t03 oov_t",
            "t04 t13 t08 t08 oov_t",
            "t07 t07 t13 t13",
            "t15 oov_t oov_t t06 t14",
            "t11 t11 t01 t01 t15",
            "t04 oov_t t11 t11 t12 t12",
            "t15 t15 t02 t13 t13",
            "t07 t07 t13 t10 t10",
            "t04 t12 t05 t05",
        ],
        12: [
            "oov_t t15 t15 t02",
            "t07 oov_t t13 t13 t10",
            "t04 t12 t12 oov_t",
            "t06 t13 t13 oov_t",
            "t14 t06 t07 t03 oov_t",
            "t04 t13 t08 t08 oov_t",
            "t07 t07 t13 t13",
            "t15 oov_t oov_t t06 t14",
            "t11 t11 t01 t01 t15",
            "t04 oov_t t11 t11 t12 t12",
            "t15 t15 t02 t13 t13",
            "t07 t07 t13 t10 t10",
            "t04 t12 t05 t05",
        ],
    },
}
