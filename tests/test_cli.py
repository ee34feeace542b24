import re
from dataclasses import fields

import pytest

from conftest import desk_config, make_mapped_task
from mnmt import cli
from mnmt.cli import RunConfig, main
from mnmt.checkpoint import checkpoint_checksum, save_checkpoint
from mnmt.corpus import build_vocabulary
from mnmt.lexicon import Lexicon, save_lexicon
from mnmt.memory import init_memory_params
from mnmt.model import NmtConfig, init_nmt_params


@pytest.fixture
def workdir(tmp_path):
    task = make_mapped_task(n_common=8, n_train=24, seed=3)
    src = tmp_path / "train.src"
    tgt = tmp_path / "train.tgt"
    src.write_text("\n".join(" ".join(s) for s, _ in task.train_pairs) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(" ".join(t) for _, t in task.train_pairs) + "\n", encoding="utf-8")
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(
        "src_vocab_size = 40\n"
        "tgt_vocab_size = 40\n"
        "embed_dim = 8\n"
        "hidden_dim = 10\n"
        "batch_size = 8\n"
        "lr = 0.01\n"
        "train_steps = 12\n"
        "beam_size = 2\n",
        encoding="utf-8",
    )
    return tmp_path, task


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no_such_key"):
            RunConfig.from_file(str(bad))

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lr = 0.25\nbeam_size = twelve\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))}: line 2: beam_size: invalid literal"):
            RunConfig.file_values(str(bad))

    def test_comments_and_types(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("# comment\nlr = 0.25\nbeam_size = 7\n", encoding="utf-8")
        cfg = RunConfig.from_file(str(good))
        assert cfg.lr == 0.25 and cfg.beam_size == 7


class TestCommands:
    # a 12-step model may emit hypotheses too short for 4-gram scoring
    @pytest.mark.filterwarnings("ignore:hypotheses too short")
    def test_full_pipeline(self, workdir, capsys):
        d, task = workdir
        assert main(["build-vocab", "--src", str(d / "train.src"),
                     "--max-size", "40", "--out", str(d / "vocab.src")]) == 0
        assert main(["build-vocab", "--src", str(d / "train.tgt"),
                     "--max-size", "40", "--out", str(d / "vocab.tgt")]) == 0
        assert main(["train-lexicon", "--src", str(d / "train.src"),
                     "--tgt", str(d / "train.tgt"), "--iters", "5",
                     "--floor", "0.05", "--out", str(d / "lex.tsv")]) == 0
        assert main(["train", "--config", str(d / "desk.cfg"),
                     "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--seed", "1"]) == 0
        assert main(["train-memory", "--config", str(d / "desk.cfg"),
                     "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--lexicon", str(d / "lex.tsv"), "--ckpt", str(d / "model.ckpt"),
                     "--mem-ckpt", str(d / "mem.ckpt"), "--epochs", "2", "--seed", "1"]) == 0

        test_src = d / "test.src"
        test_src.write_text("\n".join(" ".join(s) for s, _ in task.train_pairs[:4]) + "\n",
                            encoding="utf-8")
        assert main(["translate", "--config", str(d / "desk.cfg"),
                     "--src", str(test_src),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--beam", "2",
                     "--out", str(d / "plain.out")]) == 0
        lines = (d / "plain.out").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4

        ref = d / "test.ref"
        ref.write_text("\n".join(" ".join(t) for _, t in task.train_pairs[:4]) + "\n",
                       encoding="utf-8")
        assert main(["score", "--hyp", str(d / "plain.out"), "--ref", str(ref),
                     "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "BLEU:" in out
        for key in ("p1:", "p2:", "p3:", "p4:", "BP:", "hyp_length:", "ref_length:",
                    "recalled_words:"):
            assert key in out

    def test_translate_beta_zero_matches_no_memory(self, workdir):
        d, task = workdir
        for name in ("vocab.src", "vocab.tgt"):
            side = "train.src" if name.endswith("src") else "train.tgt"
            main(["build-vocab", "--src", str(d / side), "--max-size", "40",
                  "--out", str(d / name)])
        main(["train-lexicon", "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
              "--iters", "5", "--out", str(d / "lex.tsv")])
        main(["train", "--config", str(d / "desk.cfg"),
              "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
              "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
              "--ckpt", str(d / "model.ckpt"), "--seed", "2"])
        main(["train-memory", "--config", str(d / "desk.cfg"),
              "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
              "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
              "--lexicon", str(d / "lex.tsv"), "--ckpt", str(d / "model.ckpt"),
              "--mem-ckpt", str(d / "mem.ckpt"), "--epochs", "2", "--seed", "2"])
        test_src = d / "test.src"
        test_src.write_text("\n".join(" ".join(s) for s, _ in task.train_pairs[:5]) + "\n",
                            encoding="utf-8")
        base = ["--config", str(d / "desk.cfg"), "--src", str(test_src),
                "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--ckpt", str(d / "model.ckpt"), "--beam", "2"]
        main(["translate", *base, "--out", str(d / "no_mem.out")])
        main(["translate", *base, "--lexicon", str(d / "lex.tsv"),
              "--mem-ckpt", str(d / "mem.ckpt"), "--beta", "0.0",
              "--out", str(d / "beta0.out")])
        assert (d / "no_mem.out").read_bytes() == (d / "beta0.out").read_bytes()

    def test_train_is_deterministic(self, workdir):
        d, _ = workdir
        for name in ("vocab.src", "vocab.tgt"):
            side = "train.src" if name.endswith("src") else "train.tgt"
            main(["build-vocab", "--src", str(d / side), "--max-size", "40",
                  "--out", str(d / name)])
        args = ["train", "--config", str(d / "desk.cfg"),
                "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--seed", "7"]
        main([*args, "--ckpt", str(d / "a.ckpt")])
        main([*args, "--ckpt", str(d / "b.ckpt")])
        assert checkpoint_checksum(str(d / "a.ckpt")) == checkpoint_checksum(str(d / "b.ckpt"))

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out


@pytest.fixture
def model_files(workdir):
    """Vocabularies, lexicon, an untrained model and a memory stored with beta 0.25."""
    d, task = workdir
    src_vocab = build_vocabulary([s for s, _ in task.train_pairs], max_size=40)
    tgt_vocab = build_vocabulary([t for _, t in task.train_pairs], max_size=40)
    src_vocab.save(str(d / "vocab.src"))
    tgt_vocab.save(str(d / "vocab.tgt"))
    save_lexicon(Lexicon({("s00", "t00"): (0.9, 0.9)}), str(d / "lex.tsv"))
    cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=8, hidden=10)
    save_checkpoint(str(d / "model.ckpt"), init_nmt_params(cfg, 0), {"kind": "nmt"})
    save_checkpoint(str(d / "mem.ckpt"), init_memory_params(cfg, 0).pset,
                    {"kind": "memory", "beta": 0.25})
    (d / "test.src").write_text(" ".join(task.train_pairs[0][0]) + "\n", encoding="utf-8")
    return d, src_vocab, tgt_vocab


class TestTranslateBeta:
    @pytest.mark.parametrize("file_beta, flag, want", [
        (None, None, 0.25),   # only the memory checkpoint stores beta
        (0.5, None, 0.5),     # the config file overrides the checkpoint
        (0.5, "0.75", 0.75),  # the flag overrides both
    ])
    def test_flag_then_file_then_checkpoint(self, model_files, monkeypatch, file_beta, flag, want):
        d, _, _ = model_files
        if file_beta is not None:
            with open(d / "desk.cfg", "a", encoding="utf-8") as f:
                f.write(f"beta = {file_beta}\n")
        seen = []
        monkeypatch.setattr(cli, "translate_lines",
                            lambda lines, *a, mparams, **kw: seen.append(mparams.beta) or lines)
        argv = ["translate", "--config", str(d / "desk.cfg"), "--src", str(d / "test.src"),
                "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                "--mem-ckpt", str(d / "mem.ckpt"), "--out", str(d / "out.txt")]
        assert main(argv + (["--beta", flag] if flag else [])) == 0
        assert seen == [want]


class TestVocabularyMismatch:
    @pytest.mark.parametrize("command", ["translate", "train-memory"])
    @pytest.mark.parametrize("side, extra", [("src", ["zz1"]), ("tgt", None)])
    def test_rejected_naming_the_file(self, model_files, command, side, extra):
        d, src_vocab, tgt_vocab = model_files
        vocab = src_vocab if side == "src" else tgt_vocab
        # one token more than the checkpoint's rows, or one fewer
        tokens = vocab.tokens + extra if extra else vocab.tokens[:-1]
        bad = d / f"bad.{side}"
        bad.write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
        vocabs = {"src": str(d / "vocab.src"), "tgt": str(d / "vocab.tgt"), side: str(bad)}
        argv = [command, "--vocab-src", vocabs["src"], "--vocab-tgt", vocabs["tgt"],
                "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                "--mem-ckpt", str(d / "mem.ckpt")]
        if command == "translate":
            argv += ["--src", str(d / "test.src"), "--out", str(d / "out.txt")]
        else:
            argv += ["--src", str(d / "train.src"), "--tgt", str(d / "train.tgt")]
        with pytest.raises(ValueError, match=f"bad.{side}"):
            main(argv)


class TestMemoryCheckpointMismatch:
    def _translate(self, d, mem_ckpt):
        return main(["translate", "--src", str(d / "test.src"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                     "--mem-ckpt", str(mem_ckpt), "--out", str(d / "out.txt")])

    def test_other_hidden_size_rejected_naming_the_file(self, model_files):
        d, src_vocab, tgt_vocab = model_files
        # the model has E=8, H=10; this memory was built for H=12
        cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=8, hidden=12)
        bad = d / "mem_h12.ckpt"
        save_checkpoint(str(bad), init_memory_params(cfg, 0).pset, {"kind": "memory"})
        with pytest.raises(ValueError, match=r"mem_h12\.ckpt: mem_Ws has shape \(12, 12\)"):
            self._translate(d, bad)

    def test_translation_checkpoint_as_memory_rejected(self, model_files):
        d, _, _ = model_files
        with pytest.raises(ValueError, match=r"model\.ckpt: not a memory checkpoint, missing "
                                             r"mem_Ws, mem_Wu, mem_Wy, mem_v"):
            self._translate(d, d / "model.ckpt")

    def test_matching_memory_accepted(self, model_files):
        d, _, _ = model_files
        assert self._translate(d, d / "mem.ckpt") == 0
        assert len((d / "out.txt").read_text(encoding="utf-8").splitlines()) == 1


class TestTrainMemoryRejectsUselessLexicon:
    def test_no_trainable_position_writes_nothing(self, model_files):
        d, _, _ = model_files
        # no corpus word has a lexicon entry, so no sentence memory holds an entry
        save_lexicon(Lexicon({("zzz", "t00"): (0.9, 0.9)}), str(d / "useless.tsv"))
        argv = ["train-memory", "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "useless.tsv"),
                "--mem-ckpt", str(d / "new_mem.ckpt")]
        with pytest.warns(UserWarning, match="nothing to train"):
            with pytest.raises(ValueError, match=r"useless\.tsv: .*would train nothing"):
                main(argv)
        assert not (d / "new_mem.ckpt").exists()


def test_model_snapshot_keys_are_nmt_config_fields_then_seed():
    cfg = RunConfig(embed_dim=7, lr=0.5, seed=9)
    keys = cli._model_keys(cfg)
    assert list(keys) == [f.name for f in fields(NmtConfig)] + ["seed"]
    assert keys["embed_dim"] == 7 and keys["lr"] == 0.5 and keys["seed"] == 9
    assert cfg.nmt_config() == NmtConfig(**{k: v for k, v in keys.items() if k != "seed"})
