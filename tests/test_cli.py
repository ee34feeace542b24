import argparse
import inspect
import logging
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import checkpoint_checksum, desk_config, make_mapped_task
from mnmt import cli
from mnmt.cli import RunConfig, main
from mnmt.checkpoint import CheckpointError, load_checkpoint, params_from_arrays, save_checkpoint
from mnmt.corpus import (
    CorpusEncodingError,
    EmptyTrainingSetError,
    Vocabulary,
    build_vocabulary,
    load_parallel_corpus,
)
from mnmt.lexicon import Lexicon, save_lexicon
from mnmt import memory
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


def _vocab_args(d):
    """build-vocab's arguments over the workdir's pair corpus, each side capped by desk.cfg."""
    return ["--config", str(d / "desk.cfg"), "--src", str(d / "train.src"),
            "--tgt", str(d / "train.tgt"), "--vocab-src", str(d / "vocab.src"),
            "--vocab-tgt", str(d / "vocab.tgt")]


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no_such_key"):
            RunConfig.file_values(str(bad))

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lr = 0.25\nbeam_size = twelve\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))}: line 2: beam_size: invalid literal"):
            RunConfig.file_values(str(bad))

    def test_comments_and_types(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("# comment\nlr = 0.25\nbeam_size = 7\n", encoding="utf-8")
        cfg = cli._resolve_config(cli.build_parser().parse_args(
            ["translate", "--config", str(good)]))
        assert cfg.lr == 0.25 and cfg.beam_size == 7

    def test_memory_defaults_of_signatures_are_the_config_defaults(self):
        defaults = {f.name: f.default for f in fields(RunConfig)}
        train = inspect.signature(memory.train_memory_attention).parameters
        translate = inspect.signature(cli.translate_lines).parameters
        assert train["k"].default == translate["k"].default == defaults["memory_k"]
        assert train["lr"].default == defaults["memory_lr"]
        assert (defaults["memory_k"], defaults["memory_lr"]) == (memory.DEFAULT_MEMORY_K,
                                                                 memory.DEFAULT_MEMORY_LR)


def _config_flags():
    """(subcommand, flag, dest) of every flag of every subcommand that reads a config."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, p in sub.choices.items() if "--config" in p._option_string_actions
            for action in p._actions if action.option_strings]


CONFIG_FLAGS = _config_flags()
RUN_KEYS = {f.name: f.type for f in fields(RunConfig)}


class TestConfigFlags:
    # the flags a subcommand keeps to itself: no config key has their meaning
    LOCAL = {"help", "config", "iters", "floor"}

    def test_every_flag_is_a_config_key_or_local(self):
        assert {dest for _, _, dest in CONFIG_FLAGS} - set(RUN_KEYS) == self.LOCAL
        assert {("translate", "--beam", "beam_size"), ("translate", "--k", "memory_k"),
                ("train", "--steps", "train_steps"),
                ("train-memory", "--epochs", "memory_epochs")} <= set(CONFIG_FLAGS)

    @pytest.mark.parametrize("command, flag, key",
                             [f for f in CONFIG_FLAGS if f[2] in RUN_KEYS])
    def test_flag_lands_on_its_key(self, command, flag, key):
        raw = {"int": "7", "float": "0.5", "str": "x"}[RUN_KEYS[key]]
        cfg = cli._resolve_config(cli.build_parser().parse_args([command, flag, raw]))
        assert str(getattr(cfg, key)) == raw

    def test_seed_only_where_a_random_number_is_drawn(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert {command for command, p in sub.choices.items()
                if "--seed" in p._option_string_actions} == {"train", "train-memory", "gradcheck"}

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beam_size = 3\nmemory_k = 4\n", encoding="utf-8")
        args = cli.build_parser().parse_args(["translate", "--config", str(path), "--beam", "5"])
        cfg = cli._resolve_config(args)
        assert (cfg.beam_size, cfg.memory_k) == (5, 4)


class TestConfigRejectedBeforeInput:
    """A value that cannot work fails before any input is opened: every path
    given is missing, so a late failure would be FileNotFoundError."""

    @staticmethod
    def _missing_paths(tmp_path, command):
        return [arg for c, flag, key in CONFIG_FLAGS if c == command and RUN_KEYS.get(key) == "str"
                for arg in (flag, str(tmp_path / "missing.txt"))]

    @pytest.mark.parametrize("key, value", [
        ("beam_size", "0"), ("train_steps", "0"), ("max_len", "0"), ("memory_k", "0"),
        ("memory_epochs", "-1"), ("memory_lr", "0"), ("beta", "1.5"), ("seed", "-1"),
        ("src_vocab_size", "3"), ("tgt_vocab_size", "4"),
    ])
    def test_from_file_names_key_and_file(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {key} must"):
            main(["train", "--config", str(path), *self._missing_paths(tmp_path, "train")])

    @pytest.mark.parametrize("command, flag, value, key", [
        ("translate", "--beam", "0", "beam_size"),
        ("train", "--steps", "0", "train_steps"),
        ("translate", "--k", "0", "memory_k"),
        ("train-memory", "--epochs", "-1", "memory_epochs"),
        ("train-memory", "--beta", "1.5", "beta"),
        ("train", "--seed", "-1", "seed"),
    ])
    def test_from_flag_names_key(self, tmp_path, command, flag, value, key):
        with pytest.raises(ValueError, match=f"^{key} must"):
            main([command, flag, value, *self._missing_paths(tmp_path, command)])

    @pytest.mark.parametrize("flag, value, name", [
        ("--floor", "1.5", "prob_floor"), ("--floor", "nan", "prob_floor"),
        ("--iters", "0", "iterations"),
    ])
    def test_lexicon_settings_checked_before_the_corpus(self, tmp_path, flag, value, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            main(["train-lexicon", flag, value, *self._missing_paths(tmp_path, "train-lexicon")])


class TestCommands:
    # a 12-step model may emit hypotheses too short for 4-gram scoring
    @pytest.mark.filterwarnings("ignore:hypotheses too short")
    def test_full_pipeline(self, workdir, capsys):
        d, task = workdir
        assert main(["build-vocab", *_vocab_args(d)]) == 0
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
        main(["build-vocab", *_vocab_args(d)])
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
        main(["build-vocab", *_vocab_args(d)])
        args = ["train", "--config", str(d / "desk.cfg"),
                "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--seed", "7"]
        main([*args, "--ckpt", str(d / "a.ckpt")])
        main([*args, "--ckpt", str(d / "b.ckpt")])
        assert checkpoint_checksum(str(d / "a.ckpt")) == checkpoint_checksum(str(d / "b.ckpt"))

    def test_build_vocab_writes_both_sides_of_the_pairs_train_reads(self, tmp_path):
        # the pair ("a a", "") is dropped, so "b" outranks "a" on the source side
        (tmp_path / "p.src").write_text("a a\nb a\nb c\nd e f g h i j\n", encoding="utf-8")
        (tmp_path / "p.tgt").write_text("\nx y\ny z\nu v w\n", encoding="utf-8")
        (tmp_path / "p.cfg").write_text("src_vocab_size = 10\ntgt_vocab_size = 6\n",
                                        encoding="utf-8")
        assert main(["build-vocab", "--config", str(tmp_path / "p.cfg"),
                     "--src", str(tmp_path / "p.src"), "--tgt", str(tmp_path / "p.tgt"),
                     "--vocab-src", str(tmp_path / "v.src"),
                     "--vocab-tgt", str(tmp_path / "v.tgt")]) == 0
        pairs = load_parallel_corpus(str(tmp_path / "p.src"), str(tmp_path / "p.tgt")).pairs
        src = Vocabulary.load(str(tmp_path / "v.src"))
        tgt = Vocabulary.load(str(tmp_path / "v.tgt"))
        assert src.tokens == build_vocabulary([s for s, _ in pairs], 10).tokens
        assert tgt.tokens == build_vocabulary([t for _, t in pairs], 6).tokens
        assert (len(src), len(tgt)) == (10, 6)
        assert src.tokens[4:6] == ["b", "a"]

    def test_build_vocab_rejects_a_size_below_five_naming_key_and_file(self, workdir):
        # four control tokens and one word: the floor is a config check, before the corpus
        d, _ = workdir
        small = d / "small.cfg"
        small.write_text("src_vocab_size = 3\n", encoding="utf-8")
        args = _vocab_args(d)
        args[1] = str(small)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(small))}: src_vocab_size must be >= 5$"):
            main(["build-vocab", *args])
        assert not (d / "vocab.src").exists()

    def test_length_filter_names_max_len_and_the_corpus(self, workdir):
        d, _ = workdir
        assert main(["build-vocab", *_vocab_args(d)]) == 0
        with open(d / "desk.cfg", "a", encoding="utf-8") as f:
            f.write("max_len = 1\n")
        src, tgt = str(d / "train.src"), str(d / "train.tgt")
        with pytest.raises(EmptyTrainingSetError,
                           match=f"^{re.escape(src)}, {re.escape(tgt)}: all pairs dropped by "
                                 "the length filter: .* max_len = 1$"):
            main(["train", "--config", str(d / "desk.cfg"), "--src", src, "--tgt", tgt,
                  "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                  "--ckpt", str(d / "model.ckpt")])
        assert not (d / "model.ckpt").exists()

    def test_train_rejects_a_control_token_only_vocabulary_naming_the_file(self, workdir):
        d, _ = workdir
        v4 = d / "v4"
        build_vocabulary([], 5).save(str(v4))
        with pytest.raises(ValueError, match=f"^{re.escape(str(v4))}: vocabulary has 4 tokens"):
            main(["train", "--config", str(d / "desk.cfg"), "--src", str(d / "train.src"),
                  "--tgt", str(d / "train.tgt"), "--vocab-src", str(v4), "--vocab-tgt", str(v4),
                  "--ckpt", str(d / "model.ckpt")])
        assert not (d / "model.ckpt").exists()

    def test_python_dash_m_mnmt_runs_the_command_line(self, tmp_path):
        hyp = tmp_path / "hyp"
        hyp.write_text("a b c d e\n", encoding="utf-8")
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "mnmt", "score", "--hyp", str(hyp),
                               "--ref", str(hyp)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "BLEU: 100.00\n"

    def test_train_without_vocabulary_files_exits_2(self, workdir, capsys):
        d, _ = workdir
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(d / "desk.cfg"), "--src", str(d / "train.src"),
                  "--tgt", str(d / "train.tgt"), "--ckpt", str(d / "model.ckpt")])
        assert exc.value.code == 2
        assert "--vocab-src, --vocab-tgt" in capsys.readouterr().err
        assert not (d / "model.ckpt").exists()

    def test_score_line_count_mismatch_names_both_files(self, tmp_path):
        hyp, ref = tmp_path / "hyp", tmp_path / "ref"
        hyp.write_text("a b\n", encoding="utf-8")
        ref.write_text("a b\n" * 4, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(hyp))}, {re.escape(str(ref))}: "
                                             "hypothesis/reference count mismatch: 1 vs 4$"):
            main(["score", "--hyp", str(hyp), "--ref", str(ref)])

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out


@pytest.fixture
def model_files(workdir):
    """Vocabularies, lexicon, an untrained model and a memory stored with beta 0.25, k 5."""
    d, task = workdir
    src_vocab = build_vocabulary([s for s, _ in task.train_pairs], max_size=40)
    tgt_vocab = build_vocabulary([t for _, t in task.train_pairs], max_size=40)
    src_vocab.save(str(d / "vocab.src"))
    tgt_vocab.save(str(d / "vocab.tgt"))
    save_lexicon(Lexicon({("s00", "t00"): (0.9, 0.9)}), str(d / "lex.tsv"))
    cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=8, hidden=10)
    save_checkpoint(str(d / "model.ckpt"), init_nmt_params(cfg, 0), {"kind": "nmt"})
    save_checkpoint(str(d / "mem.ckpt"), init_memory_params(cfg, 0).pset,
                    {"kind": "memory", "beta": 0.25, "memory_k": 5})
    (d / "test.src").write_text(" ".join(task.train_pairs[0][0]) + "\n", encoding="utf-8")
    return d, src_vocab, tgt_vocab


class TestTranslateBeta:
    @staticmethod
    def _translate(d, monkeypatch, *extra):
        """(beta, k) translate decodes with, given the extra arguments."""
        seen = []
        monkeypatch.setattr(cli, "translate_lines", lambda lines, *a, mparams, k, **kw:
                            seen.append((mparams.beta, k)) or lines)
        assert main(["translate", "--config", str(d / "desk.cfg"), "--src", str(d / "test.src"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                     "--mem-ckpt", str(d / "mem.ckpt"), "--out", str(d / "out.txt"),
                     *extra]) == 0
        return seen[0]

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
        beta, _ = self._translate(d, monkeypatch, *(["--beta", flag] if flag else []))
        assert beta == want

    @pytest.mark.parametrize("file_k, flag, want", [
        (None, None, 5),  # only the memory checkpoint stores memory_k
        (4, None, 4),     # the config file overrides the checkpoint
        (4, "2", 2),      # the flag overrides both
    ])
    def test_memory_k_flag_then_file_then_checkpoint(self, model_files, monkeypatch,
                                                     file_k, flag, want):
        d, _, _ = model_files
        if file_k is not None:
            with open(d / "desk.cfg", "a", encoding="utf-8") as f:
                f.write(f"memory_k = {file_k}\n")
        _, k = self._translate(d, monkeypatch, *(["--k", flag] if flag else []))
        assert k == want

    def test_stored_value_that_fails_the_checks_names_the_checkpoint(self, model_files):
        d, src_vocab, tgt_vocab = model_files
        cfg = desk_config(len(src_vocab), len(tgt_vocab), embed=8, hidden=10)
        save_checkpoint(str(d / "mem.ckpt"), init_memory_params(cfg, 0).pset,
                        {"kind": "memory", "beta": 0.25, "memory_k": 0})
        with pytest.raises(ValueError, match=r"mem\.ckpt: memory_k must be >= 1"):
            main(["translate", "--src", str(d / "test.src"), "--vocab-src", str(d / "vocab.src"),
                  "--vocab-tgt", str(d / "vocab.tgt"), "--ckpt", str(d / "model.ckpt"),
                  "--lexicon", str(d / "lex.tsv"), "--mem-ckpt", str(d / "mem.ckpt"),
                  "--out", str(d / "out.txt")])


class TestMemoryFlagsPair:
    @pytest.mark.parametrize("flag, name", [("--lexicon", "lex.tsv"), ("--mem-ckpt", "mem.ckpt")])
    def test_one_without_the_other_exits_2(self, model_files, capsys, flag, name):
        d, _, _ = model_files
        with pytest.raises(SystemExit) as exc:
            main(["translate", "--src", str(d / "test.src"), "--vocab-src", str(d / "vocab.src"),
                  "--vocab-tgt", str(d / "vocab.tgt"), "--ckpt", str(d / "model.ckpt"),
                  flag, str(d / name), "--out", str(d / "out.txt")])
        assert exc.value.code == 2
        assert "--lexicon and --mem-ckpt" in capsys.readouterr().err
        assert not (d / "out.txt").exists()

    @pytest.mark.parametrize("missing", ["--sim-src", "--mem-ckpt"])
    def test_sim_tgt_without_sim_src_or_memory_exits_2(self, tmp_path, capsys, missing):
        # every path is missing, so opening any file would raise FileNotFoundError
        given = {flag: str(tmp_path / name) for flag, name in (
            ("--src", "test.src"), ("--vocab-src", "v.src"), ("--vocab-tgt", "v.tgt"),
            ("--ckpt", "model.ckpt"), ("--lexicon", "lex.tsv"), ("--mem-ckpt", "mem.ckpt"),
            ("--sim-src", "sim.src"), ("--sim-tgt", "sim.tgt"), ("--out", "out.txt"))}
        del given[missing]
        if missing == "--mem-ckpt":
            del given["--lexicon"]
        with pytest.raises(SystemExit) as exc:
            main(["translate", *(a for pair in given.items() for a in pair)])
        assert exc.value.code == 2
        assert "--sim-tgt needs --sim-src and --mem-ckpt" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


class TestInvalidUtf8:
    """Every text input names the file and the line of its first invalid byte."""

    @pytest.mark.parametrize("command, flag", [
        ("translate", "--vocab-src"), ("translate", "--lexicon"), ("translate", "--sim-src"),
        ("translate", "--config"), ("translate", "--src"), ("score", "--hyp"),
        ("build-vocab", "--src"),
    ])
    def test_rejected_naming_file_and_line(self, model_files, command, flag):
        d, _, _ = model_files
        bad = d / "bad.txt"
        bad.write_bytes(b"ok\n\xff\xfe bad\n")
        given = {
            "translate": {"--src": d / "test.src", "--vocab-src": d / "vocab.src",
                          "--vocab-tgt": d / "vocab.tgt", "--ckpt": d / "model.ckpt",
                          "--lexicon": d / "lex.tsv", "--mem-ckpt": d / "mem.ckpt",
                          "--out": d / "out.txt"},
            "score": {"--hyp": d / "test.src", "--ref": d / "test.src"},
            "build-vocab": {"--config": d / "desk.cfg", "--src": d / "train.src",
                            "--tgt": d / "train.tgt", "--vocab-src": d / "v.src",
                            "--vocab-tgt": d / "v.tgt"},
        }[command] | {flag: bad}
        with pytest.raises(CorpusEncodingError,
                           match=f"^{re.escape(str(bad))}: invalid UTF-8 on line 2$"):
            main([command, *(str(a) for pair in given.items() for a in pair)])


class TestEmptyCorpus:
    """A pair corpus without a pair of words on both sides is rejected as it is
    loaded, naming both files, before any other input is read or output written."""

    @pytest.mark.parametrize("command", ["build-vocab", "train-lexicon", "train", "train-memory"])
    def test_rejected_naming_both_files(self, model_files, command):
        d, _, _ = model_files
        src, tgt = d / "empty.src", d / "empty.tgt"
        src.write_text("", encoding="utf-8")
        tgt.write_text("", encoding="utf-8")
        model = {"--vocab-src": d / "vocab.src", "--vocab-tgt": d / "vocab.tgt"}
        given = {
            "build-vocab": {"--vocab-src": d / "v.src", "--vocab-tgt": d / "v.tgt"},
            "train-lexicon": {"--out": d / "l.tsv"},
            "train": model | {"--ckpt": d / "new.ckpt"},
            "train-memory": model | {"--ckpt": d / "model.ckpt", "--lexicon": d / "lex.tsv",
                                     "--mem-ckpt": d / "new_mem.ckpt"},
        }[command]
        outputs = [path for path in given.values() if not path.exists()]
        with pytest.raises(EmptyTrainingSetError, match=f"^{re.escape(str(src))}, "
                                                        f"{re.escape(str(tgt))}: no pair has "
                                                        "words on both sides$"):
            main([command, "--src", str(src), "--tgt", str(tgt),
                  *(str(a) for pair in given.items() for a in pair)])
        assert outputs and not any(path.exists() for path in outputs)


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


def _probe_checkpoint(d, probe: str):
    """A checkpoint that is not the model of model_files in one way, and the strings
    the error that rejects it must hold besides its path."""
    if probe == "memory":
        return d / "mem.ckpt", ["src_embed"]
    stored, arrays = load_checkpoint(str(d / "model.ckpt"))
    if probe == "no_att_v":
        del arrays["att_v"]
        want = ["att_v"]
    elif probe == "att_v_5_rows":
        arrays["att_v"] = arrays["att_v"][:5]
        want = ["att_v", "(5,)", "(10,)"]
    elif probe == "enc_f_Uz_4x3":
        arrays["enc_f_Uz"] = arrays["enc_f_Uz"][:4, :3]
        want = ["enc_f_Uz", "(4, 3)", "(10, 10)"]
    elif probe == "extra_tensor":
        arrays["zz_extra"] = arrays["att_v"]
        want = ["zz_extra"]
    else:  # a model in every tensor, stored as a memory
        stored["kind"] = "memory"
        want = ["kind", "'memory'", "'nmt'"]
    bad = d / f"{probe}.ckpt"
    save_checkpoint(str(bad), params_from_arrays(arrays), stored)
    return bad, want


class TestModelCheckpointMismatch:
    """A --ckpt that is not a translation model of the vocabularies' sizes is rejected
    as it is loaded, naming the file and the tensor, before any output is written."""

    @pytest.mark.parametrize("command", ["translate", "train-memory"])
    @pytest.mark.parametrize("probe", ["memory", "no_att_v", "att_v_5_rows", "enc_f_Uz_4x3",
                                       "extra_tensor", "kind_memory"])
    def test_rejected_naming_the_file_and_the_tensor(self, model_files, command, probe):
        d, _, _ = model_files
        bad, want = _probe_checkpoint(d, probe)
        argv = [command, "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                "--ckpt", str(bad), "--lexicon", str(d / "lex.tsv"),
                "--mem-ckpt", str(d / "mem.ckpt" if command == "translate" else d / "new.ckpt")]
        if command == "translate":
            argv += ["--src", str(d / "test.src"), "--out", str(d / "out.txt")]
        else:
            argv += ["--src", str(d / "train.src"), "--tgt", str(d / "train.tgt")]
        with pytest.raises(CheckpointError) as exc:
            main(argv)
        assert str(exc.value).startswith(f"{bad}: ")
        for part in want:
            assert part in str(exc.value)
        assert not (d / "out.txt").exists() and not (d / "new.ckpt").exists()


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

    @pytest.mark.parametrize("kind, extra, want", [
        ("memory", True, "not a memory checkpoint, it also holds zz_extra"),
        ("nmt", False, "stored kind 'nmt', expected 'memory'"),
    ])
    def test_extra_tensor_or_other_kind_rejected_naming_the_file(self, model_files, kind,
                                                                   extra, want):
        d, _, _ = model_files
        stored, arrays = load_checkpoint(str(d / "mem.ckpt"))
        if extra:
            arrays["zz_extra"] = arrays["mem_v"]
        bad = d / "bad_mem.ckpt"
        save_checkpoint(str(bad), params_from_arrays(arrays), stored | {"kind": kind})
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(bad))}: {re.escape(want)}$"):
            self._translate(d, bad)
        assert not (d / "out.txt").exists()

    def test_matching_memory_accepted(self, model_files):
        d, _, _ = model_files
        assert self._translate(d, d / "mem.ckpt") == 0
        assert len((d / "out.txt").read_text(encoding="utf-8").splitlines()) == 1


class TestTrainMemory:
    def test_checkpoint_without_config_snapshot(self, model_files):
        # model.ckpt stores only {"kind": "nmt"}: the memory's widths come from its arrays
        d, src_vocab, tgt_vocab = model_files
        assert main(["train-memory", "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                     "--mem-ckpt", str(d / "new_mem.ckpt"), "--epochs", "1"]) == 0
        _, arrays = load_checkpoint(str(d / "new_mem.ckpt"))
        want = init_memory_params(desk_config(len(src_vocab), len(tgt_vocab), embed=8,
                                              hidden=10), 0).pset
        assert {n: a.shape for n, a in arrays.items()} == {n: want[n].data.shape
                                                            for n in want.names()}

    def test_memory_snapshot_holds_only_what_translate_reads(self, model_files):
        # the config file's widths (E=8, H=10) must not be restated beside the arrays
        d, _, _ = model_files
        assert main(["train-memory", "--config", str(d / "desk.cfg"),
                     "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "lex.tsv"),
                     "--mem-ckpt", str(d / "new_mem.ckpt"), "--epochs", "1"]) == 0
        stored, _ = load_checkpoint(str(d / "new_mem.ckpt"))
        assert sorted(stored) == ["beta", "kind", "memory_k"]
        assert stored["kind"] == "memory"

    def test_lexicon_without_usable_target_rejected_before_any_record(self, model_files,
                                                                      monkeypatch):
        d, _, _ = model_files
        save_lexicon(Lexicon({("s00", "zz_oov"): (0.9, 0.9)}), str(d / "oov.tsv"))

        def no_records(*args, **kwargs):
            raise AssertionError("memory records built for an unusable lexicon")

        monkeypatch.setattr(memory, "_training_records", no_records)
        with pytest.raises(ValueError, match=r"oov\.tsv: no lexicon entry has a target"):
            main(["train-memory", "--src", str(d / "train.src"), "--tgt", str(d / "train.tgt"),
                  "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                  "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "oov.tsv"),
                  "--mem-ckpt", str(d / "new_mem.ckpt")])
        assert not (d / "new_mem.ckpt").exists()


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


class TestTranslateRejectsUnusableLexicon:
    def _translate(self, d, *extra):
        return main(["translate", "--src", str(d / "test.src"),
                     "--vocab-src", str(d / "vocab.src"), "--vocab-tgt", str(d / "vocab.tgt"),
                     "--ckpt", str(d / "model.ckpt"), "--lexicon", str(d / "oov.tsv"),
                     "--mem-ckpt", str(d / "mem.ckpt"), "--out", str(d / "out.txt"), *extra])

    @staticmethod
    def _sim_maps(d, src_line, tgt_line):
        (d / "sim.src").write_text(src_line, encoding="utf-8")
        (d / "sim.tgt").write_text(tgt_line, encoding="utf-8")
        return ["--sim-src", str(d / "sim.src"), "--sim-tgt", str(d / "sim.tgt")]

    def test_no_usable_target_rejected_naming_the_file(self, model_files):
        d, _, _ = model_files
        # the OOV source word has an in-vocabulary stand-in, but the target is outside
        # the target vocabulary, and so is its only stand-in
        save_lexicon(Lexicon({("zz_src", "zz_oov"): (0.9, 0.9)}), str(d / "oov.tsv"))
        for extra in ([], self._sim_maps(d, "zz_src\ts00\n", "zz_oov\tzz_other\n")):
            with pytest.raises(ValueError, match=r"oov\.tsv: no lexicon entry has a target"):
                self._translate(d, *extra)
        assert not (d / "out.txt").exists()

    def test_in_vocabulary_source_word_is_never_borrowed_for(self, model_files):
        d, _, _ = model_files
        # s00 is in the source vocabulary, so it is never substituted and no memory
        # enters its target through zz_oov's stand-in
        save_lexicon(Lexicon({("s00", "zz_oov"): (0.9, 0.9), ("s01", "zz_other"): (0.9, 0.9)}),
                     str(d / "oov.tsv"))
        with pytest.raises(ValueError, match=r"oov\.tsv: no lexicon entry has a target"):
            self._translate(d, *self._sim_maps(d, "zz_src\ts00\n", "zz_oov\tt00\n"))
        assert not (d / "out.txt").exists()

    def test_stand_in_makes_a_target_usable_and_the_rest_is_logged(self, model_files, caplog):
        d, _, _ = model_files
        # both entries' target has a stand-in, but only the OOV source word is substituted
        save_lexicon(Lexicon({("zz_src", "zz_oov"): (0.9, 0.9), ("s01", "zz_oov"): (0.9, 0.9)}),
                     str(d / "oov.tsv"))
        with caplog.at_level(logging.WARNING, logger="mnmt.cli"):
            assert self._translate(d, *self._sim_maps(d, "zz_src\ts00\n", "zz_oov\tt00\n")) == 0
        assert f"{d / 'oov.tsv'}: 1 of 2 lexicon entries" in caplog.text


def test_model_snapshot_keys_are_nmt_config_fields_then_seed():
    cfg = RunConfig(embed_dim=7, lr=0.5, seed=9)
    keys = cli._model_keys(cfg)
    assert list(keys) == [f.name for f in fields(NmtConfig)] + ["seed"]
    assert keys["embed_dim"] == 7 and keys["lr"] == 0.5 and keys["seed"] == 9
    assert isinstance(cfg, NmtConfig)


def test_readme_commands_parse():
    # every `mnmt ...` line of README's sh blocks, continuation lines joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["mnmt"]]
    assert {argv[1] for argv in commands} >= {"build-vocab", "train", "translate"}
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
