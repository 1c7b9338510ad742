"""End-to-end command-line behavior on a small synthetic corpus."""

import argparse
import re
from dataclasses import fields

import numpy as np
import pytest

from caster.cli import DEFAULTS, build_parser, main
from caster.model import CasterModel, LossWeights, ModelConfig, TrainingConfig, load_checkpoint
from caster.corpus import PairCorpus, PairExample, atom_tokenize, write_pair_corpus
from caster.featurize import featurize_pairs
from caster.spm import Vocabulary, mine_vocabulary
from caster.synthetic import planted_motif_dataset, unlabelled_pair_corpus
from test_model import save_v2_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus files plus a mined vocabulary, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = planted_motif_dataset(n_pairs=300, n_compounds=150, seed=5)
    (root / "compounds.txt").write_text("\n".join(data.compounds) + "\n")
    write_pair_corpus(root / "labelled.tsv", data.pairs)
    unlab = unlabelled_pair_corpus(300, 150, seed=6)
    write_pair_corpus(root / "unlabelled.tsv", unlab)
    assert main(["mine", "--corpus", str(root / "compounds.txt"), "--min-freq", "25",
                 "--out", str(root / "vocab.txt")]) == 0
    return root, data


SMALL_NET = [
    "--latent-dim", "6", "--encoder-hidden", "24,24", "--decoder-hidden", "24,24",
    "--predictor-hidden", "32,16", "--batch-size", "32", "--max-epochs", "4",
    "--patience", "2",
]


class TestMine:
    def test_writes_vocab_and_reports(self, workspace, capsys):
        root, _ = workspace
        vocab = Vocabulary.load(root / "vocab.txt")
        assert vocab.k > 0

    def test_matches_library_miner(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("CCO\nCCN\n")
        out = tmp_path / "v.txt"
        assert main(["mine", "--corpus", str(corpus), "--min-freq", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        vocab = Vocabulary.load(out)
        expected = mine_vocabulary([atom_tokenize("CCO"), atom_tokenize("CCN")], eta=2)
        assert vocab.merges == expected.merges
        assert vocab.substructures == expected.substructures
        assert f"k={expected.k}" in printed

    def test_min_freq_zero_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("CCO\n")
        code = main(["mine", "--corpus", str(corpus), "--min-freq", "0", "--out", str(tmp_path / "v.txt")])
        assert code == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        code = main(["mine", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "v.txt")])
        assert code == 1

    def test_undecodable_corpus_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "bad.smi"
        corpus.write_bytes(b"CCO\nCCN\xff\n")
        code = main(["mine", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt")])
        assert code == 1
        assert f"{corpus}: line 2: invalid UTF-8 byte 0xff" in capsys.readouterr().err


def _positive_pair(root):
    for line in (root / "labelled.tsv").read_text().splitlines()[1:]:
        left, right, label = line.split("\t")
        if label == "1":
            return left, right


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, data = workspace
    out = tmp_path_factory.mktemp("run")
    rc = main(["pretrain", "--vocab", str(root / "vocab.txt"),
               "--unlabelled", str(root / "unlabelled.tsv"),
               "--out-dir", str(out / "stage1"), "--seed", "3", *SMALL_NET])
    assert rc == 0
    rc = main(["train", "--vocab", str(root / "vocab.txt"),
               "--labelled", str(root / "labelled.tsv"),
               "--init-checkpoint", str(out / "stage1" / "pretrained.ckpt"),
               "--out-dir", str(out / "stage2"), "--seed", "3", *SMALL_NET])
    assert rc == 0
    return root, out


class TestPipeline:
    def test_artifacts_exist(self, trained):
        root, out = trained
        assert (out / "stage1" / "pretrained.ckpt").exists()
        assert (out / "stage1" / "config_used.txt").exists()
        assert (out / "stage2" / "model.ckpt").exists()
        history = (out / "stage2" / "history.tsv").read_text().splitlines()
        assert history[0].startswith("epoch\t")
        report = (out / "stage2" / "test_metrics.tsv").read_text().strip().split("\t")
        assert len(report) == 3 and all(0.0 <= float(v) <= 1.0 for v in report)

    def test_pretrain_history_format(self, trained):
        _, out = trained
        lines = (out / "stage1" / "pretrain_history.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tbatch\tloss\trecon\tproj"
        assert re.fullmatch(r"0\t0(\t-?\d+\.\d{6}){3}", lines[1])
        assert len(lines) > 2

    def test_predict_scores_in_range(self, trained, tmp_path):
        root, out = trained
        scores = tmp_path / "scores.tsv"
        rc = main(["predict", "--vocab", str(root / "vocab.txt"),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(scores)])
        assert rc == 0
        rows = [line.split("\t") for line in scores.read_text().splitlines()]
        assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
        assert all(0.0 < float(r[1]) < 1.0 for r in rows)

    def test_predict_ids_are_data_rows(self, trained, tmp_path):
        # the unparseable second row is skipped and leaves a gap; a blank line is not a row
        root, out = trained
        pairs = [line.split("\t") for line in (root / "unlabelled.tsv").read_text().splitlines()[1:3]]
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text(
            f"smiles_1\tsmiles_2\n{pairs[0][0]}\t{pairs[0][1]}\nC(C\tCCO\n\n{pairs[1][0]}\t{pairs[1][1]}\n"
        )
        scores = tmp_path / "scores.tsv"
        rc = main(["predict", "--vocab", str(root / "vocab.txt"),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--pairs", str(tsv), "--out", str(scores)])
        assert rc == 0
        rows = [line.split("\t") for line in scores.read_text().splitlines()]
        assert [r[0] for r in rows] == ["0", "2"]
        vocab = Vocabulary.load(root / "vocab.txt")
        model = load_checkpoint(out / "stage2" / "model.ckpt", vocab=vocab)
        X, _ = featurize_pairs(PairCorpus([PairExample(*p) for p in pairs], "unlabelled"), vocab)
        assert [r[1] for r in rows] == [f"{p:.6f}" for p in model.predict_pairs(X)]

    def test_scoring_never_gives_the_encoder_a_dense_k_wide_input(self, trained, tmp_path, monkeypatch):
        # explain_pair, `caster explain` and `caster predict` read their pairs as index rows
        import caster.nn
        from caster.model import explain_pair

        root, out = trained
        vocab = Vocabulary.load(root / "vocab.txt")
        ckpt = out / "stage2" / "model.ckpt"
        forward = caster.nn.Dense.forward
        inputs = []

        def tainted(layer, x):
            inputs.append(x)
            assert not (isinstance(x, np.ndarray) and x.shape[-1] == vocab.k), "dense k-wide input"
            return forward(layer, x)

        monkeypatch.setattr(caster.nn.Dense, "forward", tainted)
        left, right = _positive_pair(root)
        explain_pair(load_checkpoint(ckpt, vocab=vocab), left, right, vocab)
        assert main(["explain", "--vocab", str(root / "vocab.txt"), "--checkpoint", str(ckpt),
                     "--left", left, "--right", right, "--out", str(tmp_path / "t.tsv")]) == 0
        assert main(["predict", "--vocab", str(root / "vocab.txt"), "--checkpoint", str(ckpt),
                     "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")]) == 0
        assert any(isinstance(x, caster.nn.MultiHot) for x in inputs)

    @pytest.mark.parametrize("command", ["predict", "train", "mine"])
    def test_each_compound_is_tokenized_once(self, trained, tmp_path, monkeypatch, command):
        # the loader's token lists are the ones featurized (mined, for
        # `caster mine`); an unparseable compound is tokenized once too
        import caster.cli
        import caster.corpus
        import caster.featurize
        import caster.model

        root, out = trained
        text = (root / "labelled.tsv").read_text()
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text(text + f"C(C\t{text.splitlines()[1].split()[0]}\t1\n")
        compounds = tmp_path / "compounds.txt"
        compounds.write_text((root / "compounds.txt").read_text() + "C(C\n")
        calls = []

        def counted(smiles):
            calls.append(smiles)
            return atom_tokenize(smiles)

        # every caster module that holds the tokenizer, under any name
        for module in (caster.cli, caster.corpus, caster.featurize, caster.model):
            for name, value in list(vars(module).items()):
                if value is atom_tokenize:
                    monkeypatch.setattr(module, name, counted)
        vocab, ckpt = str(root / "vocab.txt"), str(out / "stage2" / "model.ckpt")
        argv = {
            "predict": ["predict", "--vocab", vocab, "--checkpoint", ckpt, "--pairs", str(tsv),
                        "--out", str(tmp_path / "s.tsv")],
            "train": ["train", "--vocab", vocab, "--labelled", str(tsv), "--init-checkpoint", ckpt,
                      "--out-dir", str(tmp_path / "run"), "--seed", "3", *SMALL_NET],
            "mine": ["mine", "--corpus", str(compounds), "--min-freq", "25", "--out", str(tmp_path / "v.txt")],
        }[command]
        assert main(argv) == 0
        if command == "mine":
            expected = compounds.read_text().split()
        else:
            expected = {s for line in tsv.read_text().splitlines()[1:] for s in line.split("\t")[:2]}
        assert sorted(calls) == sorted(expected)

    def test_predict_deterministic_reports(self, trained, tmp_path):
        root, out = trained
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for target in (a, b):
            rc = main(["predict", "--vocab", str(root / "vocab.txt"),
                       "--checkpoint", str(out / "stage2" / "model.ckpt"),
                       "--pairs", str(root / "labelled.tsv"), "--out", str(target)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explain_ranked_table(self, trained, tmp_path, capsys):
        root, out = trained
        pair = _positive_pair(root)
        table = tmp_path / "explain.tsv"
        rc = main(["explain", "--vocab", str(root / "vocab.txt"),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--left", pair[0], "--right", pair[1], "--out", str(table)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "interaction probability" in printed
        prob = float(printed.strip().rsplit(" ", 1)[1])
        assert 0.0 < prob < 1.0
        rows = [line.split("\t") for line in table.read_text().splitlines()]
        assert rows, "positive pair should share substructures"
        mags = [abs(float(c)) for _, c in rows]
        assert mags == sorted(mags, reverse=True)

    def test_explain_segments_once_and_builds_one_basis(self, trained, tmp_path, monkeypatch, capsys):
        import caster.featurize
        import caster.spm
        from caster.featurize import featurize_pairs
        from caster.model import CasterModel, explain_pair, load_checkpoint

        root, out = trained
        vocab_path, ckpt = root / "vocab.txt", out / "stage2" / "model.ckpt"
        left, right = _positive_pair(root)
        calls = {"segment": 0, "dictionary_basis": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        segment = counted("segment", caster.spm.segment)
        monkeypatch.setattr(caster.spm, "segment", segment)
        monkeypatch.setattr(caster.featurize, "segment", segment)
        monkeypatch.setattr(
            CasterModel, "dictionary_basis", counted("dictionary_basis", CasterModel.dictionary_basis)
        )
        table = tmp_path / "explain.tsv"
        rc = main(["explain", "--vocab", str(vocab_path), "--checkpoint", str(ckpt),
                   "--left", left, "--right", right, "--out", str(table)])
        assert rc == 0
        assert calls == {"segment": 2, "dictionary_basis": 1}

        # the same score and table as scoring and explaining separately
        vocab = Vocabulary.load(vocab_path)
        model = load_checkpoint(ckpt, vocab=vocab)
        X, _ = featurize_pairs(PairCorpus([PairExample(left, right)], "unlabelled"), vocab)
        assert capsys.readouterr().out == f"interaction probability: {model.predict_pairs(X)[0]:.6f}\n"
        expected = explain_pair(model, left, right, vocab)
        assert table.read_text() == "".join(f"{tok}\t{coef:.6f}\n" for tok, coef in expected)

    def test_explain_pair_sharing_nothing_scores_the_zero_vector(self, trained, tmp_path, capsys, caplog):
        from caster.model import load_checkpoint

        root, out = trained
        ckpt, table = out / "stage2" / "model.ckpt", tmp_path / "explain.tsv"
        rc = main(["explain", "--vocab", str(root / "vocab.txt"), "--checkpoint", str(ckpt),
                   "--left", "CCO", "--right", "I", "--out", str(table)])
        assert rc == 0
        assert table.read_text() == ""
        assert "nothing to explain" in caplog.text
        vocab = Vocabulary.load(root / "vocab.txt")
        p = load_checkpoint(ckpt, vocab=vocab).predict_pairs(np.zeros((1, vocab.k)))[0]
        assert capsys.readouterr().out == f"interaction probability: {p:.6f}\n"

    @pytest.mark.parametrize("side", ["--left", "--right"])
    def test_explain_bad_smiles_exits_1(self, trained, side, capsys):
        root, out = trained
        pair = dict(zip(("--left", "--right"), _positive_pair(root)))
        pair[side] = "CC[C"
        rc = main(["explain", "--vocab", str(root / "vocab.txt"),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--left", pair["--left"], "--right", pair["--right"]])
        assert rc == 1
        assert "unbalanced '['" in capsys.readouterr().err

    def test_vocab_hash_mismatch_refused(self, trained, tmp_path):
        root, out = trained
        other_vocab = tmp_path / "other_vocab.txt"
        rc = main(["mine", "--corpus", str(root / "compounds.txt"), "--min-freq", "60",
                   "--out", str(other_vocab)])
        assert rc == 0
        rc = main(["predict", "--vocab", str(other_vocab),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 2

    def test_v1_text_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        old = tmp_path / "old.ckpt"
        old.write_text("caster-ckpt v1\nk=10\nd=3\n")
        rc = main(["predict", "--vocab", str(root / "vocab.txt"), "--checkpoint", str(old),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert "v1 text checkpoint" in capsys.readouterr().err

    def test_v2_checkpoint_exits_2(self, trained, tmp_path, capsys):
        root, out = trained
        ckpt = tmp_path / "v2.ckpt"
        save_v2_checkpoint(ckpt, load_checkpoint(out / "stage2" / "model.ckpt"))
        rc = main(["predict", "--vocab", str(root / "vocab.txt"), "--checkpoint", str(ckpt),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: this is a caster-ckpt v2 (.npz) checkpoint" in err
        assert not (tmp_path / "s.tsv").exists()

    def test_bad_vocabulary_frequency_exits_1(self, trained, tmp_path, capsys):
        root, out = trained
        lines = (root / "vocab.txt").read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\tx"
        bad = tmp_path / "vocab.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--vocab", str(bad),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        assert f"{bad}: line 2: frequency 'x' is not an integer" in capsys.readouterr().err

    def test_undecodable_vocabulary_exits_1(self, trained, tmp_path, capsys):
        root, out = trained
        bad = tmp_path / "vocab.txt"
        bad.write_bytes((root / "vocab.txt").read_bytes().replace(b"\t", b"\xff", 1))
        rc = main(["predict", "--vocab", str(bad),
                   "--checkpoint", str(out / "stage2" / "model.ckpt"),
                   "--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        assert f"{bad}: line 2: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        root, _ = workspace
        conf = tmp_path / "run.conf"
        conf.write_text("latent_dim=6\nencoder_hidden=24,24\ndecoder_hidden=24,24\n"
                        "predictor_hidden=32,16\nbatch_size=32\nmax_epochs=2\npatience=1\nseed=9\n")
        out = tmp_path / "out"
        rc = main(["train", "--vocab", str(root / "vocab.txt"),
                   "--labelled", str(root / "labelled.tsv"),
                   "--out-dir", str(out), "--config", str(conf), "--max-epochs", "3"])
        assert rc == 0
        used = dict(
            line.split("=", 1) for line in (out / "config_used.txt").read_text().splitlines()
        )
        assert used["max_epochs"] == "3"  # flag beats config file
        assert used["latent_dim"] == "6"  # config file beats default
        assert used["seed"] == "9"

    def test_env_seed_fallback(self, workspace, tmp_path, monkeypatch):
        root, _ = workspace
        monkeypatch.setenv("CASTER_SEED", "77")
        out = tmp_path / "out"
        rc = main(["pretrain", "--vocab", str(root / "vocab.txt"),
                   "--unlabelled", str(root / "unlabelled.tsv"),
                   "--out-dir", str(out), *SMALL_NET])
        assert rc == 0
        used = dict(
            line.split("=", 1) for line in (out / "config_used.txt").read_text().splitlines()
        )
        assert used["seed"] == "77"

    def test_pretrain_on_one_row_exits_1(self, workspace, tmp_path, capsys):
        # one row takes no step: no untrained checkpoint is written
        root, _ = workspace
        one = tmp_path / "one.tsv"
        one.write_text("".join((root / "unlabelled.tsv").read_text().splitlines(keepends=True)[:2]))
        out = tmp_path / "out"
        rc = main(["pretrain", "--vocab", str(root / "vocab.txt"), "--unlabelled", str(one),
                   "--out-dir", str(out), *SMALL_NET])
        assert rc == 1
        assert "needs at least 2 unlabelled rows to take a step, got 1" in capsys.readouterr().err
        assert not (out / "pretrained.ckpt").exists()

    def test_single_class_corpus_exits_2(self, workspace, tmp_path):
        root, data = workspace
        bad = tmp_path / "one_class.tsv"
        rows = ["smiles_1\tsmiles_2\tlabel"]
        for ex in list(data.pairs)[:40]:
            if ex.label == 1:
                rows.append(f"{ex.left}\t{ex.right}\t1")
        bad.write_text("\n".join(rows) + "\n")
        rc = main(["train", "--vocab", str(root / "vocab.txt"), "--labelled", str(bad),
                   "--out-dir", str(tmp_path / "out"), *SMALL_NET])
        assert rc == 2


class TestMoreCli:
    def test_fold_split_mode(self, workspace, tmp_path):
        root, _ = workspace
        rc = main(["train", "--vocab", str(root / "vocab.txt"),
                   "--labelled", str(root / "labelled.tsv"),
                   "--out-dir", str(tmp_path / "out"), "--seed", "4",
                   "--split-mode", "folds:2", "--fold-index", "1", *SMALL_NET])
        assert rc == 0
        assert (tmp_path / "out" / "test_metrics.tsv").exists()

    def test_train_reports_byte_identical(self, workspace, tmp_path):
        root, _ = workspace
        outputs = []
        for name in ("runA", "runB"):
            rc = main(["train", "--vocab", str(root / "vocab.txt"),
                       "--labelled", str(root / "labelled.tsv"),
                       "--out-dir", str(tmp_path / name), "--seed", "6", *SMALL_NET])
            assert rc == 0
            outputs.append((
                (tmp_path / name / "test_metrics.tsv").read_bytes(),
                (tmp_path / name / "history.tsv").read_bytes(),
            ))
        assert outputs[0] == outputs[1]


class TestSettingsValidation:
    """Invalid settings exit 2 with an error that names the setting, before
    any training, whether they come from a flag or a --config file."""

    def _train(self, workspace, tmp_path, *extra):
        root, _ = workspace
        return main(["train", "--vocab", str(root / "vocab.txt"),
                     "--labelled", str(root / "labelled.tsv"),
                     "--out-dir", str(tmp_path / "out"), *SMALL_NET, *extra])

    def _unknown_key(self, workspace, tmp_path, capsys, text, lineno, key):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        assert self._train(workspace, tmp_path, "--config", str(conf)) == 2
        assert f"{conf}: line {lineno}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [
        ("refine_steps=3", "refine_steps"),
        ("lamda1=0.1", "lamda1"),
        (" Latent_dim = 6", "Latent_dim"),
        ("verbose=1", "verbose"),
    ])
    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys, line, key):
        self._unknown_key(workspace, tmp_path, capsys, f"max_epochs=2\n# comment\n{line}\n", 3, key)

    @pytest.mark.parametrize("text, lineno", [
        ("lr=0.1\nlr=0.2\n", 2),
        ("lr=0.1\n# override\n lr = 0.2\n", 3),
    ])
    def test_repeated_config_key_exits_2(self, workspace, tmp_path, capsys, text, lineno):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        assert self._train(workspace, tmp_path, "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert f"{conf}: line {lineno}: key 'lr' is already set on line 1" in err
        assert not (tmp_path / "out").exists()

    def test_config_used_is_accepted_as_config(self, workspace, tmp_path):
        root, _ = workspace
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train", "--vocab", str(root / "vocab.txt"), "--labelled", str(root / "labelled.tsv"),
                     "--out-dir", str(first), "--seed", "4", *SMALL_NET]) == 0
        assert main(["train", "--vocab", str(root / "vocab.txt"), "--labelled", str(root / "labelled.tsv"),
                     "--out-dir", str(second), "--config", str(first / "config_used.txt")]) == 0
        for name in ("config_used.txt", "history.tsv", "test_metrics.tsv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    # float64 is the model's only dtype, so dtype is not a key at all
    @pytest.mark.parametrize("dtype", ["foo", "int64", "float16", "complex128", "float32", "float64"])
    def test_config_file_dtype_exits_2(self, workspace, tmp_path, capsys, dtype):
        self._unknown_key(workspace, tmp_path, capsys, f"dtype={dtype}\n", 1, "dtype")

    def test_config_file_with_every_key_is_accepted(self, workspace, tmp_path):
        # one file serves every subcommand: each reads the keys it needs
        root, _ = workspace
        values = {
            **DEFAULTS, "seed": 4, "min_freq": 25, "latent_dim": 6, "encoder_hidden": "24,24",
            "decoder_hidden": "24,24", "predictor_hidden": "32,16", "batch_size": 32, "max_epochs": 2,
        }
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        vocab, out = tmp_path / "vocab.txt", tmp_path / "out"
        assert main(["mine", "--corpus", str(root / "compounds.txt"), "--out", str(vocab),
                     "--config", str(conf)]) == 0
        assert vocab.read_bytes() == (root / "vocab.txt").read_bytes()
        assert main(["train", "--vocab", str(vocab), "--labelled", str(root / "labelled.tsv"),
                     "--out-dir", str(out), "--config", str(conf)]) == 0
        used = dict(line.split("=", 1) for line in (out / "config_used.txt").read_text().splitlines())
        assert used == {key: str(value) for key, value in values.items() if key not in ("min_freq", "max_merges")}

    def test_dtype_flag_exits_2(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            self._train(workspace, tmp_path, "--dtype", "float32")
        assert info.value.code == 2
        assert "unrecognized arguments: --dtype float32" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--encoder-hidden", "--decoder-hidden", "--predictor-hidden"])
    def test_zero_width_layer_exits_2(self, workspace, tmp_path, capsys, flag):
        assert self._train(workspace, tmp_path, flag, "24,0") == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} sizes must be >= 1, got (24, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_learning_rate_must_be_finite_and_positive(self, workspace, tmp_path, capsys, lr):
        assert self._train(workspace, tmp_path, "--lr", lr) == 2
        assert "lr must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("split", "0:1:1", "split ratios must be finite numbers > 0, got '0:1:1'"),
        ("min_freq", "0", "min_freq must be >= 1, got 0"),
        ("max_merges", "-1", "max_merges must be >= 0, got -1"),
    ])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_range_refusal_names_its_source(self, workspace, tmp_path, capsys, key, value, message, where):
        root, _ = workspace
        flag = "--" + key.replace("_", "-")
        if where == "file":
            conf = tmp_path / "run.conf"
            conf.write_text(f"{key}={value}\n")
            extra, expected = ["--config", str(conf)], f"{conf}: {message}"
        else:
            extra, expected = [flag, value], flag + message[len(key):]
        if key == "split":
            assert self._train(workspace, tmp_path, *extra) == 2
        else:
            assert main(["mine", "--corpus", str(root / "compounds.txt"), "--out", str(tmp_path / "v.txt"),
                         *extra]) == 2
        err = capsys.readouterr().err
        assert expected in err
        assert where == "flag" or flag not in err

    def test_bad_caster_seed_names_the_variable(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CASTER_SEED", "abc")
        assert self._train(workspace, tmp_path) == 2
        assert "CASTER_SEED: bad value 'abc' for seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fold_index_outside_fold_mode_exits_2(self, workspace, tmp_path, capsys):
        assert self._train(workspace, tmp_path, "--fold-index", "1") == 2
        assert "fold_index applies only with split_mode 'folds:<n>', got 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_non_finite_weight_exits_2(self, workspace, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("lambda2=nan\n")
        assert self._train(workspace, tmp_path, "--config", str(conf)) == 2
        assert f"{conf}: lambda2 must be a finite number >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, line, message", [
        ("flag", "seed=-1", "seed must be >= 0, got -1"),
        ("file", "seed=-1", "{conf}: seed must be >= 0, got -1"),
        ("env", "seed=-1", "CASTER_SEED: seed must be >= 0, got -1"),
        ("file", "lr=0", "{conf}: lr must be a finite number > 0, got 0.0"),
        ("file", "magnifier=0", "{conf}: magnifier must be a finite number > 0, got 0.0"),
        ("flag", "lr=0", "lr must be a finite number > 0, got 0.0"),
    ])
    def test_config_class_refusal_names_file_or_variable(self, workspace, tmp_path, capsys, monkeypatch,
                                                          where, line, message):
        # a flag's refusal stays unprefixed; the file and CASTER_SEED are named
        key, value = line.split("=")
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        extra = {"flag": ["--" + key.replace("_", "-"), value], "file": ["--config", str(conf)], "env": []}[where]
        if where == "env":
            monkeypatch.setenv("CASTER_SEED", value)
        assert self._train(workspace, tmp_path, *extra) == 2
        assert "error: " + message.format(conf=conf) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, corpus", [("pretrain", "unlabelled"), ("train", "labelled")])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_latent_dim_refusal_names_its_source(self, workspace, tmp_path, capsys, command, corpus, where):
        # the model, not a config class, refuses d >= k
        root, _ = workspace
        k = Vocabulary.load(root / "vocab.txt").k
        conf = tmp_path / "run.conf"
        conf.write_text("latent_dim=400\n")
        extra = {"file": ["--config", str(conf)], "flag": ["--latent-dim", "400"]}[where]
        assert SMALL_NET[:2] == ["--latent-dim", "6"]
        assert main([command, "--vocab", str(root / "vocab.txt"), f"--{corpus}", str(root / f"{corpus}.tsv"),
                     "--out-dir", str(tmp_path / "out"), *SMALL_NET[2:], *extra]) == 2
        message = f"latent_dim must satisfy 0 < d < k, got d=400, k={k}"
        err = capsys.readouterr().err
        assert f"error: {conf}: {message}" in err if where == "file" else f"error: {message}\n" == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["folds:x", "folds:", "folds:1", "fold:3"])
    def test_bad_split_mode_names_the_setting(self, workspace, tmp_path, capsys, mode):
        conf = tmp_path / "run.conf"
        conf.write_text(f"split_mode={mode}\n")
        assert self._train(workspace, tmp_path, "--config", str(conf)) == 2
        assert f"split_mode must be 'ratio' or 'folds:<n>' with n >= 2, got '{mode}'" in capsys.readouterr().err

    def test_undecodable_config_file_names_file_and_line(self, workspace, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"max_epochs=2\n# comment\nlatent_dim=6\xff\n")
        assert self._train(workspace, tmp_path, "--config", str(conf)) == 2
        assert f"{conf}: line 3: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("lr=abc", "lr"), ("encoder_hidden=24,x", "encoder_hidden"),
        # a flag's value goes through the same cast, through main
        ("--lr abc", "lr"), ("--latent-dim x", "latent_dim"),
    ])
    def test_config_file_value_that_does_not_cast_names_key_and_file(self, workspace, tmp_path, capsys, line, key):
        root, _ = workspace
        if line.startswith("--"):
            extra, (source, value) = line.split(), line.split()
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(line + "\n")
            extra, source, value = ["--config", str(conf)], conf, line.split("=")[1]
        # no SMALL_NET: its flags would win over the file
        assert main(["train", "--vocab", str(root / "vocab.txt"), "--labelled", str(root / "labelled.tsv"),
                     "--out-dir", str(tmp_path / "out"), *extra]) == 2
        err = capsys.readouterr().err
        assert f"{source}: bad value {value!r} for {key}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--max-epochs", "0"), "max_epochs must be >= 1, got 0"),
        (("--pretrain-epochs", "-1"), "pretrain_epochs must be >= 0, got -1"),
        (("--patience", "-1"), "patience must be >= 0, got -1"),
        (("--magnifier", "0"), "magnifier must be a finite number > 0, got 0.0"),
        (("--magnifier", "-2"), "magnifier must be a finite number > 0, got -2.0"),
        (("--magnifier", "nan"), "magnifier must be a finite number > 0, got nan"),
        *(((f"--{name}", value), f"{name} must be a finite number >= 0, got {value}")
          for name in ("alpha", "beta", "gamma", "lambda2") for value in ("nan", "inf")),
        (("--lambda1", "nan"), "lambda1 must be a finite number > 0 for the projection solve, got nan"),
        (("--lambda1", "inf"), "lambda1 must be a finite number > 0 for the projection solve, got inf"),
        (("--split", "nan:1:1"), "--split ratios must be finite numbers > 0, got 'nan:1:1'"),
        (("--split", "7:inf:2"), "--split ratios must be finite numbers > 0, got '7:inf:2'"),
    ])
    def test_meaningless_run_exits_2_before_any_step(self, workspace, tmp_path, capsys, monkeypatch, flags, message):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(CasterModel, "step", no_step)
        assert self._train(workspace, tmp_path, *flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInitCheckpoint:
    """`caster train --init-checkpoint` trains the checkpoint's architecture,
    records it, and refuses settings that disagree with it."""

    def _train(self, trained, tmp_path, *extra):
        root, out = trained
        return main(["train", "--vocab", str(root / "vocab.txt"),
                     "--labelled", str(root / "labelled.tsv"),
                     "--init-checkpoint", str(out / "stage1" / "pretrained.ckpt"),
                     "--out-dir", str(tmp_path / "out"), "--batch-size", "32",
                     "--max-epochs", "1", *extra])

    def test_config_used_records_the_checkpoint_architecture(self, trained, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lr=0.002\n")
        assert self._train(trained, tmp_path, "--config", str(conf)) == 0
        used = dict(line.split("=", 1) for line in (tmp_path / "out" / "config_used.txt").read_text().splitlines())
        assert {key: used[key] for key in ("latent_dim", "encoder_hidden", "decoder_hidden",
                                           "predictor_hidden", "magnifier")} == {
            "latent_dim": "6", "encoder_hidden": "24,24", "decoder_hidden": "24,24",
            "predictor_hidden": "32,16", "magnifier": "100.0",
        }
        assert "dtype" not in used
        assert used["lr"] == "0.002"

    def test_matching_architecture_settings_are_accepted(self, trained, tmp_path):
        assert self._train(trained, tmp_path, "--latent-dim", "6", "--encoder-hidden", "24,24",
                           "--magnifier", "100") == 0

    @pytest.mark.parametrize("flags, key", [
        (("--latent-dim", "3"), "latent_dim"),
        (("--predictor-hidden", "32"), "predictor_hidden"),
        (("--magnifier", "50"), "magnifier"),
    ])
    def test_disagreeing_flag_exits_2(self, trained, tmp_path, capsys, flags, key):
        assert self._train(trained, tmp_path, *flags) == 2
        err = capsys.readouterr().err
        assert f"--{key.replace('_', '-')}: {key}={flags[1]}" in err and "disagrees with the checkpoint" in err
        assert not (tmp_path / "out").exists()

    def test_disagreeing_config_file_exits_2(self, trained, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("magnifier=100.0\nlatent_dim=3\n")
        assert self._train(trained, tmp_path, "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert f"{conf}: latent_dim=3 disagrees with the checkpoint" in err
        assert not (tmp_path / "out").exists()


def _flags(command):
    """The long flags `command` takes, but --help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[command]._actions for o in a.option_strings if o.startswith("--")} - {"--help"}


class TestFlags:
    """Each subcommand takes only the flags it reads, derived from the config classes."""

    @pytest.mark.parametrize("command, own", [
        ("pretrain", {"--vocab", "--unlabelled", "--out-dir"}),
        ("train", {"--vocab", "--labelled", "--init-checkpoint", "--out-dir"}),
    ])
    def test_training_flags_are_the_config_fields(self, command, own):
        keys = {f.name for cls in (ModelConfig, LossWeights, TrainingConfig) for f in fields(cls)}
        keys = keys - {"split_ratio"} | {"split"}
        assert _flags(command) == own | {"--config", "--verbose"} | {"--" + key.replace("_", "-") for key in keys}
        assert set(DEFAULTS) == keys - {"seed"} | {"min_freq", "max_merges"}

    @pytest.mark.parametrize("command, flags", [
        ("mine", {"--corpus", "--out", "--min-freq", "--max-merges", "--config", "--verbose"}),
        ("predict", {"--vocab", "--checkpoint", "--pairs", "--out", "--verbose"}),
        ("explain", {"--vocab", "--checkpoint", "--left", "--right", "--out", "--verbose"}),
    ])
    def test_mine_and_scoring_take_only_the_flags_they_read(self, command, flags):
        assert _flags(command) == flags

    @pytest.mark.parametrize("command", ["predict", "explain"])
    @pytest.mark.parametrize("flag", [["--config", "x"], ["--seed", "1"]])
    def test_scoring_takes_no_settings(self, trained, tmp_path, capsys, command, flag):
        root, out = trained
        argv = [command, "--vocab", str(root / "vocab.txt"), "--checkpoint", str(out / "stage2" / "model.ckpt")]
        if command == "predict":
            argv += ["--pairs", str(root / "unlabelled.tsv"), "--out", str(tmp_path / "s.tsv")]
        else:
            argv += ["--left", "CCO", "--right", "CCN"]
        with pytest.raises(SystemExit) as info:
            main(argv + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()
