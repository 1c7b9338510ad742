"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 5-7 train real
models on the planted-motif synthetic corpus; the whole suite is seeded
and deterministic on a fixed platform.
"""

import os
import time

import numpy as np
import pytest

from caster.corpus import atom_tokenize, load_pair_corpus
from caster.featurize import featurize_pairs
from caster.metrics import coefficient_correlation, f1_at_threshold, pr_auc, roc_auc
from caster.model import (
    CasterModel,
    LossWeights,
    ModelConfig,
    Scorer,
    TrainingConfig,
    explain_pair,
    load_checkpoint,
    pretrain_arrays,
    ridge_coefficients,
    save_checkpoint,
    train_arrays,
)
from caster.nn import writing
from caster.spm import Vocabulary, mine_vocabulary, segment
from caster.synthetic import DEFAULT_MOTIF, planted_motif_dataset, unlabelled_pair_corpus

from test_metrics import f1_oracle, pairwise_roc_oracle, stepwise_pr_oracle
from test_model import primal_ridge
from test_nn import gradient_check
from test_spm import naive_miner, random_corpus


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# A compact but real architecture for the training criteria; the planted
# motif corpus has k around 33, so the latent dim stays well below k.
ACCEPT_NET = dict(encoder_hidden=(128, 128), decoder_hidden=(128, 128), predictor_hidden=(256, 128, 64))
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def motif_data():
    """Shared planted-motif dataset (2,000 pairs) with its mined vocabulary."""
    data = planted_motif_dataset(n_pairs=2000, n_compounds=300, seed=0)
    vocab = mine_vocabulary([atom_tokenize(s) for s in data.compounds], eta=50)
    X, y = featurize_pairs(data.pairs, vocab)
    return data, vocab, X, y


def test_criterion_1_spm_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    for _ in range(200):
        corpus = random_corpus(rng)
        eta = int(rng.integers(1, 8))
        ell = int(rng.integers(0, 40))
        try:
            vocab = mine_vocabulary(corpus, eta, ell)
            mined = [(m.left, m.right, m.frequency_at_merge, m.rank) for m in vocab.merges]
            subs = vocab.substructures
        except Exception:
            mined, subs = None, None
        expected_merges, expected_subs, _ = naive_miner(corpus, eta, ell)
        if mined is None:
            assert not expected_subs  # miner errored only because nothing is frequent
        else:
            assert mined == expected_merges
            assert subs == expected_subs
    elapsed = time.time() - start
    report(1, elapsed < 30.0, f"200 random corpora match the rescan simulator in {elapsed:.1f}s")


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(2002)
    config = ModelConfig(latent_dim=4, encoder_hidden=(8,), decoder_hidden=(8,), predictor_hidden=(8, 8))
    model = CasterModel(12, config, LossWeights(), seed=2)
    X = (rng.random((6, 12)) < 0.4).astype(np.float64)
    y = rng.integers(0, 2, 6).astype(np.float64)
    params = model.parameters()
    with writing(params):
        for arr in params.values():  # generic point, off ReLU kinks
            arr += 0.02 * rng.normal(size=arr.shape)

    def loss_fn():
        loss, _, grads = model.step(X, y)  # batch norm in training mode, as training runs it
        return loss, grads

    start = time.time()
    rep = gradient_check(loss_fn, model.parameters(), tolerance=1e-4, step=1e-5)
    elapsed = time.time() - start
    report(
        2,
        rep.passed and elapsed < 10.0,
        f"aggregated-loss gradient max rel err {rep.max_rel_error:.2e} over "
        f"{rep.n_checked} entries in {elapsed:.1f}s",
    )


def test_criterion_3_ridge_correctness():
    rng = np.random.default_rng(3003)
    start = time.time()
    # the closed form, and z P from the scorer's solve, which every score reads
    paths = ("ridge_coefficients", "scorer z P")
    worst_gd = dict.fromkeys(paths, 0.0)
    worst_primal = dict.fromkeys(paths, 0.0)
    for _ in range(100):
        d, k, lam = 4, 9, 1e-5
        B = rng.normal(size=(d, k))
        z = rng.normal(size=d)
        primal = primal_ridge(z, B, lam)
        step = 1.0 / (np.linalg.norm(B, 2) ** 2 + lam)
        r_gd = np.zeros(k)
        for _ in range(3000):
            r_gd -= step * (B.T @ (B @ r_gd - z) + lam * r_gd)
        for path, r in zip(paths, (ridge_coefficients(z, B, lam), z @ Scorer.build((0, lam), B).P)):
            worst_primal[path] = max(worst_primal[path], float(np.max(np.abs(r - primal))))
            worst_gd[path] = max(worst_gd[path], float(np.max(np.abs(r - r_gd))))
    elapsed = time.time() - start
    report(
        3,
        max(worst_gd.values()) < 1e-6 and max(worst_primal.values()) < 1e-8 and elapsed < 10.0,
        "; ".join(f"{path} vs GD {worst_gd[path]:.2e}, vs k x k primal oracle {worst_primal[path]:.2e}"
                  for path in paths) + f" (tol 1e-6, 1e-8), {elapsed:.1f}s",
    )


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4004)
    for i in range(100):
        n = int(rng.integers(4, 201))
        while True:
            labels = rng.integers(0, 2, n)
            if 0 < labels.sum() < n:
                break
        scores = (rng.integers(0, 9, n) / 8.0) if i % 2 == 0 else rng.random(n)
        assert roc_auc(scores, labels) == pytest.approx(pairwise_roc_oracle(scores, labels), abs=1e-12)
        assert pr_auc(scores, labels) == pytest.approx(stepwise_pr_oracle(scores, labels), abs=1e-12)
        t = float(rng.random())
        assert f1_at_threshold(scores, labels, t) == pytest.approx(f1_oracle(scores, labels, t), abs=1e-12)
    report(4, True, "roc_auc / pr_auc / f1 match brute-force oracles on 100 instances")


def test_criterion_5_end_to_end_learnability(motif_data):
    _, vocab, X, y = motif_data
    config = ModelConfig(latent_dim=8, **ACCEPT_NET)
    start = time.time()
    aucs = []
    for seed in SEEDS:
        model = CasterModel(vocab.k, config, LossWeights(), seed=seed)
        tc = TrainingConfig(seed=seed, max_epochs=20, patience=5)
        result = train_arrays(model, X, y, tc)
        assert len(result.history) <= 20
        aucs.append(result.test_metrics["roc_auc"])
    elapsed = time.time() - start
    report(
        5,
        min(aucs) >= 0.95 and elapsed < 300.0,
        f"test ROC-AUC {['%.4f' % a for a in aucs]} within 20 epochs, {elapsed:.0f}s for 5 seeds",
    )


# Scarce-label protocol: of each seed's 1,000 pairs, the first 200 are the
# labelled corpus (split 5:3:2 internally) and the remaining 800 are a
# held-out evaluation set shared by both arms.  Labelled and unlabelled
# pools share one fragment universe, as real corpora share chemistry.
SEMI_EPOCHS = 5
SEMI_BATCH = 32
SEMI_WEIGHTS = LossWeights(lambda1=0.1)


def test_criterion_6_semi_supervised_benefit():
    wins = 0
    details = []
    for seed in SEEDS:
        data = planted_motif_dataset(
            n_pairs=1000, n_compounds=400, seed=100 + seed, fragment_seed=100 + seed
        )
        vocab = mine_vocabulary([atom_tokenize(s) for s in data.compounds], eta=50)
        X, y = featurize_pairs(data.pairs, vocab)
        X_label, y_label = X[:200], y[:200]
        X_held, y_held = X[200:], y[200:]
        unlab = unlabelled_pair_corpus(5000, 800, seed=200 + seed, fragment_seed=100 + seed)
        X_unlab, _ = featurize_pairs(unlab, vocab)
        config = ModelConfig(latent_dim=8, **ACCEPT_NET)
        aucs = {}
        for arm in ("plain", "pretrained"):
            model = CasterModel(vocab.k, config, SEMI_WEIGHTS, seed=seed)
            tc = TrainingConfig(
                seed=seed,
                max_epochs=SEMI_EPOCHS,
                patience=SEMI_EPOCHS,
                batch_size=SEMI_BATCH,
                pretrain_epochs=1,
                split_ratio=(0.5, 0.3, 0.2),
            )
            if arm == "pretrained":
                pretrain_arrays(model, X_unlab, tc)
            train_arrays(model, X_label, y_label, tc)
            aucs[arm] = roc_auc(model.predict_pairs(X_held), y_held)
        wins += aucs["pretrained"] > aucs["plain"]
        details.append(f"{aucs['plain']:.3f}->{aucs['pretrained']:.3f}")
    report(6, wins >= 4, f"pretraining on 5,000 unlabelled pairs wins {wins}/5 seeds ({' '.join(details)})")


# Interpretability protocol: full two-stage pipeline; the ridge weight is
# raised to 0.1 so coefficients sit in the shrinkage regime where the
# projection is determined by the data rather than by each run's null space.
EXPLAIN_WEIGHTS = LossWeights(lambda1=0.1)


@pytest.fixture(scope="module")
def explain_models(motif_data):
    data, vocab, X, y = motif_data
    unlab = unlabelled_pair_corpus(10000, 1200, seed=1)
    X_unlab, _ = featurize_pairs(unlab, vocab)
    config = ModelConfig(latent_dim=8, **ACCEPT_NET)
    models = []
    results = []
    for seed in SEEDS:
        model = CasterModel(vocab.k, config, EXPLAIN_WEIGHTS, seed=seed)
        tc = TrainingConfig(seed=seed, max_epochs=20, patience=5, pretrain_epochs=1)
        pretrain_arrays(model, X_unlab, tc)
        results.append(train_arrays(model, X, y, tc))
        models.append(model)
    return models, results


def test_criterion_7_interpretability(motif_data, explain_models):
    data, vocab, X, y = motif_data
    models, results = explain_models

    fractions = []
    for model, result in zip(models, results):
        pos_test = [i for i in result.split["test"] if y[i] == 1]
        hits = 0
        for i in pos_test:
            ex = data.pairs.examples[i]
            table = explain_pair(model, ex.left, ex.right, vocab)
            hits += DEFAULT_MOTIF in [tok for tok, _ in table[:3]]
        fractions.append(hits / len(pos_test))

    probe_rows = np.flatnonzero(y == 1)[:8]
    per_probe = []
    for row in probe_rows:
        vectors = [m.config.magnifier * m.project(m.encode(X[row])) for m in models]
        per_probe.append(coefficient_correlation(vectors)[1])
    mean_corr = float(np.mean(per_probe))

    report(
        7,
        min(fractions) >= 0.8 and mean_corr >= 0.5,
        f"motif in top-3 for {['%.2f' % f for f in fractions]} of positive test pairs; "
        f"mean cross-seed coefficient correlation {mean_corr:.3f} (threshold 0.5)",
    )


def test_criterion_8_persistence(motif_data, tmp_path):
    data, vocab, X, y = motif_data
    # vocabulary round-trip preserves segmentation exactly
    vocab_path = tmp_path / "vocab.txt"
    vocab.save(vocab_path)
    loaded_vocab = Vocabulary.load(vocab_path)
    for compound in data.compounds:
        tokens = atom_tokenize(compound)
        assert segment(tokens, loaded_vocab) == segment(tokens, vocab)

    # checkpoint round-trip preserves predictions within 1e-6
    config = ModelConfig(latent_dim=8, **ACCEPT_NET)
    model = CasterModel(vocab.k, config, LossWeights(), seed=0, vocab_hash=vocab.content_hash())
    tc = TrainingConfig(seed=0, max_epochs=2, patience=2)
    train_arrays(model, X, y, tc)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    loaded = load_checkpoint(ckpt, vocab=loaded_vocab)
    before = model.predict_pairs(X[:256])
    after = loaded.predict_pairs(X[:256])
    max_diff = float(np.max(np.abs(before - after)))
    report(8, max_diff <= 1e-6, f"checkpoint round-trip max prediction drift {max_diff:.2e}")


@pytest.mark.skipif(
    "CASTER_DATA_DIR" not in os.environ,
    reason="optional reproduction path: set CASTER_DATA_DIR to a directory with "
    "compounds.txt, labelled.tsv and unlabelled.tsv in the documented formats",
)
def test_criterion_9_user_supplied_data(tmp_path):
    root = os.environ["CASTER_DATA_DIR"]
    from caster.corpus import load_smiles_corpus

    compounds = load_smiles_corpus(os.path.join(root, "compounds.txt"))
    vocab = mine_vocabulary([atom_tokenize(s) for s in compounds], eta=50)
    labelled = load_pair_corpus(os.path.join(root, "labelled.tsv"), "labelled")
    X, y = featurize_pairs(labelled, vocab)
    model = CasterModel(vocab.k, ModelConfig(), LossWeights(), seed=0, vocab_hash=vocab.content_hash())
    result = train_arrays(model, X, y, TrainingConfig(seed=0))
    from caster.metrics import write_report

    write_report(tmp_path / "metrics.tsv", result.test_metrics)
    report(9, True, f"user-supplied data trains to completion: {result.test_metrics}")
