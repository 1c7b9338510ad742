"""What the benchmark in perfbench/ relies on in caster.

perfbench/ patches caster's callables by name, recognises the encoder's
basis passes by the model's `_eye` and computes operation counts from a
model's layers.  A change that breaks one of these would otherwise show up
only as a crash or an empty metric in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import caster.model
from caster import featurize
from caster.corpus import UNLAB, PairCorpus, PairExample, atom_tokenize
from caster.model import CasterModel, ModelConfig
from caster.spm import Vocabulary, mine_vocabulary

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_span_target_resolves(perfbench):
    spans, _ = perfbench
    for module_name, attr, _span in spans.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def test_scoring_callables_are_span_targets(perfbench):
    spans, _ = perfbench
    targets = {(module_name, attr) for module_name, attr, _span in spans.TARGETS}
    for attr in ("explain_pair", "CasterModel.predict_pairs", "CasterModel.dictionary_basis"):
        assert ("caster.model", attr) in targets, attr


def test_traced_explain_builds_the_basis_only_for_a_new_encoder(perfbench):
    spans, _ = perfbench
    atoms = [f"[C{i}]" for i in range(12)]
    vocab = Vocabulary([], [(a, 1) for a in atoms], eta=1, ell=0)
    left, right = "".join(atoms[:5]), "".join(atoms[3:9])
    config = ModelConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), predictor_hidden=(8,))
    fresh, scored = CasterModel(12, config, seed=0), CasterModel(12, config, seed=1)
    scored.predict_pairs(np.zeros((2, 12)))
    rec = spans.Recorder()
    rec.install()
    try:
        recorded = []
        for m in (fresh, scored):
            rec.clear()
            rec.active = True
            caster.model.explain_pair(m, left, right, vocab)  # looked up now: the patched name
            rec.active = False
            recorded.append(spans.Spans(rec))
    finally:
        rec.uninstall()
    for spans_of_model, basis_builds in zip(recorded, (1, 0)):
        assert spans_of_model.count("model.explain_pair") == 1
        assert spans_of_model.count("model.dictionary_basis") == basis_builds
        assert spans_of_model.count_under("model.dictionary_basis", "model.explain_pair") == basis_builds


def test_computed_counts_run(perfbench):
    _, workloads = perfbench
    k = 200
    counts = workloads.computed_counts(CasterModel(k, ModelConfig(), seed=0), 256)
    assert counts["dense_flops_per_train_step"] > 0
    assert counts["identity_bytes_per_train_step"] == 2 * k * k * 8


def test_traced_step_records_basis_and_ridge(perfbench):
    spans, _ = perfbench
    rec = spans.Recorder()
    rec.install()
    try:
        config = ModelConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), predictor_hidden=(8,))
        m = CasterModel(12, config, seed=0)
        rng = np.random.default_rng(0)
        X = (rng.random((6, 12)) < 0.3).astype(float)
        y = np.array([0.0, 1.0] * 3)
        rec.active = True
        m.step(X, y)
        m.dictionary_basis()
        rec.active = False
    finally:
        rec.uninstall()
    recorded = spans.Spans(rec)
    # the step's basis forward and backward, then the basis forward
    assert recorded.count_under(spans.BASIS, "model.step") == 2
    assert recorded.count_under(spans.BASIS, "model.dictionary_basis") == 1
    assert recorded.count_under("model.ridge", "model.step") > 0


def test_traced_featurize_segments_each_compound_once(perfbench):
    spans, _ = perfbench
    compounds = ["CCOCC", "CCNCC", "OCCN", "CCOCC(N)O"]
    vocab = mine_vocabulary([atom_tokenize(s) for s in compounds * 3], eta=3)
    pairs = PairCorpus(
        [PairExample(a, b) for i, a in enumerate(compounds) for b in compounds[i + 1 :]], UNLAB
    )
    rec = spans.Recorder()
    rec.install()
    try:
        rec.active = True
        featurize.featurize_pairs(pairs, vocab)
        rec.active = False
    finally:
        rec.uninstall()
    recorded = spans.Spans(rec)
    memberships = recorded.of("featurize.membership")
    assert len(memberships) == len(compounds)
    segments_under = [recorded.parents[j] for j in recorded.of("spm.segment")]
    assert sorted(segments_under) == memberships
