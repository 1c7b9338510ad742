"""The mine, train and serve workloads.

Each workload builds its inputs from the seed (set-up, timed several
times), warms up, then runs a fixed amount of work in one process as a
closed loop with one client, checking every output.  Library calls go
through module attributes (`spm.mine_vocabulary`, not a `from` import) so
that a traced run's wrappers see them.

Every workload yields the same end-to-end values; what each one stands
for is listed in WORKLOAD_METRICS.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import caster.cli as cli
import caster.corpus as corpus
import caster.featurize as featurize
import caster.model as model
import caster.nn as nn
import caster.spm as spm
import inputs

PINS = Path(__file__).with_name("pins.json")

TEST_AUC_FLOOR = 0.9
SCORE_TOLERANCE = 1e-6
PRINTED_DIGITS_TOLERANCE = 5e-7  # `caster predict` prints six decimals

MINE_HELD_OUT = 300
MINE_ROUNDS = 4  # every held-out compound recurs in four pairs
SERVE_UNSEEN = 360
SERVE_SEEN = 40
SERVE_ROUNDS = 2
VOCAB_IO_PER_ROUND = 4
SETUP_REPEATS = {"mine": 3, "train": 3, "serve": 1}  # one serve set-up mines and saves a checkpoint: ~22 s
TRAIN_BATCH = 256
TRAIN_SPLIT = (0.8, 0.1, 0.1)  # 2,048 / 256 / 256 rows: whole batches, 256-row validation

# What the generic end-to-end values stand for on each workload.
WORKLOAD_METRICS = {
    "mine": {
        "job_s": "tokenize + mine_vocabulary of 2,000 compounds (mine_s)",
        "pairs_per_s": "featurize_pairs over held-out compounds (featurize_pairs_per_s)",
        "op_ms": "substructure_membership of one new compound",
        "io_s": "Vocabulary save + load, median of 40",
    },
    "train": {
        "job_s": "pretrain_arrays + train_arrays, validation included",
        "pairs_per_s": "pair-steps per second of the fit, validation included (train_pairs_per_s)",
        "op_ms": "one CasterModel.step",
        "io_s": "save_checkpoint (checkpoint_save_s)",
    },
    "serve": {
        "job_s": "one in-process `caster predict`, median of 3 (predict_cli_s)",
        "pairs_per_s": "featurize_pairs + predict_pairs on the loaded model (predict_pairs_per_s)",
        "op_ms": "one explain_pair (explain_p50_ms, explain tail)",
        "io_s": "load_checkpoint, median of 4: one direct, one inside each `caster predict` (checkpoint_load_s)",
    },
}


class Tally:
    """Operations and checks attempted, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.last_error: Exception | None = None

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            self.last_error = err
            raise

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {label} failed {detail}".rstrip())


@dataclass
class Outcome:
    e2e: dict[str, float]
    latency: dict
    inputs: dict
    computed: dict
    outputs: dict = field(default_factory=dict)


class Context:
    def __init__(self, name: str, seed: int, seconds: int, recorder, tmp: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.tmp = tmp
        self.tally = Tally()

    def trace(self, on: bool) -> None:
        if self.recorder is not None:
            self.recorder.active = on

    def setup(self, build):
        """Run `build` several times; keep the last result and the median time.

        A traced run keeps the spans of the last repetition only.
        """
        times = []
        for _ in range(SETUP_REPEATS[self.name]):
            out = None  # release the previous repetition's objects first
            if self.recorder is not None:
                self.recorder.clear()
            self.trace(True)
            t = time.perf_counter()
            out = build()
            times.append(time.perf_counter() - t)
            self.trace(False)
        return out, statistics.median(times)


def latency(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    q = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    rank = max(1, math.ceil(q / 100 * n))
    return {"p50_s": statistics.median(xs), "tail_s": xs[rank - 1], "tail_percentile": q, "samples": n}


@contextmanager
def call_times(owner, attr: str):
    """Wall time of every call to `owner.attr` (a class or module) inside the block."""
    original = vars(owner)[attr]
    times: list[float] = []

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t)

    setattr(owner, attr, timed)
    try:
        yield times
    finally:
        setattr(owner, attr, original)


def mine_job(compounds: list[str]) -> spm.Vocabulary:
    return spm.mine_vocabulary([corpus.atom_tokenize(s) for s in compounds], inputs.ETA)


def features_digest(X: np.ndarray) -> str:
    h = hashlib.sha256(f"{X.shape}".encode())
    h.update(np.ascontiguousarray(X, dtype=np.uint8).tobytes())
    return h.hexdigest()


def pinned(workload: str, seed: int) -> dict | None:
    if not PINS.is_file():
        return None
    return json.loads(PINS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


# -- reference segmentation: the sequential rule walk, kept as an oracle ----

def reference_segment(tokens: list[str], merges: list[tuple[str, str]]) -> list[str]:
    seq = list(tokens)
    for left, right in merges:
        if left not in seq:
            continue
        out: list[str] = []
        i = 0
        while i < len(seq):
            if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return seq


def reference_features(pairs: corpus.PairCorpus, vocab: spm.Vocabulary) -> np.ndarray:
    merges = [(r.left, r.right) for r in vocab.merges]
    index = {tok: i for i, tok in enumerate(vocab.tokens())}
    member: dict[str, set[int]] = {}
    for s in pairs.drugs():
        toks = reference_segment(corpus.atom_tokenize(s), merges)
        member[s] = {index[t] for t in toks if t in index}
    X = np.zeros((len(pairs), vocab.k))
    for row, ex in enumerate(pairs):
        X[row, sorted(member[ex.left] & member[ex.right])] = 1.0
    return X


def replay_matches(compounds: list[str], vocab: spm.Vocabulary) -> bool:
    """Segmenting the mined corpus with its own rules gives its substructure list."""
    merges = [(r.left, r.right) for r in vocab.merges]
    freq = Counter(t for s in compounds for t in reference_segment(corpus.atom_tokenize(s), merges))
    expected = sorted(((t, c) for t, c in freq.items() if c >= vocab.eta), key=lambda tc: (-tc[1], tc[0]))
    return expected == vocab.substructures


# -- input properties and computed operation counts --------------------------

def pair_properties(X: np.ndarray, pairs: corpus.PairCorpus) -> dict:
    shared = X.sum(axis=1)
    compounds = len(pairs.drugs())
    return {
        "pairs": len(pairs),
        "compounds": compounds,
        "pairs_per_compound": {"value": 2 * len(pairs) / compounds, "base": "pair slots / distinct compounds"},
        "mean_shared_substructures": float(shared.mean()),
        "zero_shared_share": {"value": float((shared == 0).mean()), "base": "pairs"},
        "feature_density": float(X.mean()),
    }


def vocab_properties(compounds: list[str], vocab: spm.Vocabulary) -> dict:
    tokens = sum(len(corpus.atom_tokenize(s)) for s in compounds)
    return {
        "mined_compounds": len(compounds),
        "tokens_per_compound": tokens / len(compounds),
        "k": vocab.k,
        "merges": len(vocab.merges),
        "eta": vocab.eta,
    }


def dense_flops(dims: list[int], rows: int) -> int:
    return sum(2 * rows * a * b for a, b in zip(dims, dims[1:]))


def computed_counts(m: model.CasterModel, batch: int) -> dict:
    """Operation counts from layer shapes; computed, not measured."""
    cfg, k = m.config, m.k
    enc = [k, *cfg.encoder_hidden, cfg.latent_dim]
    dec = [cfg.latent_dim, *cfg.decoder_hidden, k]
    pred = [k, *cfg.predictor_hidden, 1]
    forward = dense_flops(enc, batch) + dense_flops(enc, k) + dense_flops(dec, batch) + dense_flops(pred, batch)
    return {
        "source": "computed from layer shapes",
        "parameters": int(sum(a.size for a in m.state_arrays().values())),
        # backward: one input-gradient and one weight-gradient product per layer
        "dense_flops_per_train_step": 3 * forward,
        "train_batch": batch,
        "dense_flops_per_scored_pair": dense_flops(enc, 1) + dense_flops(pred, 1),
        "dense_flops_per_dictionary_basis": dense_flops(enc, k),
        # forward reads the identity; the weight gradient reads it again
        "identity_bytes_per_train_step": 2 * k * k * m._eye.itemsize,
    }


# -- workloads ----------------------------------------------------------------

def mine_inputs(seed: int):
    pool = inputs.long_compounds(inputs.MINE_POOL, seed, seed)
    held = inputs.held_out(MINE_HELD_OUT, inputs.derive(seed, 10), seed, pool)
    pairs = inputs.recurring_pairs(held, MINE_ROUNDS, inputs.derive(seed, 11))
    return pool, held, pairs


def run_mine(ctx: Context) -> Outcome:
    tally = ctx.tally
    (pool, held, pairs), setup_s = ctx.setup(lambda: mine_inputs(ctx.seed))

    warm = mine_job(pool[:200])
    featurize.featurize_pairs(corpus.PairCorpus(pairs.examples[:20], corpus.UNLAB), warm)

    ctx.trace(True)
    t = time.perf_counter()
    vocab = tally.call("mine", mine_job, pool)
    mine_s = time.perf_counter() - t

    # featurize calls, single-compound segmentations and vocabulary round
    # trips alternate, so each samples the whole phase, not one stretch of it
    rounds = max(2, ctx.seconds)
    path = ctx.tmp / "vocab.txt"
    rates, digests, segment_times, io_times = [], set(), [], []
    for r in range(rounds):
        t = time.perf_counter()
        X, _ = tally.call("featurize_pairs", featurize.featurize_pairs, pairs, vocab)
        rates.append(len(pairs) / (time.perf_counter() - t))
        digests.add(features_digest(X))
        for s in held[r::rounds]:
            t = time.perf_counter()
            tally.call("membership", featurize.substructure_membership, s, vocab)
            segment_times.append(time.perf_counter() - t)
        for _ in range(VOCAB_IO_PER_ROUND):
            t = time.perf_counter()
            vocab.save(path)
            loaded = tally.call("vocabulary load", spm.Vocabulary.load, path)
            io_times.append(time.perf_counter() - t)
    ctx.trace(False)

    tally.check("vocabulary round trip", loaded.content_hash() == vocab.content_hash())
    tally.check("featurize_pairs repeats", len(digests) == 1)
    tally.check("features equal the reference segmenter", np.array_equal(X, reference_features(pairs, vocab)))
    pin = pinned("mine", ctx.seed)
    if pin is not None:
        tally.check("pinned vocabulary hash", vocab.content_hash() == pin["vocab_hash"])
        tally.check("pinned feature digest", features_digest(X) == pin["features_sha256"])
    else:
        tally.check("merges replay to the substructure list", replay_matches(pool, vocab))

    return Outcome(
        e2e={
            "setup_s": setup_s,
            "job_s": mine_s,
            "pairs_per_s": statistics.median(rates),
            "io_s": statistics.median(io_times),
        },
        latency=latency(segment_times),
        inputs={**vocab_properties(pool, vocab), **pair_properties(X, pairs), "pinned": pin is not None},
        computed={},
        outputs={"vocab_hash": vocab.content_hash(), "features_sha256": features_digest(X)},
    )


def run_train(ctx: Context) -> Outcome:
    tally = ctx.tally

    def build():
        U, X, y, planted = inputs.train_arrays(ctx.seed)
        m = model.CasterModel(inputs.TRAIN_K, model.ModelConfig(), model.LossWeights(), seed=ctx.seed)
        return U, X, y, planted, m

    (U, X, y, planted, m), setup_s = ctx.setup(build)
    epochs = max(1, ctx.seconds // 3)
    cfg = model.TrainingConfig(
        batch_size=TRAIN_BATCH,
        lr=1e-3,
        pretrain_epochs=1,
        max_epochs=epochs,
        patience=epochs,  # never stops early, so run length does not depend on AUC
        split_ratio=TRAIN_SPLIT,
        seed=ctx.seed,
    )

    warm = model.CasterModel(inputs.TRAIN_K, model.ModelConfig(), model.LossWeights(), seed=ctx.seed + 1)
    _, _, grads = warm.step(X[:TRAIN_BATCH], y[:TRAIN_BATCH])
    nn.Adam(warm.parameters()).step(grads)
    del warm, grads

    ctx.trace(True)
    with call_times(model.CasterModel, "step") as step_times:
        t = time.perf_counter()
        pre = tally.call("pretrain_arrays", model.pretrain_arrays, m, U, cfg)
        result = tally.call("train_arrays", model.train_arrays, m, X, y, cfg)
        fit_s = time.perf_counter() - t
    ckpt = ctx.tmp / "model.ckpt"
    t = time.perf_counter()
    tally.call("save_checkpoint", model.save_checkpoint, ckpt, m)
    save_s = time.perf_counter() - t
    ctx.trace(False)

    n_train = len(result.split["train"])
    pair_steps = U.shape[0] * cfg.pretrain_epochs + n_train * len(result.history)
    losses = [row["loss"] for row in pre + result.history]
    auc = result.test_metrics["roc_auc"]
    tally.check("epochs run", len(result.history) == epochs, f"{len(result.history)} != {epochs}")
    tally.check("finite losses", all(math.isfinite(v) for v in losses))
    tally.check("test_roc_auc floor", auc >= TEST_AUC_FLOOR, f"{auc:.4f} < {TEST_AUC_FLOOR}")
    ckpt_bytes = ckpt.stat().st_size
    tally.check("checkpoint written", ckpt_bytes > 0)

    return Outcome(
        e2e={
            "setup_s": setup_s,
            "job_s": fit_s,
            "pairs_per_s": pair_steps / fit_s,
            "io_s": save_s,
        },
        latency=latency(step_times),
        inputs={
            "k": inputs.TRAIN_K,
            "unlabelled_rows": U.shape[0],
            "labelled_rows": X.shape[0],
            "nonzeros_per_row": inputs.TRAIN_NNZ,
            "feature_density": float(X.mean()),
            "planted_bit": planted,
            "positive_share": {"value": float(y.mean()), "base": "labelled rows"},
            "epochs": epochs,
            "steps": len(step_times),
            "pair_steps": pair_steps,
        },
        computed={**computed_counts(m, TRAIN_BATCH), "checkpoint_bytes": ckpt_bytes},
        outputs={"test_roc_auc": auc},
    )


def serve_inputs(seed: int):
    vocab_seed = inputs.derive(seed, 20)  # the mine generator under another seed
    pool = inputs.long_compounds(inputs.MINE_POOL, vocab_seed, vocab_seed)
    unseen = inputs.held_out(SERVE_UNSEEN, inputs.derive(seed, 21), vocab_seed, pool)
    rng = np.random.default_rng(inputs.derive(seed, 22))
    seen = [pool[i] for i in sorted(rng.choice(len(pool), SERVE_SEEN, replace=False))]
    pairs = inputs.recurring_pairs(unseen + seen, SERVE_ROUNDS, inputs.derive(seed, 23))
    return pool, pairs


def run_serve(ctx: Context) -> Outcome:
    tally = ctx.tally
    vocab_path, ckpt, pairs_path, out_path = (
        ctx.tmp / name for name in ("vocab.txt", "model.ckpt", "pairs.tsv", "scores.tsv")
    )

    def build():
        pool, pairs = serve_inputs(ctx.seed)
        vocab = mine_job(pool)
        m = model.CasterModel(
            vocab.k, model.ModelConfig(), model.LossWeights(), seed=ctx.seed, vocab_hash=vocab.content_hash()
        )
        vocab.save(vocab_path)
        model.save_checkpoint(ckpt, m)
        corpus.write_pair_corpus(pairs_path, pairs)
        return pool, pairs, vocab, m

    (pool, pairs, vocab, m), setup_s = ctx.setup(build)

    probe = corpus.PairCorpus(pairs.examples[:16], corpus.UNLAB)
    m.predict_pairs(featurize.featurize_pairs(probe, vocab)[0])
    for ex in probe.examples[:3]:
        model.explain_pair(m, ex.left, ex.right, vocab)

    ctx.trace(True)
    t = time.perf_counter()
    loaded = tally.call("load_checkpoint", model.load_checkpoint, ckpt, vocab=vocab)
    load_times = [time.perf_counter() - t]

    argv = ["predict", "--vocab", str(vocab_path), "--checkpoint", str(ckpt)]
    argv += ["--pairs", str(pairs_path), "--out", str(out_path)]
    # A `caster predict` call every other round; each one's own checkpoint
    # load is one more `load_checkpoint` sample.  Scoring rounds and explain
    # calls alternate, so all of them sample the whole phase.
    rounds = max(2, 3 * ctx.seconds // 5)
    explained = pairs.examples[: max(200, 20 * ctx.seconds)]
    cli_times, codes, rates, explain_times, explanations = [], [], [], [], []
    for r in range(rounds):
        if r % 2 == 0:
            with call_times(cli, "load_checkpoint") as cli_loads:
                t = time.perf_counter()
                codes.append(tally.call("caster predict", cli.main, argv))
                cli_times.append(time.perf_counter() - t)
            load_times += cli_loads
        t = time.perf_counter()
        X, _ = tally.call("featurize_pairs", featurize.featurize_pairs, pairs, vocab)
        scores = tally.call("predict_pairs", loaded.predict_pairs, X)
        rates.append(len(pairs) / (time.perf_counter() - t))
        for ex in explained[r * len(explained) // rounds : (r + 1) * len(explained) // rounds]:
            t = time.perf_counter()
            explanations.append(tally.call("explain_pair", model.explain_pair, loaded, ex.left, ex.right, vocab))
            explain_times.append(time.perf_counter() - t)
    ctx.trace(False)

    reference = m.predict_pairs(X)
    tally.check("caster predict exit codes", set(codes) == {0}, f"{codes}")
    tally.check("loaded scores match", float(np.abs(scores - reference).max()) <= SCORE_TOLERANCE)
    tally.check("scores finite and inside (0, 1)", bool(np.all((scores > 0) & (scores < 1))))
    printed = np.array([float(line.split("\t")[1]) for line in out_path.read_text().splitlines()])
    tally.check(
        "caster predict scores match",
        printed.shape == reference.shape
        and float(np.abs(printed - reference).max()) <= SCORE_TOLERANCE + PRINTED_DIGITS_TOLERANCE,
    )
    names = vocab.tokens()
    for row, table in enumerate(explanations):
        shared = {names[i] for i in np.flatnonzero(X[row])}
        weights = [abs(c) for _, c in table]
        tally.check(
            f"explanation {row}",
            {tok for tok, _ in table} <= shared
            and all(math.isfinite(w) for w in weights)
            and all(a >= b for a, b in zip(weights, weights[1:])),
        )
    pin = pinned("serve", ctx.seed)
    if pin is not None:
        tally.check("pinned vocabulary hash", vocab.content_hash() == pin["vocab_hash"])

    seen = set(pool)
    drugs = pairs.drugs()
    return Outcome(
        e2e={
            "setup_s": setup_s,
            "job_s": statistics.median(cli_times),
            "pairs_per_s": statistics.median(rates),
            "io_s": statistics.median(load_times),
        },
        latency=latency(explain_times),
        inputs={
            **vocab_properties(pool, vocab),
            **pair_properties(X, pairs),
            "unseen_share": {"value": sum(s not in seen for s in drugs) / len(drugs), "base": "distinct compounds"},
            "explained_pairs": len(explained),
            "pinned": pin is not None,
        },
        computed={**computed_counts(loaded, TRAIN_BATCH), "checkpoint_bytes": ckpt.stat().st_size},
        outputs={"vocab_hash": vocab.content_hash()},
    )


WORKLOADS = {"mine": run_mine, "train": run_train, "serve": run_serve}
