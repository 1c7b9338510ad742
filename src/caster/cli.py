"""Command-line interface: mine, pretrain, train, predict, explain.

Flag values take precedence over a ``--config`` key=value file, which in
turn overrides built-in defaults; the file may set only the keys of
``DEFAULTS`` and ``seed``, each once.  Every command is deterministic given
``--seed`` (env var CASTER_SEED is the fallback); the effective
configuration is echoed into the output directory for provenance.

Exit codes: 0 success, 1 runtime failure (IO/parse/training), 2
usage/validation error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from . import model as model_mod
from . import metrics
from .corpus import (
    CorpusFormatError,
    PairExample,
    SmilesParseError,
    atom_tokenize,
    load_pair_corpus,
    load_smiles_corpus,
    undecodable,
)
from .featurize import index_rows
from .model import (
    CasterModel,
    LossWeights,
    ModelConfig,
    TrainingConfig,
    TrainingError,
    _explain_row,
    load_checkpoint,
    save_checkpoint,
)
from .spm import Vocabulary, VocabularyError, mine_vocabulary



class UsageError(ValueError):
    pass


DEFAULTS = {
    "min_freq": 50,
    "max_merges": 30000,
    "latent_dim": 50,
    "encoder_hidden": "500,500",
    "decoder_hidden": "500,500",
    "predictor_hidden": "1024,1024,1024,256,64",
    "alpha": 0.1,
    "beta": 0.1,
    "gamma": 1.0,
    "lambda1": 1e-5,
    "lambda2": 0.1,
    "magnifier": 100.0,
    "batch_size": 256,
    "lr": 1e-3,
    "pretrain_epochs": 1,
    "max_epochs": 20,
    "patience": 5,
    "split": "7:1:2",
    "split_mode": "ratio",
    "fold_index": 0,
}


def _parse_hidden(text) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in str(text).split(",") if t)
    except ValueError:
        raise ValueError("expected comma-separated layer sizes") from None


_CASTS = {
    "min_freq": int, "max_merges": int, "latent_dim": int, "batch_size": int,
    "pretrain_epochs": int, "max_epochs": int, "patience": int, "fold_index": int,
    "seed": int,
    "alpha": float, "beta": float, "gamma": float, "lambda1": float, "lambda2": float,
    "magnifier": float, "lr": float,
    "encoder_hidden": _parse_hidden, "decoder_hidden": _parse_hidden, "predictor_hidden": _parse_hidden,
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise undecodable(path, UsageError) from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS and key != "seed":
            known = ", ".join(sorted([*DEFAULTS, "seed"]))
            raise UsageError(f"{path}: line {lineno}: unknown key {key!r}; the keys are {known}")
        if key in first_line:
            raise UsageError(
                f"{path}: line {lineno}: key {key!r} is already set on line {first_line[key]}; set each key once"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


class Settings:
    """Resolved option values: flags > config file > defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = getattr(args, "config", None)
        self._file = _read_config_file(self._config) if self._config else {}

    def _lookup(self, key: str):
        """(raw value, where it is set): its flag, the config file, the
        CASTER_SEED variable for the seed, or None for a default."""
        flag = self._args.get(key)
        if flag is not None:
            return flag, "--" + key.replace("_", "-")
        if key in self._file:
            return self._file[key], self._config
        if key == "seed" and os.environ.get("CASTER_SEED"):
            return os.environ["CASTER_SEED"], "CASTER_SEED"
        return DEFAULTS.get(key), None

    def source(self, key: str) -> str | None:
        return self._lookup(key)[1]

    def name(self, key: str) -> str:
        """`key` as a refusal names it: its flag, or where it is set and the key."""
        source = self.source(key)
        if source is None or source.startswith("--"):
            return source or key
        return f"{source}: {key}"

    def get(self, key: str):
        """The value of `key`, cast to its type; a value that does not cast
        raises UsageError naming the key and where it is set."""
        raw, source = self._lookup(key)
        cast = _CASTS.get(key)
        if raw is None or cast is None:
            return raw
        try:
            return cast(raw)
        except ValueError as err:
            raise UsageError(f"{source}: bad value {raw!r} for {key}: {err}") from None

    def seed(self) -> int:
        return self.get("seed") or 0

    def effective(self, keys) -> dict:
        out = {key: self.get(key) for key in keys}
        out["seed"] = self.seed()
        return out


def _parse_split(s: Settings) -> tuple[float, float, float]:
    text, name = s.get("split"), s.name("split")
    try:
        nums = [float(p) for p in str(text).split(":")]
    except ValueError:
        nums = []
    if len(nums) != 3:
        raise UsageError(f"{name} must be three colon-separated numbers, got {text!r}")
    if not all(math.isfinite(v) and v > 0 for v in nums):
        raise UsageError(f"{name} ratios must be finite numbers > 0, got {text!r}")
    total = sum(nums)
    return tuple(v / total for v in nums)


_MODEL_KEYS = ("latent_dim", "encoder_hidden", "decoder_hidden", "predictor_hidden", "magnifier")
_WEIGHT_KEYS = ("alpha", "beta", "gamma", "lambda1", "lambda2")
_TRAIN_KEYS = (
    "batch_size", "lr", "pretrain_epochs", "max_epochs", "patience",
    "split", "split_mode", "fold_index",
)


# the configs refuse a bad value with a ValueError: `main` exits 2 on it
def _model_config(s: Settings) -> ModelConfig:
    return ModelConfig(**{key: s.get(key) for key in _MODEL_KEYS})


def _check_architecture(s: Settings, config: ModelConfig, path) -> None:
    """Refuse an architecture setting that disagrees with the checkpoint at `path`."""
    for key in _MODEL_KEYS:
        source, ours, theirs = s.source(key), s.get(key), getattr(config, key)
        if source is not None and ours != theirs:
            raise UsageError(
                f"{source}: {key}={_show(ours)} disagrees with the checkpoint {path}, "
                f"which has {key}={_show(theirs)}; leave it unset or match it"
            )


def _loss_weights(s: Settings) -> LossWeights:
    return LossWeights(*(s.get(k) for k in _WEIGHT_KEYS))


def _training_config(s: Settings) -> TrainingConfig:
    return TrainingConfig(
        batch_size=s.get("batch_size"),
        lr=s.get("lr"),
        pretrain_epochs=s.get("pretrain_epochs"),
        max_epochs=s.get("max_epochs"),
        patience=s.get("patience"),
        split_ratio=_parse_split(s),
        split_mode=s.get("split_mode"),
        fold_index=s.get("fold_index"),
        seed=s.seed(),
    )


def _show(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _echo_config(out_dir: Path, s: Settings, model: CasterModel) -> None:
    """Write the settings in effect and the architecture of `model`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    values = s.effective(_WEIGHT_KEYS + _TRAIN_KEYS)
    values.update((key, getattr(model.config, key)) for key in _MODEL_KEYS)
    text = "".join(f"{k}={_show(v)}\n" for k, v in sorted(values.items()))
    (out_dir / "config_used.txt").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_mine(args) -> int:
    s = Settings(args)
    for key, least in (("min_freq", 1), ("max_merges", 0)):
        if s.get(key) < least:
            raise UsageError(f"{s.name(key)} must be >= {least}, got {s.get(key)}")
    compounds = load_smiles_corpus(args.corpus)
    vocab = mine_vocabulary([atom_tokenize(c) for c in compounds], s.get("min_freq"), s.get("max_merges"))
    vocab.save(args.out)
    print(f"k={vocab.k} merges={len(vocab.merges)}")
    return 0


def cmd_pretrain(args) -> int:
    s = Settings(args)
    vocab = Vocabulary.load(args.vocab)
    corpus = load_pair_corpus(args.unlabelled, "unlabelled")
    config = _training_config(s)
    weights = _loss_weights(s)
    model = CasterModel(vocab.k, _model_config(s), weights, seed=s.seed(), vocab_hash=vocab.content_hash())
    out_dir = Path(args.out_dir)
    _echo_config(out_dir, s, model)
    history = model_mod.pretrain(model, corpus, vocab, config)
    ckpt = out_dir / "pretrained.ckpt"
    save_checkpoint(ckpt, model)
    metrics.write_history(out_dir / "pretrain_history.tsv", history, metrics.PRETRAIN_HISTORY_COLUMNS)
    print(f"pretrained checkpoint written to {ckpt}")
    return 0


def cmd_train(args) -> int:
    s = Settings(args)
    vocab = Vocabulary.load(args.vocab)
    corpus = load_pair_corpus(args.labelled, "labelled")
    config = _training_config(s)
    weights = _loss_weights(s)
    if args.init_checkpoint:
        model = load_checkpoint(args.init_checkpoint, vocab=vocab)
        _check_architecture(s, model.config, args.init_checkpoint)
        model.weights = weights
    else:
        model = CasterModel(
            vocab.k, _model_config(s), weights, seed=s.seed(), vocab_hash=vocab.content_hash()
        )
    out_dir = Path(args.out_dir)
    _echo_config(out_dir, s, model)
    result = model_mod.train(model, corpus, vocab, config)
    save_checkpoint(out_dir / "model.ckpt", model)
    metrics.write_history(out_dir / "history.tsv", result.history)
    metrics.write_report(out_dir / "test_metrics.tsv", result.test_metrics)
    print(
        f"best epoch {result.best_epoch}: "
        f"test roc_auc={result.test_metrics['roc_auc']:.4f} "
        f"pr_auc={result.test_metrics['pr_auc']:.4f} f1={result.test_metrics['f1']:.4f}"
    )
    return 0


def cmd_predict(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    model = load_checkpoint(args.checkpoint, vocab=vocab)
    corpus = load_pair_corpus(args.pairs, "unlabelled")
    probs = model.predict_pairs(index_rows(corpus, vocab))
    with open(args.out, "w", encoding="utf-8") as fh:
        # a pair's id is its data row in the input, so a skipped row leaves a gap
        for pair_id, p in zip(corpus.rows, probs):
            fh.write(f"{pair_id}\t{p:.6f}\n")
    print(f"wrote {len(probs)} scores to {args.out}")
    return 0


def cmd_explain(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    model = load_checkpoint(args.checkpoint, vocab=vocab)
    # one segmentation per compound and one scorer for both the score and the table
    x = index_rows([PairExample(args.left, args.right)], vocab)
    table = _explain_row(model, x, vocab)
    prob = model.predict_pairs(x)[0]
    lines = "".join(f"{tok}\t{coef:.6f}\n" for tok, coef in table)
    if args.out:
        Path(args.out).write_text(lines, encoding="utf-8")
    else:
        sys.stdout.write(lines)
    print(f"interaction probability: {prob:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="random seed (default: $CASTER_SEED or 0)")
    p.add_argument("-v", "--verbose", action="store_true", help="log progress")


def _add_hyper(p: argparse.ArgumentParser) -> None:
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--encoder-hidden", dest="encoder_hidden")
    p.add_argument("--decoder-hidden", dest="decoder_hidden")
    p.add_argument("--predictor-hidden", dest="predictor_hidden")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--magnifier", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--pretrain-epochs", type=int, dest="pretrain_epochs")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--split", help="train:val:test ratio, e.g. 7:1:2")
    p.add_argument("--split-mode", dest="split_mode", help="'ratio' or 'folds:<n>'")
    p.add_argument("--fold-index", type=int, dest="fold_index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a substructure vocabulary from a SMILES corpus")
    p.add_argument("--corpus", required=True, help="one SMILES per line, no header")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--max-merges", type=int, dest="max_merges")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("pretrain", help="stage 1: unsupervised training on unlabelled pairs")
    p.add_argument("--vocab", required=True)
    p.add_argument("--unlabelled", required=True, help="TSV: smiles_1<TAB>smiles_2")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_hyper(p)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="stage 2: supervised training with early stopping")
    p.add_argument("--vocab", required=True)
    p.add_argument("--labelled", required=True, help="TSV: smiles_1<TAB>smiles_2<TAB>label")
    p.add_argument("--init-checkpoint", dest="init_checkpoint",
                   help="stage-1 checkpoint; when set, the architecture comes from "
                        "the checkpoint, and an architecture setting must match it or be unset")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_hyper(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score pairs with a trained checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="ranked substructure coefficients for one pair")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorpusFormatError, SmilesParseError, VocabularyError, TrainingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # UsageError, CheckpointError and invalid settings
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
