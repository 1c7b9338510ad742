"""Command-line interface: mine, pretrain, train, predict, explain.

Flag values take precedence over a ``--config`` key=value file, which in
turn overrides built-in defaults; the file may set only the keys of
``DEFAULTS`` and ``seed``, each once.  The config classes declare each
setting's default and type: the keys, flags and casts derive from their
fields.  ``mine`` takes only the mining keys, ``predict`` and ``explain``
take no setting, and ``pretrain`` and ``train`` share one flag set, so each
takes settings that it does not use.  ``pretrain`` and ``train`` are
deterministic given ``--seed`` (env var CASTER_SEED is the fallback); the
effective configuration is echoed into the output directory for
provenance.

Exit codes: 0 success, 1 runtime failure (IO/parse/training), 2
usage/validation error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import model as model_mod
from . import metrics
from .corpus import (
    CorpusFormatError,
    PairExample,
    SmilesParseError,
    _read_smiles,
    load_pair_corpus,
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
from .spm import DEFAULT_MAX_MERGES, Vocabulary, VocabularyError, mine_vocabulary



class UsageError(ValueError):
    pass


def _parse_hidden(text) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in str(text).split(",") if t)
    except ValueError:
        raise ValueError("expected comma-separated layer sizes") from None


# a config field's cast, by its annotation (model.py postpones annotations,
# so each is the text of its type)
_CASTS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _parse_hidden}

_MINING_KEYS = ("min_freq", "max_merges")

# key -> (default, cast) for every setting: the mining keys, which no config
# class holds; every field of the config classes but split_ratio; and
# `split`, the "7:1:2" text that sets split_ratio
_KEYS = {
    "min_freq": (50, int),
    "max_merges": (DEFAULT_MAX_MERGES, int),
    **{
        f.name: (f.default, _CASTS[f.type])
        for cls in (ModelConfig, LossWeights, TrainingConfig)
        for f in fields(cls)
        if f.name != "split_ratio"
    },
    "split": ("7:1:2", str),
}
# the settings `pretrain` and `train` read
_RUN_KEYS = tuple(key for key in _KEYS if key not in _MINING_KEYS)
# the seed's default is $CASTER_SEED, then 0
DEFAULTS = {key: default for key, (default, _) in _KEYS.items() if key != "seed"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
        if key not in _KEYS:
            raise UsageError(f"{path}: line {lineno}: unknown key {key!r}; the keys are {', '.join(sorted(_KEYS))}")
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
        self._config = args.config
        self._file = _read_config_file(self._config) if self._config else {}

    def _lookup(self, key: str):
        """(raw value, where it is set): its flag, the config file, the
        CASTER_SEED variable for the seed, or (None, None) for a default."""
        flag = self._args.get(key)
        if flag is not None:
            return flag, _flag(key)
        if key in self._file:
            return self._file[key], self._config
        if key == "seed" and os.environ.get("CASTER_SEED"):
            return os.environ["CASTER_SEED"], "CASTER_SEED"
        return None, None

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
        default, cast = _KEYS[key]
        if source is None:
            return default
        try:
            return cast(raw)
        except ValueError as err:
            raise UsageError(f"{source}: bad value {raw!r} for {key}: {err}") from None


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


def _sourced(s: Settings, make, *args, **kwargs):
    """make(*args, **kwargs).  The config classes and CasterModel refuse a
    value with a ValueError that starts with the setting's name; `main`
    exits 2 on it.  A refused value set in the config file or CASTER_SEED
    is named with that source, as `Settings.get` names it."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        key = str(err).split(" ", 1)[0]
        source = s.source(key) if key in _KEYS else None
        if source is None or source.startswith("--"):
            raise
        raise UsageError(f"{source}: {err}") from None


def _build(cls, s: Settings, **given):
    """`cls` from the settings of its fields but those `given`."""
    return _sourced(s, cls, **{f.name: s.get(f.name) for f in fields(cls) if f.name not in given}, **given)


def _new_model(s: Settings, vocab: Vocabulary, weights: LossWeights, seed: int) -> CasterModel:
    config = _build(ModelConfig, s)
    return _sourced(s, CasterModel, vocab.k, config, weights, seed=seed, vocab_hash=vocab.content_hash())


def _training_config(s: Settings) -> TrainingConfig:
    return _build(TrainingConfig, s, split_ratio=_parse_split(s))


def _check_architecture(s: Settings, config: ModelConfig, path) -> None:
    """Refuse an architecture setting that disagrees with the checkpoint at `path`."""
    for key, theirs in asdict(config).items():
        source, ours = s.source(key), s.get(key)
        if source is not None and ours != theirs:
            raise UsageError(
                f"{source}: {key}={_show(ours)} disagrees with the checkpoint {path}, "
                f"which has {key}={_show(theirs)}; leave it unset or match it"
            )


def _show(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _echo_config(out_dir: Path, s: Settings, model: CasterModel) -> None:
    """Write the settings in effect and the architecture of `model`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    values = {**{key: s.get(key) for key in _RUN_KEYS}, **asdict(model.config)}
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
    _, tokens = _read_smiles(args.corpus)
    vocab = mine_vocabulary(tokens, s.get("min_freq"), s.get("max_merges"))
    vocab.save(args.out)
    print(f"k={vocab.k} merges={len(vocab.merges)}")
    return 0


def cmd_pretrain(args) -> int:
    s = Settings(args)
    vocab = Vocabulary.load(args.vocab)
    corpus = load_pair_corpus(args.unlabelled, "unlabelled")
    config = _training_config(s)
    weights = _build(LossWeights, s)
    model = _new_model(s, vocab, weights, config.seed)
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
    weights = _build(LossWeights, s)
    if args.init_checkpoint:
        model = load_checkpoint(args.init_checkpoint, vocab=vocab)
        _check_architecture(s, model.config, args.init_checkpoint)
        model.weights = weights
    else:
        model = _new_model(s, vocab, weights, config.seed)
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

def _add_settings(p: argparse.ArgumentParser, keys) -> None:
    """A flag for each of `keys`; `Settings.get` casts what it is given."""
    for key in keys:
        default = _show(_KEYS[key][0])
        if key == "seed":
            default = f"$CASTER_SEED or {default}"
        p.add_argument(_flag(key), dest=key, help=f"default: {default}")
    p.add_argument("--config", help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("-v", "--verbose", action="store_true", help="log progress")
        p.set_defaults(func=func)
        return p

    p = command("mine", cmd_mine, "mine a substructure vocabulary from a SMILES corpus")
    p.add_argument("--corpus", required=True, help="one SMILES per line, no header")
    p.add_argument("--out", required=True)
    _add_settings(p, _MINING_KEYS)

    p = command("pretrain", cmd_pretrain, "stage 1: unsupervised training on unlabelled pairs")
    p.add_argument("--vocab", required=True)
    p.add_argument("--unlabelled", required=True, help="TSV: smiles_1<TAB>smiles_2")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_settings(p, _RUN_KEYS)

    p = command("train", cmd_train, "stage 2: supervised training with early stopping")
    p.add_argument("--vocab", required=True)
    p.add_argument("--labelled", required=True, help="TSV: smiles_1<TAB>smiles_2<TAB>label")
    p.add_argument("--init-checkpoint", dest="init_checkpoint",
                   help="stage-1 checkpoint; when set, the architecture comes from "
                        "the checkpoint, and an architecture setting must match it or be unset")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_settings(p, _RUN_KEYS)

    p = command("predict", cmd_predict, "score pairs with a trained checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)

    p = command("explain", cmd_explain, "ranked substructure coefficients for one pair")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
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
