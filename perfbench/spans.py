"""In-memory span recorder that wraps caster's public callables.

A traced run replaces module and class attributes of the `caster`
package with wrappers.  Each wrapper records one span per call: its
name, start, end and the index of its parent span.  Spans stay in memory
and are written out when the run ends.  An untraced run installs
nothing, so it runs the package's own code unchanged.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import weakref

# (module, attribute or Class.method, span name).  Functions are patched in
# every caster module that imported them, so calls made through a
# `from ... import` name are recorded as well.  SIZES names the spans that
# also record how many pairs (or rows) a call was given.
SIZES = {
    "featurize.featurize_pairs": lambda args: len(args[0]),
    "model.predict_pairs": lambda args: len(args[1]),
}
TARGETS = [
    ("caster.corpus", "atom_tokenize", "corpus.atom_tokenize"),
    ("caster.corpus", "load_pair_corpus", "corpus.load_pair_corpus"),
    ("caster.spm", "mine_vocabulary", "spm.mine_vocabulary"),
    ("caster.spm", "segment", "spm.segment"),
    ("caster.spm", "Vocabulary.load", "spm.vocabulary_load"),
    ("caster.featurize", "featurize_pairs", "featurize.featurize_pairs"),
    ("caster.featurize", "substructure_membership", "featurize.membership"),
    ("caster.model", "CasterModel.step", "model.step"),
    ("caster.model", "CasterModel.dictionary_basis", "model.dictionary_basis"),
    ("caster.model", "CasterModel.predict_pairs", "model.predict_pairs"),
    ("caster.model", "cho_factor", "model.ridge"),
    ("caster.model", "cho_solve", "model.ridge"),
    ("caster.model", "ridge_coefficients", "model.ridge"),
    ("caster.model", "explain_pair", "model.explain_pair"),
    ("caster.model", "save_checkpoint", "model.save_checkpoint"),
    ("caster.model", "load_checkpoint", "model.load_checkpoint"),
    ("caster.nn", "Dense.forward", "nn.dense_forward"),
    ("caster.nn", "Dense.backward", "nn.dense_backward"),
    ("caster.nn", "BatchNorm1d.forward", "nn.batchnorm_forward"),
    ("caster.nn", "BatchNorm1d.backward", "nn.batchnorm_backward"),
    ("caster.nn", "Adam.step", "nn.adam_step"),
    ("caster.metrics", "roc_auc", "metrics.roc_auc"),
    ("caster.cli", "main", "cli.main"),
]

BASIS = "model.encoder_basis"


class Recorder:
    """Spans as parallel lists; `active` switches recording on and off."""

    def __init__(self):
        self.active = False
        self.clear()
        # identity matrices of live models, so encoder passes over them can
        # be told apart from passes over data
        self._eyes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._undo: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.names: list[str] = []
        self.sizes: list[int | None] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label_of=None, size_of=None):
        """`label_of(args)` may rename a span or, returning None, skip it;
        `size_of(args)` records the amount of work a call was given."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            label = name if label_of is None else label_of(args)
            if label is None:
                return fn(*args, **kwargs)
            i = len(rec.names)
            rec.names.append(label)
            rec.sizes.append(None if size_of is None else size_of(args))
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ends.append(math.nan)
            rec._stack.append(i)
            rec.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.ends[i] = time.perf_counter()
                rec._stack.pop()

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): a class keeps its descriptors (classmethod)
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "caster" or name.startswith("caster.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self) -> None:
        import caster.model
        import caster.nn

        for module_name, attr, span in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                if isinstance(original, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(span, original.__func__)))
                else:
                    self._set(cls, meth, self.wrap(span, original, size_of=SIZES.get(span)))
            else:
                wrapper = self.wrap(span, getattr(module, attr), size_of=SIZES.get(span))
                self._patch_function(module, attr, wrapper)

        eyes = self._eyes
        model_init = caster.model.CasterModel.__init__

        @functools.wraps(model_init)
        def init(model, *args, **kwargs):
            model_init(model, *args, **kwargs)
            eye = getattr(model, "_eye", None)
            if eye is not None:
                eyes[id(eye)] = eye

        def is_eye(x) -> bool:
            return eyes.get(id(x)) is x

        mlp = caster.nn.MLP
        self._set(caster.model.CasterModel, "__init__", init)
        self._set(mlp, "forward", self.wrap(BASIS, mlp.forward, lambda a: BASIS if is_eye(a[1]) else None))
        self._set(
            mlp, "backward", self.wrap(BASIS, mlp.backward, lambda a: BASIS if is_eye(a[1][0][0]) else None)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "sizes": self.sizes,
                },
                fh,
            )


class Spans:
    """Read-only view of a recorder's spans with self times and nesting."""

    def __init__(self, rec: Recorder):
        self.names = rec.names
        self.parents = rec.parents
        self.sizes = rec.sizes
        self.dur = [e - s for s, e in zip(rec.starts, rec.ends)]
        self.children_time = [0.0] * len(self.dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                self.children_time[p] += self.dur[i]

    def __len__(self) -> int:
        return len(self.names)

    def self_time(self, i: int) -> float:
        return self.dur[i] - self.children_time[i]

    def of(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total(self, name: str) -> float:
        """Wall time inside spans of `name`, counting nested repeats once."""
        return sum(self.dur[i] for i in self.of(name) if not self.has_ancestor(i, name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(i) for i in self.of(name))

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i in self.of(name) if self.has_ancestor(i, ancestor))

    def size_total(self, name: str) -> int:
        return sum(self.sizes[i] or 0 for i in self.of(name))
