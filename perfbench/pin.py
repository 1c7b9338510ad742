#!/usr/bin/env python3
"""Pin the mined vocabularies and feature digests of chosen seeds.

    python3 perfbench/pin.py --seeds 0-15

For each seed this runs the mine workload's job (tokenize, mine,
featurize the held-out pairs) and the serve workload's vocabulary mining
with the checked-out code, and records the vocabulary `content_hash()`
and the feature-matrix digest in `perfbench/pins.json`.  Runs of those
seeds then require bit-identical mining and segmentation.  Re-pin only
when a change is meant to alter mining or segmentation output.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    args = p.parse_args(argv)
    run.limit_blas_threads()
    if not run.use_checkout_sources():
        return 2
    import caster.featurize as featurize
    import workloads

    pins = json.loads(workloads.PINS.read_text()) if workloads.PINS.is_file() else {}
    for seed in args.seeds:
        pool, _, pairs = workloads.mine_inputs(seed)
        vocab = workloads.mine_job(pool)
        X, _ = featurize.featurize_pairs(pairs, vocab)
        pins.setdefault("mine", {})[str(seed)] = {
            "vocab_hash": vocab.content_hash(),
            "features_sha256": workloads.features_digest(X),
        }
        serve_pool, _ = workloads.serve_inputs(seed)
        pins.setdefault("serve", {})[str(seed)] = {"vocab_hash": workloads.mine_job(serve_pool).content_hash()}
        print(f"seed {seed}: k={vocab.k} merges={len(vocab.merges)}", flush=True)
        workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
