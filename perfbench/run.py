#!/usr/bin/env python3
"""Benchmark of the caster pipeline: the mine, train and serve workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mine --seed 0 --seconds 10 --trace 0

The benchmark imports `caster` from the checkout's `src/`, generates its
inputs from `--seed`, runs one workload in this process with at most one
BLAS thread per available core, checks the outputs, and prints two JSON
lines: a report (provenance, input properties, computed operation counts,
latency percentiles, failures), then the result object
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` caster's public
callables are wrapped in span recorders and the metrics are per layer.
Spans are written to `.perfbench_out/` when the run ends.

Exit codes: 0 all checks passed, 1 a check or operation failed, 2 the
checkout has no caster sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_CHECK_SEED = 104_729  # kept unused while developing; see README.md

E2E = {
    "setup_s": "s",
    "job_s": "s",
    "pairs_per_s": "pairs/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "io_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
}

LAYER_UNITS = {
    "spm.mine_vocabulary_s": "s",
    "spm.merges": "count",
    "spm.segment_s": "s",
    "spm.segment_calls": "count",
    "spm.vocabulary_load_s": "s",
    "featurize.featurize_pairs_s": "s",
    "featurize.membership_calls": "count",
    "featurize.pair_slots": "count",
    "featurize.membership_hit_ratio": "ratio",
    "corpus.atom_tokenize_s": "s",
    "corpus.load_pair_corpus_s": "s",
    "model.step_p50_s": "s",
    "model.step_tail_s": "s",
    "model.step_calls": "count",
    "model.step_children_share": "ratio",
    "model.step_self_p50_s": "s",
    "model.encoder_basis_s": "s",
    "model.ridge_s": "s",
    "model.dictionary_basis_calls": "count",
    "model.dictionary_basis_p50_s": "s",
    "model.dictionary_basis_per_explain": "count",
    "model.dictionary_basis_per_predict": "count",
    "model.predict_pairs_s": "s",
    "model.predict_pairs_calls": "count",
    "model.predict_pairs_p50_s": "s",
    "model.explain_pair_s": "s",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "model.checkpoint_bytes": "bytes",
    "nn.dense_forward_s": "s",
    "nn.dense_backward_s": "s",
    "nn.batchnorm_forward_s": "s",
    "nn.batchnorm_backward_s": "s",
    "nn.adam_step_s": "s",
    "metrics.roc_auc_s": "s",
    "metrics.test_roc_auc": "score",
    "cli.predict_self_s": "s",
    "trace.spans": "count",
    **{f"traced.{name}": unit for name, unit in E2E.items()},
}


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cores:
            os.environ[var] = str(cores)
    return cores


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("mine", "train", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10, help="sizes the closed loops and epochs (1-60)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(outcome, tally) -> dict[str, float]:
    lat = outcome.latency
    failed = len(tally.failures)
    return {
        **outcome.e2e,
        "op_p50_ms": 1e3 * lat["p50_s"],
        "op_tail_ms": 1e3 * lat["tail_s"],
        "peak_rss_mb": peak_rss_mb(),
        "success_share": 1.0 - failed / max(tally.attempted, 1),
    }


def layer_metrics(spans, outcome, e2e) -> dict[str, float]:
    """Per-layer values from the spans; 0 where a layer did no work."""
    import statistics

    from workloads import latency

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    steps = spans.of("model.step")
    step_lat = latency([spans.dur[i] for i in steps]) if steps else {"p50_s": 0.0, "tail_s": 0.0}
    slots = 2 * spans.size_total("featurize.featurize_pairs")
    member_calls = spans.count_under("featurize.membership", "featurize.featurize_pairs")
    explains = spans.count("model.explain_pair")
    predicts = spans.count("model.predict_pairs")
    m = {
        "spm.mine_vocabulary_s": spans.total("spm.mine_vocabulary"),
        "spm.merges": outcome.inputs.get("merges", 0),
        "spm.segment_s": spans.total("spm.segment"),
        "spm.segment_calls": spans.count("spm.segment"),
        "spm.vocabulary_load_s": spans.total("spm.vocabulary_load"),
        "featurize.featurize_pairs_s": spans.total("featurize.featurize_pairs"),
        "featurize.membership_calls": member_calls,
        "featurize.pair_slots": slots,
        "featurize.membership_hit_ratio": 1.0 - member_calls / slots if slots else 0.0,
        "corpus.atom_tokenize_s": spans.total("corpus.atom_tokenize"),
        "corpus.load_pair_corpus_s": spans.total("corpus.load_pair_corpus"),
        "model.step_p50_s": step_lat["p50_s"],
        "model.step_tail_s": step_lat["tail_s"],
        "model.step_calls": len(steps),
        "model.step_children_share": median_or_zero([spans.children_time[i] / spans.dur[i] for i in steps]),
        "model.step_self_p50_s": median_or_zero([spans.self_time(i) for i in steps]),
        "model.encoder_basis_s": spans.total("model.encoder_basis"),
        "model.ridge_s": spans.total("model.ridge"),
        "model.dictionary_basis_calls": spans.count("model.dictionary_basis"),
        "model.dictionary_basis_p50_s": median_or_zero([spans.dur[i] for i in spans.of("model.dictionary_basis")]),
        "model.dictionary_basis_per_explain": (
            spans.count_under("model.dictionary_basis", "model.explain_pair") / explains if explains else 0.0
        ),
        "model.dictionary_basis_per_predict": (
            spans.count_under("model.dictionary_basis", "model.predict_pairs") / predicts if predicts else 0.0
        ),
        "model.predict_pairs_s": spans.total("model.predict_pairs"),
        "model.predict_pairs_calls": predicts,
        "model.predict_pairs_p50_s": median_or_zero([spans.dur[i] for i in spans.of("model.predict_pairs")]),
        "model.explain_pair_s": spans.total("model.explain_pair"),
        "model.checkpoint_save_s": spans.total("model.save_checkpoint"),
        "model.checkpoint_load_s": spans.total("model.load_checkpoint"),
        "model.checkpoint_bytes": outcome.computed.get("checkpoint_bytes", 0),
        "nn.dense_forward_s": spans.total("nn.dense_forward"),
        "nn.dense_backward_s": spans.total("nn.dense_backward"),
        "nn.batchnorm_forward_s": spans.total("nn.batchnorm_forward"),
        "nn.batchnorm_backward_s": spans.total("nn.batchnorm_backward"),
        "nn.adam_step_s": spans.total("nn.adam_step"),
        "metrics.roc_auc_s": spans.total("metrics.roc_auc"),
        "metrics.test_roc_auc": outcome.outputs.get("test_roc_auc", 0.0),
        "cli.predict_self_s": spans.self_total("cli.main"),
        "trace.spans": len(spans),
        **{f"traced.{name}": e2e[name] for name in E2E},
    }
    return m


def use_checkout_sources() -> bool:
    """Make `import caster` load the checkout's `src/caster`; False if absent."""
    src = ROOT / "src"
    if not (src / "caster" / "__init__.py").is_file():
        print(f"error: no caster sources under {src}; run from a source checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import caster

    if Path(caster.__file__).resolve().parent != (src / "caster").resolve():
        print(f"error: imported caster from {caster.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = limit_blas_threads()
    if not use_checkout_sources():
        return 2

    import provenance
    import spans
    import workloads

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, recorder, tmp)
    outcome = None
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except Exception as err:  # the workload stops; the failure is reported below
        if err is not ctx.tally.last_error:
            ctx.tally.failures.append(f"{type(err).__name__}: {err}")
    finally:
        ctx.trace(False)
        shutil.rmtree(tmp, ignore_errors=True)
        if recorder is not None:
            recorder.uninstall()

    tally = ctx.tally
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "claim_check_seed": CLAIM_CHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, cores),
        "failures": tally.failures,
    }
    metrics = None
    if outcome is not None:
        e2e = end_to_end(outcome, tally)
        report.update(
            {
                "stands_for": workloads.WORKLOAD_METRICS[args.workload],
                "latency": outcome.latency,
                "inputs": outcome.inputs,
                "computed": outcome.computed,
                "outputs": outcome.outputs,
                "end_to_end": e2e,
            }
        )
        if recorder is None:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E.items()}
        else:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            recorder.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
            layers = layer_metrics(spans.Spans(recorder), outcome, e2e)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    print(json.dumps({"report": report}, default=str))
    correct = outcome is not None and not tally.failures
    print(
        json.dumps(
            {"correct": correct, "attempted": max(tally.attempted, 1), "failed": len(tally.failures), "metrics": metrics or {}}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
