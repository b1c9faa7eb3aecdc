"""Benchmark of the usable-info pipeline.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload tree_csv --seed 1 --seconds 40 --trace 0

It imports the package from ``src/``, generates its inputs from ``--seed``,
runs one untimed warm-up pass at the reference seed (checked against
``perfbench/reference.json``), then repeats timed passes of the workload for
``--seconds`` seconds, checking every pass's outputs.  It prints one line per
metric (median, unit, sample count) and, last, one JSON object.  With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1``
the passes alternate between untraced and traced, and it holds the per-layer
metrics of the traced passes, which are also written with every span to
``.perfbench/trace-<workload>-seed<seed>.json``.  The exit code is 1 when an
operation fails or an output check does not hold, 2 when the package cannot
be imported from the checkout.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import os

# BLAS threads per process, fixed before numpy loads: the sweep's pool runs
# at most nproc processes, so processes x threads stays within nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Set-ups measured per run (fresh interpreters); setup_s is their median.
SETUP_REPEATS = 5
EXIT_CHECK_FAILED = 1
EXIT_NO_PROGRAM = 2

sys.path.insert(0, str(ROOT))
from perfbench.tracing import LAYERS, Span, Tracer, function_stats, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_SEED, WORKLOADS, CheckFailed, Session, check_reference)

SAMPLE_UNITS = {"pass_s": "s", "tree_s": "s", "simulate_s": "s", "estimate_s": "s",
                "sweep_cells_per_s": "1/s", "baselines_s": "s", "worker_util": "ratio"}


def load_program() -> types.SimpleNamespace:
    """Import usable_info from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "usable_info" / "__init__.py").is_file():
        raise ImportError(f"no usable_info package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("usable_info")
    if Path(package.__file__).resolve().parent != SRC / "usable_info":
        raise ImportError(f"usable_info imported from {package.__file__}, not {SRC}")
    names = ("synth", "data", "families", "estimation", "structure", "baselines", "cli")
    return types.SimpleNamespace(**{n: importlib.import_module(f"usable_info.{n}")
                                    for n in names})


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    The child prints ``perf_counter()`` when its set-up is done; that clock
    is system-wide, so the difference needs no polling of the child.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _median_sample(passes, key) -> float:
    return statistics.median(p.samples[key] for p in passes)


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer metrics, per traced pass, from the spans of ``traced``."""
    k = len(traced)
    stats = function_stats(tracer.spans)
    selfs = self_times(tracer.spans)

    def stat(name, key="s"):
        entry = stats.get(name)
        if entry is None:
            return 0.0
        return entry[key] if key in ("s", "calls") else entry["attrs"][key]

    def rate(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for fn in ("write_dataset_csv", "read_dataset_csv"):
        m[f"data.{fn}.s"] = (stat(f"data.{fn}") / k, "s")
        m[f"data.{fn}.mb_per_s"] = (rate(stat(f"data.{fn}", "bytes") / 1e6,
                                         stat(f"data.{fn}")), "MB/s")
    m["synth.simulate.s"] = (stat("synth.simulate") / k, "s")
    m["families.fit_conditional.calls"] = (stat("families.fit_conditional", "calls") / k, "count")
    m["families.fit_conditional.s"] = (stat("families.fit_conditional") / k, "s")
    m["families.fit_marginal.s"] = (stat("families.fit_marginal") / k, "s")
    m["families.fit_warnings"] = (tracer.counters["families.fit_warnings"] / k, "count")
    cond = stat("estimation.empirical_conditional_entropy", "calls")
    marg = stat("estimation.empirical_entropy", "calls")
    m["estimation.empirical_conditional_entropy.calls"] = (cond / k, "count")
    m["estimation.empirical_conditional_entropy.s"] = (
        stat("estimation.empirical_conditional_entropy") / k, "s")
    m["estimation.empirical_entropy.calls"] = (marg / k, "count")
    m["estimation.marginal_per_pair"] = (rate(marg, cond), "ratio")
    pairs = stat("structure.edge_weights", "pairs")
    m["structure.edge_weights.s"] = (stat("structure.edge_weights") / k, "s")
    m["structure.edge_weights.pairs"] = (pairs / k, "count")
    m["structure.edge_weights.us_per_pair"] = (
        rate(stat("structure.edge_weights") * 1e6, pairs), "us")
    m["structure.max_arborescence.s"] = (stat("structure.max_arborescence") / k, "s")
    m["structure.max_arborescence.calls"] = (stat("structure.max_arborescence", "calls") / k,
                                             "count")
    m["structure.wrong_edges_ratio.mean"] = (
        rate(stat("structure.wrong_edges_ratio", "value"),
             stat("structure.wrong_edges_ratio", "calls")), "ratio")
    m["baselines.fit_critic.s"] = (stat("baselines.fit_critic") / k, "s")
    m["baselines.fit_critic.calls"] = (stat("baselines.fit_critic", "calls") / k, "count")
    m["baselines.cpc_estimate.s"] = (stat("baselines.cpc_estimate") / k, "s")
    m["baselines.nwj_estimate.s"] = (stat("baselines.nwj_estimate") / k, "s")
    m["baselines.capped_events"] = (tracer.counters["baselines.capped_events"] / k, "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / k, "s")
    for command in ("simulate", "tree", "estimate", "sweep", "baselines"):
        m[f"cli.{command}.s"] = (stat(f"cli.{command}") / k, "s")
    m["cli.sweep.worker_util"] = (
        statistics.median(p.samples.get("worker_util", 0.0) for p in untraced), "ratio")
    m["trace.overhead_s"] = (
        _median_sample(traced, "pass_s") - _median_sample(untraced, "pass_s"), "s")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until their summed wall time reaches this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the harness's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["trees"]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    jobs = min(2, len(os.sched_getaffinity(0)))
    notes = []
    if args.trace and multiprocessing.get_start_method() != "fork":
        jobs = 1
        notes.append("sweep traced at --jobs 1: pool workers are not forked here, "
                     "so their spans cannot be collected")
    workload = WORKLOADS[args.workload](args.size, workdir, jobs)
    if args.setup_only:
        print(time.perf_counter())
        return 0

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("note: " + note)
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    session = Session(program)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setup = measure_setup(args)
        warm = workload.run(session, REFERENCE_SEED)
        if workload.has_reference:
            check_reference(workload, warm.outputs, reference)
        tracer = Tracer(workdir) if args.trace else None
        untraced, traced = [], []
        measured = 0.0
        while measured < args.seconds or not untraced or (tracer and not traced):
            use_tracer = tracer is not None and len(untraced) > len(traced)
            session.tracer = tracer if use_tracer else None
            if use_tracer:
                tracer.install()
            try:
                done = workload.run(session, args.seed)
            finally:
                if use_tracer:
                    tracer.uninstall()
                session.tracer = None
            (traced if use_tracer else untraced).append(done)
            measured += done.samples["pass_s"]
            if done.outputs != untraced[0].outputs:
                raise CheckFailed("a pass gave other outputs than the first pass "
                                  "on the same inputs")

        _print_samples(untraced, "untraced")
        print(f"{'wrong_edges_ratio':<24} {untraced[0].wrong_edges_ratio!r:>14} ratio "
              f"(deterministic)")
        for key, value in untraced[0].extra.items():
            print(f"{key:<24} {value!r:>14} (recorded, checked finite only)")
        if tracer is None:
            metrics = {"setup_s": (statistics.median(setup), "s"),
                       "pass_s": (_median_sample(untraced, "pass_s"), "s"),
                       "tree_s": (_median_sample(untraced, "tree_s"), "s"),
                       "peak_rss_mb": (peak_rss_mb(), "MB")}
            print(f"{'setup_s':<24} {metrics['setup_s'][0]:>14.6f} s  n={len(setup)}")
            print(f"{'peak_rss_mb':<24} {metrics['peak_rss_mb'][0]:>14.3f} MB n=1")
        else:
            if any(s.attrs and s.attrs.get("over_log_n") for s in tracer.spans):
                raise CheckFailed("a CPC estimate exceeded the log of its batch size")
            _print_samples(traced, "traced")
            metrics = layer_metrics(tracer, traced, untraced)
            for name, (value, unit) in metrics.items():
                print(f"{name:<46} {value:>14.6f} {unit}  n={len(traced)} traced passes")
            _write_trace(args, env, tracer, metrics)
        result["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        result["correct"] = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = session.attempted
    result["failed"] = session.failed
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_CHECK_FAILED


def _print_samples(passes, label: str) -> None:
    for key in passes[0].samples:
        values = [p.samples[key] for p in passes]
        print(f"{key:<24} {statistics.median(values):>14.6f} {SAMPLE_UNITS[key]:<5} "
              f"n={len(values)} {label} passes")


def _write_trace(args, env, tracer, metrics) -> None:
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "metrics": {n: v for n, (v, _) in metrics.items()},
              "counters": dict(tracer.counters),
              "span_fields": list(Span._fields),
              "spans": [list(s) for s in tracer.spans]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
