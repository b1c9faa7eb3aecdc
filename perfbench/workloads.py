"""The benchmark workloads: one pass of operations each, and its output checks.

Every workload is a closed loop in one process: the next operation starts when
the previous one returns.  CLI operations call ``usable_info.cli.main`` in
process, exactly as the ``usable-info`` entry point does; library operations
call the public functions through their modules, so that the tracer's hooks
see them.  A pass repeats the same inputs, so every pass must give the same
outputs as the first.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The warm-up pass runs at this seed and is checked against reference.json.
REFERENCE_SEED = 0
# Relative tolerance on a tree's total weight against the recorded reference
# and against networkx; summation order may change, the optimum may not.
TOTAL_WEIGHT_RTOL = 1e-9
# ``usable-info sweep`` and ``baselines`` score CPC on batches of this size.
CPC_BATCH = 8


class CheckFailed(Exception):
    """An operation failed or an output check did not hold."""


class Session:
    """Runs a pass's operations, counting attempts and failures.

    With a tracer set, each operation gets its own operation id, and a CLI
    command its own ``cli.<command>`` span.
    """

    def __init__(self, program):
        self.program = program
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def _operation(self, span_name=None):
        self.attempted += 1
        if self.tracer is None:
            yield
        else:
            with self.tracer.operation(f"op{self.attempted}", span_name):
                yield

    def cli(self, *argv) -> float:
        """Run one ``usable-info`` command; returns its wall seconds."""
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        with self._operation(f"cli.{argv[0]}"):
            code = self.program.cli.main(argv)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.collect_workers()
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"usable-info {' '.join(argv)} exited with {code}")
        return elapsed

    def call(self, fn):
        """Run one library call; returns ``(result, wall seconds)``."""
        start = time.perf_counter()
        try:
            with self._operation():
                result = fn()
        except Exception as exc:
            self.failed += 1
            raise CheckFailed(f"library call raised {exc!r}") from exc
        return result, time.perf_counter() - start


@dataclass
class Pass:
    """Timings of one pass (lists of seconds, or rates) and what it produced."""

    samples: dict
    outputs: dict
    wrong_edges_ratio: float
    extra: dict = field(default_factory=dict)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load_results(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# --------------------------------------------------------------------- #
# tree_csv: the file-based CLI session
# --------------------------------------------------------------------- #


class TreeCsv:
    """``simulate`` to CSV, ``tree --data``, then two ``estimate`` calls.

    CSV write and read and the per-pair least-squares fits dominate; the
    arborescence at m=20 is about 1% of a pass.
    """

    name = "tree_csv"
    has_reference = True
    SIZES = {"full": dict(m=20, d=10, n=5000), "tiny": dict(m=4, d=2, n=200)}

    def __init__(self, size: str, workdir: Path, jobs: int):
        self.size = size
        self.params = self.SIZES[size]
        self.workdir = workdir

    def run(self, session: Session, seed: int) -> Pass:
        p, w = self.params, self.workdir
        data, truth = w / "data.csv", w / "truth.json"
        tree, plain, norm = w / "tree.json", w / "estimate.json", w / "estimate_norm.json"
        start = time.perf_counter()
        simulate_s = session.cli(
            "simulate", "--scenario", "sim1", "--m", p["m"], "--d", p["d"],
            "--n", p["n"], "--seed", seed, "--out", data, "--truth-out", truth)
        tree_s = session.cli("tree", "--data", data, "--truth", truth,
                             "--family", "linear_gaussian", "--out", tree)
        plain_s = session.cli("estimate", "--data", data, "--x-cols", "var0",
                              "--y-cols", "var1", "--family", "linear_gaussian",
                              "--out", plain)
        norm_s = session.cli(
            "estimate", "--data", data, "--x-cols", "var0_0", "--y-cols", "var1_0",
            "--family", "linear_gaussian", "--norm-radius", 1, "--clip-b", 50,
            "--pac", "--delta", 0.1, "--pac-b", 50, "--kx", 1, "--ky", 1,
            "--out", norm)
        pass_s = time.perf_counter() - start

        learned = _load_results(tree)
        expected = _load_results(truth)["truth"]
        found = learned["tree"]
        _check(found["root"] == expected["root"] and found["parents"] == expected["parents"],
               f"tree_csv: learned tree {found} differs from the simulated truth {expected}")
        estimates = [_load_results(plain)["point_estimate"],
                     _load_results(norm)["point_estimate"]]
        _check(all(math.isfinite(v) for v in estimates),
               f"tree_csv: estimate not finite: {estimates}")
        return Pass(
            samples={"pass_s": pass_s, "tree_s": tree_s, "simulate_s": simulate_s,
                     "estimate_s": statistics.median([plain_s, norm_s])},
            outputs={"linear_gaussian": found},
            wrong_edges_ratio=learned["wrong_edges_ratio"],
            extra={"estimate_nats": estimates[0], "estimate_norm_nats": estimates[1]})


# --------------------------------------------------------------------- #
# tree_wide: the library with many narrow variables
# --------------------------------------------------------------------- #


class TreeWide:
    """``simulate`` then, per family, ``edge_weights`` and ``max_arborescence``.

    No file I/O.  Edmonds, run once per root, is most of a pass; the rest is
    per-pair overhead over m(m-1) pairs of few samples.
    """

    name = "tree_wide"
    has_reference = True
    SIZES = {"full": dict(m=60, d=2, n=300), "tiny": dict(m=6, d=2, n=100)}

    def __init__(self, size: str, workdir: Path, jobs: int):
        self.size = size
        self.params = self.SIZES[size]

    def run(self, session: Session, seed: int) -> Pass:
        prog, p = session.program, self.params
        families = {
            "linear_gaussian": prog.families.FamilyConfig("linear_gaussian"),
            "polynomial_gaussian:3": prog.families.FamilyConfig("polynomial_gaussian", order=3),
        }
        config = prog.synth.SimulationConfig(scenario="sim4", m=p["m"], d=p["d"],
                                             n=p["n"], seed=seed)
        start = time.perf_counter()
        (dataset, truth), simulate_s = session.call(lambda: prog.synth.simulate(config))
        learned, tree_times, ratios = {}, [], []
        for label, family in families.items():
            weights, weights_s = session.call(
                lambda: prog.structure.edge_weights(dataset.variables, family))
            tree, tree_s = session.call(lambda: prog.structure.max_arborescence(weights))
            ratio, _ = session.call(lambda: prog.structure.wrong_edges_ratio(tree, truth.tree))
            learned[label] = (weights, tree)
            tree_times.append(weights_s + tree_s)
            ratios.append(ratio)
        pass_s = time.perf_counter() - start

        for label, (weights, tree) in learned.items():
            _check_against_networkx(label, weights.w, tree.total_weight)
        return Pass(
            samples={"pass_s": pass_s, "tree_s": statistics.fmean(tree_times),
                     "simulate_s": simulate_s},
            outputs={label: tree.to_dict() for label, (_, tree) in learned.items()},
            wrong_edges_ratio=statistics.fmean(ratios))


def _check_against_networkx(label: str, w: np.ndarray, total: float) -> None:
    """Compare an arborescence total with networkx's optimum.

    Only totals: the two solvers break ties differently.  Above 8 nodes this
    is the only oracle, since brute force stops there.
    """
    try:
        import networkx as nx
    except ImportError:
        return
    graph = nx.from_numpy_array(w, create_using=nx.DiGraph)
    graph.remove_edges_from(nx.selfloop_edges(graph))
    best = nx.maximum_spanning_arborescence(graph, attr="weight")
    nx_total = math.fsum(w[u, v] for u, v in best.edges())
    _check(math.isclose(total, nx_total, rel_tol=TOTAL_WEIGHT_RTOL, abs_tol=1e-12),
           f"tree_wide {label}: max_arborescence total {total!r} != networkx {nx_total!r}")


# --------------------------------------------------------------------- #
# sweep_fits: iterative fits through the CLI
# --------------------------------------------------------------------- #


class SweepFits:
    """``sweep`` over five families with a process pool, then ``baselines``.

    The CPC/NWJ critic fits and Weiszfeld do almost all the work; closed-form
    edge weights and the arborescence at m=7 are negligible.
    """

    name = "sweep_fits"
    has_reference = False
    FAMILIES = "linear_gaussian,polynomial_gaussian:2,laplace_mean,cpc,nwj"
    SIZES = {
        "full": dict(sizes="30,300", m=7, d=2, rhos="0.5,0.9,0.99,0.999", n=2048),
        "tiny": dict(sizes="30", m=4, d=2, rhos="0.5,0.9", n=256),
    }

    def __init__(self, size: str, workdir: Path, jobs: int):
        self.size = size
        self.params = self.SIZES[size]
        self.workdir = workdir
        self.jobs = jobs

    def run(self, session: Session, seed: int) -> Pass:
        p = self.params
        sweep_csv, baselines_csv = self.workdir / "sweep.csv", self.workdir / "baselines.csv"
        sweep_seeds = [seed, seed + 1]
        baseline_seeds = [seed, seed + 1, seed + 2]
        start = time.perf_counter()
        cpu_before = _children_cpu_s()
        sweep_s = session.cli(
            "sweep", "--scenario", "sim2", "--sizes", p["sizes"],
            "--seeds", ",".join(map(str, sweep_seeds)), "--families", self.FAMILIES,
            "--m", p["m"], "--d", p["d"], "--jobs", self.jobs, "--out", sweep_csv)
        worker_cpu_s = _children_cpu_s() - cpu_before
        baselines_s = session.cli(
            "baselines", "--rhos", p["rhos"], "--seeds", ",".join(map(str, baseline_seeds)),
            "--n", p["n"], "--out", baselines_csv)
        pass_s = time.perf_counter() - start

        families = self.FAMILIES.split(",")
        cells = len(families) * len(p["sizes"].split(",")) * len(sweep_seeds)
        sweep = _read_rows(sweep_csv)
        _check(len(sweep) == cells, f"sweep_fits: {len(sweep)} sweep rows, expected {cells}")
        for row in sweep:
            values = (float(row["wrong_edges_ratio"]), float(row["total_weight"]))
            _check(all(math.isfinite(v) for v in values), f"sweep_fits: non-finite row {row}")
            if row["family"] == "cpc":
                # Each edge weight is a mean of per-batch CPC values <= log(batch).
                _check(values[1] <= (p["m"] - 1) * math.log(CPC_BATCH),
                       f"sweep_fits: CPC tree weight above (m-1) log(batch): {row}")
        rows = _read_rows(baselines_csv)
        expected = len(p["rhos"].split(",")) * len(baseline_seeds) * 3
        _check(len(rows) == expected,
               f"sweep_fits: {len(rows)} baselines rows, expected {expected}")
        for row in rows:
            value = float(row["value"])
            _check(math.isfinite(value), f"sweep_fits: non-finite baselines row {row}")
            if row["estimator"] == "cpc":
                _check(value <= math.log(int(row["batch_size"])),
                       f"sweep_fits: CPC value above log(batch): {row}")
        # With one job the cells run in this process and no child CPU is counted.
        worker_util = worker_cpu_s / (self.jobs * sweep_s) if self.jobs > 1 else 0.0
        return Pass(
            samples={"pass_s": pass_s, "tree_s": sweep_s / cells,
                     "sweep_cells_per_s": cells / sweep_s, "baselines_s": baselines_s,
                     "worker_util": worker_util},
            outputs={"sweep": sweep, "baselines": rows},
            wrong_edges_ratio=statistics.fmean(float(r["wrong_edges_ratio"]) for r in sweep))


WORKLOADS = {cls.name: cls for cls in (TreeCsv, TreeWide, SweepFits)}


def check_reference(workload, trees: dict, reference: dict) -> None:
    """Compare the warm-up pass's trees with those recorded at REFERENCE_SEED."""
    key = f"{workload.name}/{workload.size}"
    _check(key in reference, f"no reference recorded for {key}")
    for label, want in reference[key].items():
        got = trees[label]
        _check(got["root"] == want["root"] and got["parents"] == want["parents"],
               f"{key} {label}: tree {got} differs from reference {want}")
        _check(math.isclose(got["total_weight"], want["total_weight"],
                            rel_tol=TOTAL_WEIGHT_RTOL),
               f"{key} {label}: total_weight {got['total_weight']!r} differs from "
               f"reference {want['total_weight']!r} beyond rtol {TOTAL_WEIGHT_RTOL}")
