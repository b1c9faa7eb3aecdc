"""Command-line interface.

Subcommands::

    usable-info simulate  --scenario sim1 --n 1000 --seed 7 --out data.csv
    usable-info estimate  --data data.csv --x-cols var0 --y-cols var1 \
                          --family linear_gaussian --out est.json
    usable-info tree      --sim-config sim.json --family linear_gaussian \
                          --out tree.json
    usable-info sweep     --scenario sim1 --sizes 10,100,1000 --seeds 0,1 \
                          --families linear_gaussian,cpc --out sweep.csv
    usable-info baselines --rhos 0.5,0.9 --n 2048 --seeds 0,1 --out bench.csv
    usable-info auc       --scores scores.csv --truth truth.csv --out auc.json

Every subcommand accepts ``--config FILE``, a JSON object whose keys are
the flags' dest names (``x_cols``, ``exponential_mean_mode``, ...); a flag
given on the command line wins over the file.  A value means what the same
text would mean as a flag, except that the on/off keys (``directed``,
``clamp``, ``pac``, ``exponential_mean_mode``) take only JSON true or false,
and the list keys (``sizes``, ``seeds``, ``families``, ``rhos``, ``x_cols``,
``y_cols``) also take a JSON array, meaning its comma-joined items.
null leaves a setting unset, and an unknown key is a usage error.  The
default seed comes from the ``USABLE_INFO_SEED`` environment variable when
neither a flag nor a config supplies one.  A list flag's value may start
with a negative item, as in ``--rhos -0.5,0.5``.

Outputs embed their generating configuration: JSON results carry a full
run record (command, config, seed, duration, version); CSVs start with a
``# config: <json>`` comment.  Exit codes: 0 success, 2 usage error,
3 data error, 4 numerical failure (an estimator or fit did not converge).
A numerical failure writes no output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .baselines import (BatchSpec, baseline_edge_weights, fit_and_estimate_stack,
                        gaussian_oracle_critic, nwj_estimate)
from .data import read_csv_rows, read_dataset_csv, write_dataset_csv, write_rows_csv
from .errors import DataError, NumericalError
from .estimation import PacConfig, empirical_information
from .families import FamilyConfig, FitMode, FitWarning
from .structure import Arborescence, edge_weights, max_arborescence, wrong_edges_ratio
from .synth import SimulationConfig, simulate
from .timing import stage_timer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else EXIT_OK
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # A fit that did not converge stops the command before it writes.
            warnings.simplefilter("error", FitWarning)
            try:
                _fill_from_config(args, _command_flags(parser, args.command), args.config)
                return args.func(args)
            finally:  # on failure too, before the failure line
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FitWarning) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


# --------------------------------------------------------------------- #
# Shared plumbing
# --------------------------------------------------------------------- #


def _load_json_object(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON {what} ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return obj


def _command_flags(parser, command: str) -> dict:
    """Dest name -> argparse action of every flag ``command`` declares but ``--config``."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in commands.choices[command]._actions
            if a.dest not in ("help", "config")}


def _fill_from_config(args, flags: dict, path):
    """Set each flag in ``flags`` that ``args`` leaves unset from the config at
    ``path``, by the rules in the module docstring.  A JSON array given to a
    list flag stands for its comma-joined items; any other non-string value
    goes through the flag's type as its JSON text."""
    if path is None:
        return args
    for key, value in _load_json_object(path, "config").items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if value is None:
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"{path}: {key} must be true or false, not {value!r}")
        else:
            if isinstance(value, list) and isinstance(action.type, _ListOf):
                value = ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                value = (action.type or str)(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _fields_set(cls, args) -> dict:
    """Fields of dataclass ``cls`` that ``args`` sets; the rest keep their defaults."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _required(args, name: str):
    """The setting ``name``; unset, empty text and an empty list are missing."""
    value = getattr(args, name)
    if value in (None, "", []):
        raise ValueError(f"missing required setting: {name.replace('_', '-')}")
    return value


def _seed(text) -> int:
    """Type of a seed flag: a non-negative integer, as numpy's generators take."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative number (``-0.5,0.5``,
    ``-1,2``) as a value, not a flag, as newer Pythons' argparse does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


class _ListOf:
    """Type of a comma-separated flag; blank items are skipped."""

    def __init__(self, convert):
        self.convert = convert

    def __call__(self, text):
        return [self.convert(tok.strip()) for tok in text.split(",") if tok.strip()]

    def __repr__(self):  # argparse names the type by it in usage errors
        return f"comma-separated {self.convert.__name__}"


def _parse_parents(text):
    parents = json.loads(text)
    if not isinstance(parents, dict):
        raise ValueError("parents must be a JSON object")
    return {int(c): int(p) for c, p in parents.items()}


def _emit_json(path, command: str, config: dict, seed, t0: float, results: dict):
    record = {
        "command": command,
        "config": config,
        "seed": seed,
        "duration_s": time.perf_counter() - t0,
        "version": __version__,
        "results": results,
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _simulation_config(args) -> SimulationConfig:
    settings = _fields_set(SimulationConfig, args)
    if "seed" not in settings:
        env = os.environ.get("USABLE_INFO_SEED")
        if env is None:
            raise ValueError(
                "seed required: pass --seed, put \"seed\" in the config file, "
                "or set USABLE_INFO_SEED"
            )
        try:
            settings["seed"] = _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"USABLE_INFO_SEED: {exc}") from None
    _required(args, "scenario")
    _required(args, "n")
    return SimulationConfig(**settings)


def _family_config(args) -> FamilyConfig:
    kind = _required(args, "family")
    fit = _fields_set(FitMode, args)
    return FamilyConfig(kind=kind, fit=FitMode(**fit) if fit else None,
                        **_fields_set(FamilyConfig, args))


def _family_record(family: FamilyConfig, args) -> dict:
    """A run record's family settings; a fit setting left unset is null."""
    return {"family": family.kind, "order": family.order, "clip_b": family.clip_b,
            "norm_radius": family.norm_radius,
            **{f.name: getattr(args, f.name) for f in fields(FitMode)}}


@contextmanager
def _fit_warnings_fail(where: str):
    """Re-raise a ``FitWarning`` or ``NumericalError`` as a ``NumericalError``,
    and a ``ValueError`` as a ``ValueError``, naming ``where``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        try:
            yield
        except (FitWarning, NumericalError) as exc:
            raise NumericalError(f"{where}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def _parse_family_token(token: str):
    """'linear_gaussian' / 'polynomial_gaussian:3' / baseline 'cpc' or 'nwj'."""
    if token in ("cpc", "nwj"):
        return ("baseline", token)
    kind, _, order = token.partition(":")
    return ("family", FamilyConfig(kind, order=int(order) if order else None))


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    sim = _simulation_config(args)
    timings = {}
    with stage_timer(timings, "simulate_s"):
        dataset, truth = simulate(sim)
    effective = _sim_config_dict(sim)
    with stage_timer(timings, "write_s"):
        write_dataset_csv(dataset, args.out, config=effective)
    if args.truth_out:
        _emit_json(args.truth_out, "simulate", effective, sim.seed, t0,
                   {"truth": truth.tree.to_dict(), "scenario": sim.scenario,
                    "timings": timings})
    return EXIT_OK


def _sim_config_dict(sim: SimulationConfig) -> dict:
    out = {
        "scenario": sim.scenario,
        "n": sim.n,
        "seed": sim.seed,
        "m": sim.node_count(),
        "d": sim.d,
    }
    if sim.scenario == "gaussian_pair":
        out.update(rho=sim.rho, var_y=sim.var_y)
    if sim.scenario == "custom_tree":
        out.update(parents={str(k): v for k, v in sim.parents.items()},
                   noise_var=sim.noise_var)
    if sim.scenario in ("sim2", "sim3", "sim5", "sim6"):
        out["exponential_mean_mode"] = sim.exponential_mean_mode
    return out


# --------------------------------------------------------------------- #
# estimate
# --------------------------------------------------------------------- #


def _cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    data_path = _required(args, "data")
    x_tokens = _required(args, "x_cols")
    y_tokens = _required(args, "y_cols")
    timings = {}
    with stage_timer(timings, "read_s"):
        dataset = read_dataset_csv(data_path, {"x-cols": x_tokens, "y-cols": y_tokens})
    (xs, ys), (x_spec, y_spec) = dataset.variables, dataset.specs
    family = replace(_family_config(args), x_spec=x_spec, y_spec=y_spec)
    clamp = bool(args.clamp)

    pac = None
    if args.pac:
        pac = PacConfig(
            delta=_required(args, "delta"),
            b=_required(args, "pac_b"),
            rademacher_bound=args.rademacher,
            k_x=args.kx,
            k_y=args.ky,
        )
    with stage_timer(timings, "fit_s"):
        estimate = empirical_information(family, xs, ys, pac=pac, clamp=clamp)
    effective = {
        "data": data_path, "x_cols": x_tokens, "y_cols": y_tokens,
        **_family_record(family, args), "clamp": clamp,
        "pac": None if pac is None else asdict(pac),
    }
    _emit_json(args.out, "estimate", effective, None, t0,
               {**estimate.to_dict(), "timings": timings})
    return EXIT_OK


# --------------------------------------------------------------------- #
# tree
# --------------------------------------------------------------------- #


def _load_truth(path, m: int) -> Arborescence:
    """The tree in a truth file, a ``simulate --truth-out`` record or a bare
    ``{"root", "parents"}`` object, checked to have the data's ``m`` nodes."""
    payload = _load_json_object(path, "truth")
    node = payload.get("results", payload)
    if isinstance(node, dict):
        node = node.get("truth", node)
    if not isinstance(node, dict) or not {"root", "parents"} <= node.keys():
        raise DataError(f"{path}: truth needs a root and a parents list")
    try:
        truth = Arborescence.from_dict(node)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad truth tree ({exc})") from None
    if truth.m != m:
        raise DataError(f"{path}: truth tree has {truth.m} nodes "
                        f"but the data has {m} variables")
    return truth


def _cmd_tree(args) -> int:
    t0 = time.perf_counter()
    truth = None
    seed = None
    timings = {}
    if args.sim_config is not None:
        flags = _command_flags(_build_parser(), "simulate")
        # Tree's own --seed wins over the file's seed.
        sim_args = argparse.Namespace(**{**dict.fromkeys(flags), "seed": args.seed})
        sim = _simulation_config(_fill_from_config(sim_args, flags, args.sim_config))
        seed = sim.seed
        with stage_timer(timings, "simulate_s"):
            dataset, ground = simulate(sim)
        truth = ground.tree
        source = {"sim_config": _sim_config_dict(sim)}
    elif args.data is not None:
        if args.seed is not None:
            raise ValueError("seed only applies to --sim-config; a --data run "
                             "draws nothing at random")
        with stage_timer(timings, "read_s"):
            dataset = read_dataset_csv(args.data)
        source = {"data": args.data}
    else:
        raise ValueError("tree needs --data or --sim-config")

    if args.truth is not None:
        truth = _load_truth(args.truth, len(dataset.variables))

    family = _family_config(args)
    with stage_timer(timings, "edge_weights_s"):
        weights = edge_weights(dataset.variables, family)
    with stage_timer(timings, "arborescence_s"):
        tree = max_arborescence(weights)
    results = {"tree": tree.to_dict(), "timings": timings}
    if truth is not None:
        mode = "directed" if args.directed else "undirected"
        results["wrong_edges_ratio"] = wrong_edges_ratio(tree, truth, mode=mode)
        results["ratio_mode"] = mode
    effective = {**source, "truth": args.truth, **_family_record(family, args)}
    _emit_json(args.out, "tree", effective, seed, t0, results)
    return EXIT_OK


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #


def _sweep_task(task: tuple) -> tuple:
    """One sweep cell: its result row and the other warnings it raised.

    Warnings raised in a pool worker never reach main's recorder, so every
    cell records its own.  A ``FitWarning`` becomes an error that names the
    cell; the rest go back to the caller to be re-emitted.
    """
    scenario, family_token, n, seed, m, d = task
    cell = f"sweep cell scenario={scenario} family={family_token} n={n} seed={seed}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = SimulationConfig(scenario=scenario, n=n, seed=seed, m=m, d=d)
        dataset, truth = simulate(sim)
        role, payload = _parse_family_token(family_token)
        with _fit_warnings_fail(cell):
            if role == "family":
                weights = edge_weights(dataset.variables, payload)
            else:
                weights = baseline_edge_weights(dataset.variables, payload, seed)
        tree = max_arborescence(weights)
        ratio = wrong_edges_ratio(tree, truth.tree, mode="undirected")
    row = (scenario, family_token, n, seed, ratio, tree.total_weight)
    return row, [w.message for w in caught]


DEFAULT_SWEEP_SIZES = [10, 30, 100, 300, 1000, 5000]


def _cmd_sweep(args) -> int:
    scenario = _required(args, "scenario")
    sizes = DEFAULT_SWEEP_SIZES if args.sizes is None else args.sizes
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes: expected positive sample sizes, got {sizes}")
    seeds = _required(args, "seeds")
    families = _required(args, "families")
    m = args.m
    d = SimulationConfig.d if args.d is None else args.d
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise ValueError(f"--jobs: expected a positive number of worker processes, got {jobs}")
    for token in families:
        try:
            _parse_family_token(token)  # validate early
        except ValueError as exc:
            raise ValueError(f"--families: {token!r}: {exc}") from None

    tasks = [(scenario, fam, n, seed, m, d)
             for fam in families for n in sizes for seed in seeds]
    if jobs > 1:
        # Under fork the pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            cells = list(pool.map(_sweep_task, tasks))
    else:
        cells = [_sweep_task(t) for t in tasks]
    rows = []
    for row, cell_warnings in cells:
        rows.append(row)
        for message in cell_warnings:
            warnings.warn(message)
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    effective = {"scenario": scenario, "sizes": sizes, "seeds": seeds,
                 "families": families, "m": m, "d": d}
    write_rows_csv(args.out, effective,
                   ["scenario", "family", "n", "seed", "wrong_edges_ratio",
                    "total_weight"],
                   rows)
    return EXIT_OK


# --------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------- #


def _cmd_baselines(args) -> int:
    rhos = _required(args, "rhos")
    seeds = _required(args, "seeds")
    n = 2048 if args.n is None else args.n
    spec = BatchSpec(**_fields_set(BatchSpec, args))
    for rho in rhos:
        if not -1.0 < rho < 1.0:
            raise ValueError(f"--rhos: {rho} is not in (-1, 1)")
    half = n // 2
    if half < spec.batch_size:
        raise ValueError(f"--n: {n} leaves {half} fit pairs, fewer than "
                         f"--batch-size {spec.batch_size}")

    # Every (rho, seed) row is one problem of a stacked fit per objective.
    grid = [(rho, seed) for rho in rhos for seed in seeds]
    xs, ys, perms = [], [], []
    for rho, seed in grid:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        xs.append(x)
        ys.append(rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n))
        perms.append(rng.permutation(n - half))
    xs, ys, perms = np.stack(xs)[..., None], np.stack(ys)[..., None], np.stack(perms)
    pairs = (xs[:, :half], ys[:, :half], xs[:, half:], ys[:, half:])
    row_seeds = [seed for _, seed in grid]
    fits = {"cpc": fit_and_estimate_stack("cpc", *pairs, row_seeds, spec),
            "nwj": fit_and_estimate_stack("nwj", *pairs, row_seeds, spec, perms=perms)}

    rows = []
    for k, (rho, seed) in enumerate(grid):
        values = {}
        for estimator, (stack_values, failures) in fits.items():
            if failures[k] is not None:
                raise NumericalError(f"baselines rho={rho} seed={seed} "
                                     f"estimator={estimator}: {failures[k]}")
            values[estimator] = float(stack_values[k])
        eval_x, eval_y = xs[k, half:, 0], ys[k, half:, 0]
        values["nwj_oracle"] = nwj_estimate(gaussian_oracle_critic(rho), eval_x, eval_y,
                                            eval_x, eval_y[perms[k]])
        true_info = -0.5 * math.log(1.0 - rho * rho)
        rows += [(rho, seed, n, spec.batch_size, estimator, value, true_info)
                 for estimator, value in values.items()]
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    effective = {"rhos": rhos, "seeds": seeds, "n": n, "batch_size": spec.batch_size}
    write_rows_csv(args.out, effective,
                   ["rho", "seed", "n", "batch_size", "estimator", "value",
                    "true_information"],
                   rows)
    return EXIT_OK


# --------------------------------------------------------------------- #
# auc
# --------------------------------------------------------------------- #


def _read_pair_csv(path, value_column: str) -> dict[tuple[int, int], float]:
    rows = read_csv_rows(path)
    if len(rows) < 2:
        raise DataError(f"{path}: no pair rows")
    (line_no, header), rows = rows[0], rows[1:]
    header = [c.strip() for c in header]
    for col in ("i", "j", value_column):
        if col not in header:
            raise DataError(f"{path}:{line_no}: missing column {col!r}")
    pos = {name: k for k, name in enumerate(header)}
    out = {}
    for line_no, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} cells, "
                            f"got {len(cells)}")
        try:
            i = int(cells[pos["i"]])
            j = int(cells[pos["j"]])
            val = float(cells[pos[value_column]])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        if math.isnan(val):
            raise DataError(f"{path}:{line_no}: {value_column} is nan")
        if i == j:
            raise DataError(f"{path}:{line_no}: self-pair ({i},{j})")
        if (i, j) in out:
            raise DataError(f"{path}:{line_no}: duplicate pair ({i},{j})")
        out[(i, j)] = val
    return out


def ranked_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC from the rank statistic, ties averaged."""
    scores = np.asarray(scores, dtype=float)
    if np.any(np.isnan(scores)):
        raise DataError("scores must not contain nan")
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("truth labels must contain both classes")
    # Tied values share the mean of the ranks they span, which end at ends.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def _cmd_auc(args) -> int:
    t0 = time.perf_counter()
    scores = _read_pair_csv(args.scores, "score")
    truth = _read_pair_csv(args.truth, "edge")
    nodes = {i for i, _ in truth} | {j for _, j in truth}
    expected = {(i, j) for i in nodes for j in nodes if i != j}
    if set(truth) != expected:
        raise DataError("truth must label every ordered pair of its nodes")
    missing = expected - set(scores)
    if missing:
        raise DataError(f"scores missing {len(missing)} ordered pairs "
                        f"(e.g. {sorted(missing)[0]})")
    labels = []
    vals = []
    for pair in sorted(expected):
        lab = truth[pair]
        if lab not in (0.0, 1.0):
            raise DataError(f"truth for pair {pair} must be 0 or 1")
        labels.append(int(lab))
        vals.append(scores[pair])
    auc = ranked_auc(np.asarray(vals), np.asarray(labels))
    _emit_json(args.out, "auc",
               {"scores": str(args.scores), "truth": str(args.truth)},
               None, t0, {"auc": auc, "pairs": len(vals),
                          "positives": int(sum(labels))})
    return EXIT_OK


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="usable-info",
        description="Predictive information estimation and tree structure "
                    "learning.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--scenario")
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--rho", type=float)
    p.add_argument("--var-y", type=float, dest="var_y")
    p.add_argument("--noise-var", type=float, dest="noise_var")
    p.add_argument("--parents", type=_parse_parents,
                   help="JSON child->parent map for custom_tree")
    p.add_argument("--exp-mean-mode", action="store_true", default=None,
                   dest="exponential_mean_mode")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--truth-out", help="ground-truth JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate information between columns")
    common(p)
    p.add_argument("--data")
    p.add_argument("--x-cols", type=_ListOf(str), dest="x_cols")
    p.add_argument("--y-cols", type=_ListOf(str), dest="y_cols")
    _family_flags(p)
    p.add_argument("--clamp", action="store_true", default=None)
    p.add_argument("--pac", action="store_true", default=None)
    p.add_argument("--delta", type=float)
    p.add_argument("--pac-b", type=float, dest="pac_b")
    p.add_argument("--kx", type=float)
    p.add_argument("--ky", type=float)
    p.add_argument("--rademacher", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("tree", help="learn a maximum-weight directed tree")
    common(p)
    p.add_argument("--data")
    p.add_argument("--sim-config", dest="sim_config")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--truth", help="ground-truth JSON for scoring")
    p.add_argument("--directed", action="store_true", default=None)
    _family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("sweep", help="sample-size sweep over seeds and families")
    common(p)
    p.add_argument("--scenario")
    p.add_argument("--sizes", type=_ListOf(int))
    p.add_argument("--seeds", type=_ListOf(_seed))
    p.add_argument("--families", type=_ListOf(str))
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baselines", help="benchmark CPC/NWJ on Gaussian pairs")
    common(p)
    p.add_argument("--rhos", type=_ListOf(float))
    p.add_argument("--seeds", type=_ListOf(_seed))
    p.add_argument("--n", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help="CPC batch size, of its fit's batches and of its estimate's; "
                        "NWJ ignores it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("auc", help="rank AUC of edge scores against truth")
    common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_auc)

    return parser


def _family_flags(p) -> None:
    p.add_argument("--family")
    p.add_argument("--order", type=int)
    p.add_argument("--clip-b", type=float, dest="clip_b")
    p.add_argument("--norm-radius", type=float, dest="norm_radius")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tolerance", type=float)


if __name__ == "__main__":
    sys.exit(main())
