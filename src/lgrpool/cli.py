"""Command-line driver: train, eval, gradcheck, ablate, inspect; with
`--graph N`, inspect traces graph N's pooling under untrained seed-0 parameters.

A `--config` file sets every TrainingConfig field but ``seed``, which
`--seeds` sets per run; `ablate --gamma` sets each job's gamma.

Outputs are plain UTF-8 JSON and CSV. A run manifest (command, config,
dataset, seeds, ablate's gamma grid, input content hash, output directory)
is written before any training starts, so a directory of artifacts is
self-describing and re-runs with identical inputs overwrite it with
identical bytes.

Exit codes: 0 success, 1 argument/config/dataset/path problems, 2 a non-finite
loss aborted training, 3 gradient checks failed, 4 a worker process died.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import training
from .data import SplitSpec, parse_tu_dataset, split_dataset
from .errors import LgrPoolError, NonFinite
from .model import graph_precor_loss, graph_total_loss
from .training import TrainingConfig

GRADCHECK_TOLERANCE = 1e-4
# Every fixture edge score clears s_thre by this much, 100x grad_check's step.
GRADCHECK_SCORE_MARGIN = 1e-4
DEFAULT_GAMMA_GRID = (0.10, 0.15, 0.20, 0.25, 0.30)


# -------------------------------------------------------------------- config


def parse_config_file(path: str) -> dict:
    """Flat key=value lines with # comments; values typed per config field.
    ``seed`` is not a file key: ``--seeds`` sets it for every run."""
    field_types = {f.name: f.type for f in fields(TrainingConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key == "seed":
                raise ValueError(f"{path}:{lineno}: seed is not a config key; use --seeds")
            if key not in field_types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = int(text) if field_types[key] == "int" else float(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: config key {key!r}: "
                    f"cannot parse {text!r} as {field_types[key]}"
                )
    return values


def load_config(path: str | None) -> TrainingConfig:
    return TrainingConfig.from_dict(parse_config_file(path) if path else {})


def _distinct(values: list, what: str, text: str) -> list:
    """``values`` parsed from ``text`` if they are a non-empty list of distinct values."""
    if not values:
        raise ValueError(f"no {what} in {text!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate {what} in {text!r}")
    return values


def parse_seeds(text: str):
    """Either an inclusive range "A..B" or a comma list "0,3,7" of
    distinct non-negative seeds."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        seeds = list(range(int(lo_text), int(hi_text) + 1))
    else:
        seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    if min(seeds, default=0) < 0:
        raise ValueError(f"seeds must be non-negative, got {text!r}")
    return _distinct(seeds, "seeds", text)


def parse_gammas(text: str):
    """Comma list of distinct gamma values; TrainingConfig checks each one."""
    return _distinct([float(tok) for tok in text.split(",") if tok.strip() != ""], "gamma values", text)


def resolve_dataset_dir(arg: str) -> str:
    """The argument itself, or a subdirectory of $LGRPOOL_DATA."""
    if os.path.isdir(arg):
        return arg
    root = os.environ.get("LGRPOOL_DATA")
    if root:
        candidate = os.path.join(root, arg)
        if os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError(f"dataset directory not found: {arg}")


def _load_dataset(arg: str):
    path = resolve_dataset_dir(arg)
    name = os.path.basename(os.path.normpath(path))
    return parse_tu_dataset(path, name), path


# ------------------------------------------------------------------ manifest


def hash_inputs(dataset_dir: str, config: TrainingConfig) -> str:
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(dataset_dir)):
        full = os.path.join(dataset_dir, fname)
        if os.path.isfile(full):
            digest.update(fname.encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    digest.update(json.dumps(config.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def write_manifest(out_dir, command, config, dataset_name, dataset_path, seeds, gammas=None):
    manifest = {
        "command": command,
        "config": config.to_dict(),
        "dataset": {"name": dataset_name, "path": os.path.abspath(dataset_path)},
        "seeds": list(seeds),
        "input_hash": hash_inputs(dataset_path, config),
        "out_dir": os.path.abspath(out_dir),
    }
    if gammas is not None:
        manifest["gammas"] = list(gammas)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_json(path, obj) -> None:
    """The JSON artifact format: written atomically, indented, keys sorted, newline-terminated."""
    with training.atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(out_dir):
    """The run's manifest as a dict; empty when the directory has none."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return {}
    manifest = training.read_json_object(path, "manifest")
    dataset = manifest.get("dataset", {"path": ""})
    if not (isinstance(dataset, dict) and isinstance(dataset.get("path"), str)):
        raise ValueError(f"manifest dataset is not an object with a string path: {path}")
    seeds = manifest.get("seeds", [])
    if not (isinstance(seeds, list) and all(type(seed) is int for seed in seeds)):
        raise ValueError(f"manifest seeds are not a list of integers: {path}")
    if min(seeds, default=0) < 0 or len(set(seeds)) != len(seeds):
        raise ValueError(f"manifest seeds must be non-negative and distinct: {path}")
    return manifest


def default_out_dir(command: str, dataset_name: str, config: TrainingConfig, seeds, gammas=None) -> str:
    """runs/<command>-<dataset>-<tag>, the tag hashing the command, the
    dataset name, the config, the seeds and, for ablate, the gamma grid."""
    key = [command, dataset_name, config.to_dict(), list(seeds)]
    if gammas is not None:
        key.append(list(gammas))
    tag = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:8]
    return os.path.join("runs", f"{command}-{dataset_name}-{tag}")


def _open_run(command: str, args, config: TrainingConfig, seeds, gammas=None):
    """Parse the dataset, make ``--out`` or the default and write its manifest."""
    dataset, dataset_path = _load_dataset(args.dataset)
    out_dir = args.out or default_out_dir(command, dataset.name, config, seeds, gammas)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(out_dir, command, config, dataset.name, dataset_path, seeds, gammas)
    return dataset, out_dir


# ------------------------------------------------------------------ training


def _fit(dataset, config: TrainingConfig):
    """One em_train run on the parsed dataset, split by the config's seed;
    its arguments pickle, so it can run in a separate process. Returns
    (params, metrics)."""
    train, val, test = split_dataset(dataset, SplitSpec(seed=config.seed))
    return training.em_train(train, val, test, config)


def _train_one_seed(dataset, config: TrainingConfig, out_dir: str):
    params, metrics = _fit(dataset, config)
    training.write_metrics_csv(os.path.join(out_dir, f"metrics_seed{config.seed}.csv"), metrics)
    training.save_checkpoint(
        os.path.join(out_dir, f"checkpoint_seed{config.seed}.json"), params, config
    )
    return config.seed, metrics.test_acc, metrics.wall_clock


def _ablate_one(dataset, config: TrainingConfig):
    _, metrics = _fit(dataset, config)
    return config.gamma, config.seed, metrics.test_acc


def _run_jobs(worker, jobs_args, num_jobs: int):
    """worker(*args) for each args, in order, over at most num_jobs
    processes and never more processes than jobs. Once no job is left, the
    first failure in job order is raised, or BrokenExecutor if a worker died."""
    workers = min(num_jobs, len(jobs_args))
    if workers <= 1:
        results, failures = [], []
        for args in jobs_args:
            try:
                results.append(worker(*args))
            except Exception as exc:  # raised below, as a pool's futures would
                failures.append(exc)
        if failures:
            raise failures[0]
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *args) for args in jobs_args]
    finished = sum(not isinstance(f.exception(), BrokenExecutor) for f in futures)
    if finished < len(futures):
        raise BrokenExecutor(f"a worker process died; {finished} of {len(futures)} jobs finished")
    return [f.result() for f in futures]


def _summary(per_seed: dict) -> dict:
    accs = [per_seed[s] for s in sorted(per_seed)]
    return {
        "mean_acc": float(np.mean(accs)),
        "std_acc": float(np.std(accs)),
        "per_seed": [{"seed": s, "test_acc": per_seed[s]} for s in sorted(per_seed)],
    }


def cmd_train(args) -> int:
    config = load_config(args.config)
    seeds = parse_seeds(args.seeds)
    dataset, out_dir = _open_run("train", args, config, seeds)
    results = _run_jobs(
        _train_one_seed,
        [(dataset, config.with_overrides(seed=seed), out_dir) for seed in seeds],
        args.jobs,
    )
    per_seed = {seed: acc for seed, acc, _ in results}
    summary = _summary(per_seed)
    summary["wall_clock_s"] = float(sum(wc for _, _, wc in results))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    """Recompute test accuracy from saved checkpoints; no training."""
    manifest = read_manifest(args.out)
    seeds = parse_seeds(args.seeds) if args.seeds else manifest.get("seeds")
    dataset_arg = args.dataset or manifest.get("dataset", {}).get("path")
    if not seeds or not dataset_arg:
        raise ValueError("eval needs a manifest in --out, or explicit --dataset and --seeds")
    dataset, _ = _load_dataset(dataset_arg)
    per_seed = {}
    with training.labelled("test evaluation"):
        for seed in seeds:
            path = os.path.join(args.out, f"checkpoint_seed{seed}.json")
            if not os.path.isfile(path):
                raise FileNotFoundError(f"missing checkpoint: {path}")
            config, arrays = training.load_checkpoint(path)
            _, _, test = split_dataset(dataset, SplitSpec(seed=seed))
            params = training.restore_parameters(dataset, config, arrays)
            per_seed[seed] = training.evaluate(params, test, config)
    print(json.dumps(_summary(per_seed), sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    seeds = parse_seeds(args.seeds)
    gammas = parse_gammas(args.gamma) if args.gamma else list(DEFAULT_GAMMA_GRID)
    # Building the job configs checks every gamma before the dataset is read.
    job_configs = [config.with_overrides(gamma=g, seed=s) for g in gammas for s in seeds]
    dataset, out_dir = _open_run("ablate", args, config, seeds, gammas)
    results = _run_jobs(_ablate_one, [(dataset, job) for job in job_configs], args.jobs)
    rows = []
    for gamma in gammas:
        accs = [acc for g, _, acc in results if g == gamma]
        rows.append((gamma, float(np.mean(accs)), float(np.std(accs))))
    training.write_csv(os.path.join(out_dir, "gamma_ablation.csv"), ["gamma", "mean_acc", "std_acc"], rows)
    print(json.dumps({f"{g:.12g}": mean for g, mean, _ in rows}, sort_keys=True))
    return 0


def cmd_inspect(args) -> int:
    dataset, _ = _load_dataset(args.dataset)
    print(json.dumps(dataset.summary(), sort_keys=True))
    if args.graph is not None:
        if not 0 <= args.graph < len(dataset):
            raise ValueError(f"--graph {args.graph} is outside the dataset's {len(dataset)} graphs")
        config = load_config(args.config)
        params = training.initial_parameters(dataset, config).constants()
        with training.labelled("inspect trace"):
            _, trace = graph_precor_loss(dataset.graphs[args.graph], params, config)
        print(json.dumps(trace.summary(), sort_keys=True))
    return 0


# ----------------------------------------------------------------- gradcheck


def _sum_sq(op):
    """Builder of sum(op(a)**2): op's upstream gradient is not a constant."""
    return lambda ps: ad.sum_all(ad.sum_sq_rows(op(ps["a"])))


_RING4 = data_mod.build_normalized_adjacency(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
_A34 = {"a": (3, 4)}

# (name, builder, input shapes), one row per differentiable primitive.
PRIMITIVE_TARGETS = (
    ("matmul", lambda ps: ad.sum_all(ad.matmul(ps["a"], ps["b"])), {"a": (3, 4), "b": (4, 5)}),
    ("ppr", _sum_sq(lambda h: ad.ppr(_RING4, h, 0.3, 4)), {"a": (4, 3)}),
    ("add", lambda ps: ad.sum_all(ad.add(ps["a"], ps["b"])), {"a": (3, 4), "b": (3, 4)}),
    ("add_row_broadcast", lambda ps: ad.sum_all(ad.add(ps["a"], ps["b"])), {"a": (3, 4), "b": (1, 4)}),
    ("sub", lambda ps: ad.sum_all(ad.sub(ps["a"], ps["b"])), {"a": (3, 4), "b": (3, 4)}),
    ("scale", lambda ps: ad.sum_all(ad.scale(ps["a"], -1.7)), _A34),
    ("scale_rows", lambda ps: ad.sum_all(ad.scale_rows(ps["a"], ps["s"])), {"a": (3, 4), "s": (3, 1)}),
    ("sigmoid", _sum_sq(ad.sigmoid), _A34),
    ("relu", _sum_sq(ad.relu), _A34),
    ("softmax_rows", _sum_sq(ad.softmax_rows), _A34),
    ("mean_rows", _sum_sq(ad.mean_rows), _A34),
    # The inner sum_all is under test: its upstream gradient is 2 * sum(a), not a constant 1.
    ("sum_all", _sum_sq(ad.sum_all), _A34),
    ("sum_sq_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ps["a"])), _A34),
    ("gather_rows", _sum_sq(lambda a: ad.gather_rows(a, [2, 0, 2, 1])), _A34),
    ("scatter_add_rows", _sum_sq(lambda a: ad.scatter_add_rows(a, [1, 0, 1, 2], 3)), {"a": (4, 3)}),
    ("cross_entropy_rows", lambda ps: ad.cross_entropy_rows(ad.softmax_rows(ps["a"]), [1, 0, 2]), _A34),
)


def primitive_targets():
    """One (name, builder, params) triple per row of PRIMITIVE_TARGETS.

    Each builder reduces the primitive's output to a scalar via sum_all
    so the same finite-difference harness covers the whole set. A
    target's inputs come from a generator seeded by its name alone and
    lie in [-2, -0.2) or [0.2, 2), away from ReLU's kink.
    """
    targets = []
    for name, builder, shapes in PRIMITIVE_TARGETS:
        rng = np.random.default_rng(list(name.encode()))
        draws = {key: rng.uniform(-1.8, 1.8, size=shape) for key, shape in shapes.items()}
        params = {key: ad.parameter(d + np.copysign(0.2, d)) for key, d in draws.items()}
        targets.append((name, builder, params))
    return targets


def _gradcheck_graph():
    """Fixed 6-node graph with two-hot features and a few cross edges."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    rng = np.random.default_rng(777)
    features = rng.uniform(-3.0, 3.0, size=(6, 4))
    return data_mod.Graph(
        num_nodes=6,
        edges=edges,
        features=features,
        label=1,
        adj_norm=data_mod.build_normalized_adjacency(6, edges),
    )


def full_loss_target():
    """Builder and parameters for model.graph_total_loss, the loss that
    training runs, on the fixed 6-node graph pooled to depth 2.

    Every parameter is live, so gradients of both loss terms flow into
    every parameter block. Initialization seeds are searched
    deterministically until every edge score clears the threshold by a
    wide margin and the pooled depth is exactly 2, which keeps the
    discrete structure constant under the perturbations the checker
    applies.
    """
    dataset = data_mod.GraphDataset([_gradcheck_graph()], num_classes=3, feature_dim=4, name="gradcheck")
    config = TrainingConfig(alpha=0.3, k=4, s_thre=0.5, num_pooling_layers=2, gamma=0.2, hidden=5)

    def build_loss(params_set):
        losses = graph_total_loss(dataset.graphs[0], params_set, config)
        return losses.l_tot, losses.trace

    for seed in range(400):
        params_set = training.initial_parameters(dataset, config.with_overrides(seed=seed))
        _, trace = build_loss(params_set)
        if trace.effective_depth != config.num_pooling_layers:
            continue
        margins = [np.abs(lt.scores.data - config.s_thre).min() for lt in trace.layers]
        if min(margins) < GRADCHECK_SCORE_MARGIN:
            continue
        return (lambda ps: build_loss(ps)[0]), params_set
    raise RuntimeError("no admissible gradcheck fixture found")


def run_gradcheck(stream=None) -> int:
    """One grad_check per primitive, then one over every block of the full
    loss, each at grad_check's default step."""
    stream = stream or sys.stdout
    failed = []

    def report(label, err):
        ok = err <= GRADCHECK_TOLERANCE
        print(f"{label}: max_rel_err={err:.3e} {'ok' if ok else 'FAIL'}", file=stream)
        if not ok:
            failed.append(label.removeprefix("primitive "))

    for name, builder, params in primitive_targets():
        report(f"primitive {name}", max(ad.grad_check(builder, params).values()))
    loss, params_set = full_loss_target()
    for block, err in ad.grad_check(loss, params_set).items():
        report(f"l_tot {block}", err)
    if failed:
        print("gradcheck failed: " + ", ".join(failed), file=stream)
        return 3
    print("gradcheck passed", file=stream)
    return 0


def cmd_gradcheck(args) -> int:
    return run_gradcheck()


# ---------------------------------------------------------------- entrypoint


def _job_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lgrpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    dataset_help = "dataset directory, or a name under $LGRPOOL_DATA"

    def common(p):
        p.add_argument("--dataset", required=True, help=dataset_help)
        p.add_argument("--config", default=None, help="key=value config file")

    p_train = sub.add_parser("train")
    common(p_train)
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.add_argument("--seeds", default="0", help='"A..B" inclusive or comma list')
    p_train.add_argument("--jobs", type=_job_count, default=1, help="concurrent seed jobs")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval")
    p_eval.add_argument("--dataset", default=None, help=dataset_help + "; default: the manifest's")
    p_eval.add_argument("--out", required=True, help="run directory holding the checkpoints")
    p_eval.add_argument("--seeds", default=None, help="default: the manifest's seeds")
    p_eval.set_defaults(fn=cmd_eval)

    p_ablate = sub.add_parser("ablate")
    common(p_ablate)
    p_ablate.add_argument("--out", default=None, help="output directory")
    p_ablate.add_argument("--seeds", default="0..9", help='"A..B" inclusive or comma list; default 0..9')
    p_ablate.add_argument("--gamma", default=None, help="comma list of regularizer weights")
    p_ablate.add_argument("--jobs", type=_job_count, default=1, help="concurrent (gamma, seed) jobs")
    p_ablate.set_defaults(fn=cmd_ablate)

    sub.add_parser("gradcheck").set_defaults(fn=cmd_gradcheck)

    p_inspect = sub.add_parser("inspect")
    common(p_inspect)
    p_inspect.add_argument("--graph", type=int, default=None, help="also print this graph's pooling trace")
    p_inspect.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except NonFinite as exc:
        print(f"aborted on non-finite loss: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, LgrPoolError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, BrokenExecutor) else 1


if __name__ == "__main__":
    sys.exit(main())
