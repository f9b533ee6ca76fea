"""Command-line driver: train, eval, gradcheck, ablate, inspect.

Outputs are plain UTF-8 JSON and CSV. A run manifest (command, config,
dataset, seeds, input content hash, output directory) is written before
any training starts, so a directory of artifacts is self-describing and
re-runs with identical inputs overwrite it with identical bytes.

Exit codes: 0 success, 1 argument/config/dataset problems, 2 a
non-finite loss aborted training, 3 gradient checks failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import pooling, propagation, training
from .data import SplitSpec, parse_tu_dataset, split_dataset
from .errors import LgrPoolError, NonFinite
from .model import init_parameters
from .training import TrainingConfig

GRADCHECK_TOLERANCE = 1e-4
DEFAULT_GAMMA_GRID = (0.10, 0.15, 0.20, 0.25, 0.30)


# -------------------------------------------------------------------- config


def parse_config_file(path: str) -> dict:
    """Flat key=value lines with # comments; values typed per config field."""
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
            if key not in field_types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, text, field_types[key])
    return values


def _coerce(key: str, text: str, type_name: str):
    try:
        if type_name == "int":
            return int(text)
        return float(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot parse {text!r} as {type_name}")


def load_config(path: str | None, overrides: dict) -> TrainingConfig:
    values = parse_config_file(path) if path else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return TrainingConfig.from_dict(values)


def parse_seeds(text: str):
    """Either an inclusive range "A..B" or a comma list "0,3,7"."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parse_gammas(text: str):
    gammas = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not gammas:
        raise ValueError(f"no gamma values in {text!r}")
    if not np.all(np.isfinite(gammas)):
        raise ValueError("gamma values must be finite")
    if any(g < 0 for g in gammas):
        raise ValueError("gamma values must be non-negative")
    return gammas


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


def write_manifest(out_dir, command, config, dataset_name, dataset_path, seeds):
    manifest = {
        "command": command,
        "config": config.to_dict(),
        "dataset": {"name": dataset_name, "path": os.path.abspath(dataset_path)},
        "seeds": list(seeds),
        "input_hash": hash_inputs(dataset_path, config),
        "out_dir": os.path.abspath(out_dir),
    }
    with training.atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(out_dir):
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def default_out_dir(command: str, dataset_name: str, config: TrainingConfig, seeds) -> str:
    tag = hashlib.sha256(
        json.dumps([command, dataset_name, config.to_dict(), list(seeds)], sort_keys=True).encode()
    ).hexdigest()[:8]
    return os.path.join("runs", f"{command}-{dataset_name}-{tag}")


# ------------------------------------------------------------------ training


def _split_for_seed(dataset, seed: int):
    return split_dataset(dataset, SplitSpec(seed=seed))


def _fit(dataset, config_dict: dict, **overrides):
    """One em_train run on the parsed dataset; its arguments pickle, so it
    can run in a separate process. Returns (config, params, metrics)."""
    config = TrainingConfig.from_dict(config_dict).with_overrides(**overrides)
    train, val, test = _split_for_seed(dataset, config.seed)
    params, metrics = training.em_train(train, val, test, config)
    return config, params, metrics


def _train_one_seed(dataset, config_dict: dict, seed: int, out_dir: str):
    config, params, metrics = _fit(dataset, config_dict, seed=seed)
    training.write_metrics_csv(os.path.join(out_dir, f"metrics_seed{seed}.csv"), metrics)
    training.save_checkpoint(
        os.path.join(out_dir, f"checkpoint_seed{seed}.json"), params, config
    )
    return seed, metrics.test_acc, metrics.wall_clock


def _ablate_one(dataset, config_dict: dict, gamma: float, seed: int):
    _, _, metrics = _fit(dataset, config_dict, gamma=gamma, seed=seed)
    return gamma, seed, metrics.test_acc


def _run_jobs(worker, jobs_args, num_jobs: int):
    if num_jobs <= 1:
        return [worker(*args) for args in jobs_args]
    with ProcessPoolExecutor(max_workers=num_jobs) as pool:
        futures = [pool.submit(worker, *args) for args in jobs_args]
        return [f.result() for f in futures]


def _summary(per_seed: dict) -> dict:
    accs = [per_seed[s] for s in sorted(per_seed)]
    return {
        "mean_acc": float(np.mean(accs)),
        "std_acc": float(np.std(accs)),
        "per_seed": [{"seed": s, "test_acc": per_seed[s]} for s in sorted(per_seed)],
    }


def cmd_train(args) -> int:
    config = load_config(args.config, {"gamma": args.gamma})
    seeds = parse_seeds(args.seeds)
    dataset, dataset_path = _load_dataset(args.dataset)
    out_dir = args.out or default_out_dir("train", dataset.name, config, seeds)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(out_dir, "train", config, dataset.name, dataset_path, seeds)
    results = _run_jobs(
        _train_one_seed,
        [(dataset, config.to_dict(), seed, out_dir) for seed in seeds],
        args.jobs,
    )
    per_seed = {seed: acc for seed, acc, _ in results}
    summary = _summary(per_seed)
    summary["wall_clock_s"] = float(sum(wc for _, _, wc in results))
    with training.atomic_write(os.path.join(out_dir, "summary.json")) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    """Recompute test accuracy from saved checkpoints; no training."""
    out_dir = args.out
    manifest = read_manifest(out_dir) if out_dir else None
    seeds = parse_seeds(args.seeds) if args.seeds else (manifest or {}).get("seeds")
    dataset_arg = args.dataset or (manifest or {}).get("dataset", {}).get("path")
    if not out_dir or not seeds or not dataset_arg:
        raise ValueError("eval needs --out with a manifest, or explicit --dataset and --seeds")
    dataset, _ = _load_dataset(dataset_arg)
    per_seed = {}
    for seed in seeds:
        path = os.path.join(out_dir, f"checkpoint_seed{seed}.json")
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing checkpoint: {path}")
        config, arrays = training.load_checkpoint(path)
        _, _, test = _split_for_seed(dataset, seed)
        params = training.restore_parameters(dataset, config, arrays)
        per_seed[seed] = training.evaluate(params, test, config)
    print(json.dumps(_summary(per_seed), sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config, {})
    seeds = parse_seeds(args.seeds)
    gammas = parse_gammas(args.gamma) if args.gamma else list(DEFAULT_GAMMA_GRID)
    dataset, dataset_path = _load_dataset(args.dataset)
    out_dir = args.out or default_out_dir("ablate", dataset.name, config, seeds)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(out_dir, "ablate", config, dataset.name, dataset_path, seeds)

    results = _run_jobs(
        _ablate_one,
        [(dataset, config.to_dict(), g, s) for g in gammas for s in seeds],
        args.jobs,
    )
    rows = []
    for gamma in gammas:
        accs = [acc for g, _, acc in results if g == gamma]
        rows.append((gamma, float(np.mean(accs)), float(np.std(accs)), accs))
    training.write_gamma_csv(os.path.join(out_dir, "gamma_ablation.csv"), rows)
    print(json.dumps({f"{g:.12g}": mean for g, mean, _, _ in rows}, sort_keys=True))
    return 0


def cmd_inspect(args) -> int:
    dataset, _ = _load_dataset(args.dataset)
    print(json.dumps(dataset.summary(), sort_keys=True))
    if args.trace:
        if args.graph is None or not (0 <= args.graph < len(dataset.graphs)):
            raise ValueError("--trace needs --graph N with N inside the dataset")
        config = load_config(args.config, {})
        graph = dataset.graphs[args.graph]
        params = init_parameters(
            dataset.feature_dim,
            config.hidden,
            dataset.num_classes,
            config.num_pooling_layers,
            seed=0,
        )
        out = propagation.propagate_graph(graph, params.prop, config.alpha, config.k)
        trace = pooling.hierarchical_pool(
            graph,
            ad.constant(out.z_pre.data),
            params.pool,
            config.s_thre,
            config.num_pooling_layers,
        )
        print(json.dumps(trace.summary(), sort_keys=True))
    return 0


# ----------------------------------------------------------------- gradcheck


def _sigmoid_wrong_derivative(a):
    """Sigmoid whose backward drops the (1 - out) factor; used only to
    prove the checker catches a broken derivative."""
    out = 1.0 / (1.0 + np.exp(-a.data))
    v = ad.Value(out)
    v._parents = [(a, lambda g, out=out: g * out)]
    v.requires_grad = a.requires_grad
    return v


def primitive_targets(inject_fault: bool = False):
    """One (name, builder, params) triple per differentiable primitive.

    Each builder reduces the primitive's output to a scalar via sum_all
    so the same finite-difference harness covers the whole set. Inputs
    are drawn once; ReLU inputs are kept away from the kink.
    """
    rng = np.random.default_rng(12345)

    def p(shape, away_from_zero=False):
        arr = rng.uniform(-2.0, 2.0, size=shape)
        if away_from_zero:
            arr = np.where(np.abs(arr) < 0.2, np.sign(arr) * 0.2 + arr, arr)
        return ad.parameter(arr)

    adj = data_mod.build_normalized_adjacency(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    targets = []

    def t(name, builder, params):
        targets.append((name, builder, params))

    a34, b45 = p((3, 4)), p((4, 5))
    t("matmul", lambda ps: ad.sum_all(ad.matmul(ps["a"], ps["b"])), {"a": a34, "b": b45})
    t("spmm", lambda ps: ad.sum_all(ad.spmm(adj, ps["b"])), {"b": p((4, 3))})
    t("add", lambda ps: ad.sum_all(ad.add(ps["a"], ps["b"])), {"a": p((3, 4)), "b": p((3, 4))})
    t("add_row_broadcast", lambda ps: ad.sum_all(ad.add(ps["a"], ps["b"])), {"a": p((3, 4)), "b": p((1, 4))})
    t("sub", lambda ps: ad.sum_all(ad.sub(ps["a"], ps["b"])), {"a": p((3, 4)), "b": p((3, 4))})
    t("scale", lambda ps: ad.sum_all(ad.scale(ps["a"], -1.7)), {"a": p((3, 4))})
    t("hadamard", lambda ps: ad.sum_all(ad.hadamard(ps["a"], ps["b"])), {"a": p((3, 4)), "b": p((3, 4))})
    t("scale_rows", lambda ps: ad.sum_all(ad.scale_rows(ps["a"], ps["s"])), {"a": p((3, 4)), "s": p((3, 1))})
    t("concat_cols", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.concat_cols(ps["a"], ps["b"]))), {"a": p((3, 2)), "b": p((3, 4))})
    sig = _sigmoid_wrong_derivative if inject_fault else ad.sigmoid
    t("sigmoid", lambda ps: ad.sum_all(ad.sum_sq_rows(sig(ps["a"]))), {"a": p((3, 4))})
    t("relu", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.relu(ps["a"]))), {"a": p((3, 4), away_from_zero=True)})
    t("softmax_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.softmax_rows(ps["a"]))), {"a": p((3, 4))})
    t("mean_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.mean_rows(ps["a"]))), {"a": p((3, 4))})
    t("sum_all", lambda ps: ad.sum_all(ad.hadamard(ps["a"], ps["a"])), {"a": p((3, 4))})
    t("sum_sq_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ps["a"])), {"a": p((3, 4))})
    t("gather_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.gather_rows(ps["a"], [2, 0, 2, 1]))), {"a": p((3, 4))})
    t("scatter_add_rows", lambda ps: ad.sum_all(ad.sum_sq_rows(ad.scatter_add_rows(ps["a"], [1, 0, 1, 2], 3))), {"a": p((4, 3))})
    t(
        "cross_entropy_rows",
        lambda ps: ad.cross_entropy_rows(ad.softmax_rows(ps["a"]), [1, 0, 2]),
        {"a": p((3, 4))},
    )
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


def full_loss_target(eps: float, num_classes: int = 3, hidden: int = 5):
    """Builder and parameters for the whole training loss on the fixed
    6-node graph, pooled to depth 2.

    The propagated representations are NOT detached here, so gradients
    of both loss terms flow into every parameter block. Initialization
    seeds are searched deterministically until every edge score clears
    the threshold by a wide margin and the pooled depth is exactly 2,
    which keeps the discrete structure constant under the perturbations
    the checker applies.
    """
    graph = _gradcheck_graph()
    s_thre = 0.5
    margin = max(1e-4, 10.0 * eps)

    def build_loss(params_set):
        out_z = propagation.mlp_forward(ad.constant(graph.features), params_set.prop)
        z_pre = propagation.ppr_propagate(graph.adj_norm, out_z, alpha=0.3, k=4)
        probs, y_pred = propagation.classify(z_pre, params_set.prop.wc, params_set.prop.bc)
        l_exp = propagation.expectation_loss(y_pred, graph.label)
        trace = pooling.hierarchical_pool(graph, z_pre, params_set.pool, s_thre, 2)
        coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
        l_precor = pooling.prediction_correction_loss(
            trace.z_cor, z_pre, trace.composed_map, coarse_edges
        )
        return pooling.total_loss(l_exp, l_precor, gamma=0.2), trace

    for seed in range(400):
        params_set = init_parameters(4, hidden, num_classes, 2, seed)
        _, trace = build_loss(params_set)
        if trace.effective_depth != 2:
            continue
        margins = [np.abs(lt.scores.data - s_thre).min() for lt in trace.layers]
        if min(margins) < margin:
            continue
        return (lambda ps: build_loss(ps)[0]), params_set
    raise RuntimeError("no admissible gradcheck fixture found")


def run_gradcheck(eps: float, inject_fault: bool = False, stream=None) -> int:
    stream = stream or sys.stdout
    failed = []
    for name, builder, params in primitive_targets(inject_fault=inject_fault):
        err = ad.grad_check(builder, params, eps=eps)
        status = "ok" if err <= GRADCHECK_TOLERANCE else "FAIL"
        print(f"primitive {name}: max_rel_err={err:.3e} {status}", file=stream)
        if err > GRADCHECK_TOLERANCE:
            failed.append(name)

    builder, params_set = full_loss_target(eps)
    for block_name, value in params_set.items():
        err = ad.grad_check(lambda _ps: builder(params_set), {block_name: value}, eps=eps)
        status = "ok" if err <= GRADCHECK_TOLERANCE else "FAIL"
        print(f"l_tot {block_name}: max_rel_err={err:.3e} {status}", file=stream)
        if err > GRADCHECK_TOLERANCE:
            failed.append(f"l_tot {block_name}")

    if failed:
        print("gradcheck failed: " + ", ".join(failed), file=stream)
        return 3
    print("gradcheck passed", file=stream)
    return 0


def cmd_gradcheck(args) -> int:
    if not (1e-7 <= args.eps <= 1e-3):
        print(f"--eps must lie in [1e-7, 1e-3], got {args.eps}", file=sys.stderr)
        return 1
    return run_gradcheck(args.eps, inject_fault=args.inject_fault)


# ---------------------------------------------------------------- entrypoint


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lgrpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, dataset_required=True):
        p.add_argument("--dataset", required=dataset_required, default=None,
                       help="dataset directory, or a name under $LGRPOOL_DATA")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")

    p_train = sub.add_parser("train")
    common(p_train)
    p_train.add_argument("--seeds", default="0", help='"A..B" inclusive or comma list')
    p_train.add_argument("--gamma", type=float, default=None, help="override the regularizer weight")
    p_train.add_argument("--jobs", type=int, default=1, help="concurrent seed jobs")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval")
    common(p_eval, dataset_required=False)
    p_eval.add_argument("--seeds", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_ablate = sub.add_parser("ablate")
    common(p_ablate)
    p_ablate.add_argument("--seeds", default="0..9")
    p_ablate.add_argument("--gamma", default=None, help="comma list of regularizer weights")
    p_ablate.add_argument("--jobs", type=int, default=1)
    p_ablate.set_defaults(fn=cmd_ablate)

    p_grad = sub.add_parser("gradcheck")
    p_grad.add_argument("--eps", type=float, default=1e-6)
    p_grad.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                        help="corrupt one derivative to exercise the failure path")
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_inspect = sub.add_parser("inspect")
    common(p_inspect)
    p_inspect.add_argument("--graph", type=int, default=None)
    p_inspect.add_argument("--trace", action="store_true")
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
    except (ValueError, FileNotFoundError, LgrPoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
