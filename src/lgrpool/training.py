"""Alternating EM training loop with Adam and a decaying learning rate.

The expectation phase trains the propagation parameters on the
classification loss alone; the maximization phase trains the pooling
parameters on the total loss while the propagation parameters stay
frozen. Rounds alternate until the dataset-mean prediction-correction
error stops changing or the round cap is reached. Each parameter group
owns its optimizer state, so a phase can never touch the other group's
parameters or moments.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import GraphDataset, iterate_batches
from .errors import EmptySplit, NonFinite, ShapeMismatch
from .model import ParameterSet, init_parameters
from .propagation import propagate_graph

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 32
    num_pooling_layers: int = 14
    k: int = 10
    alpha: float = 0.3
    epochs: int = 100
    hidden: int = 200
    lr0: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    gamma: float = 0.2
    s_thre: float = 0.5
    em_rounds_max: int = 10
    em_tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "num_pooling_layers", "k", "epochs", "hidden", "em_rounds_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (0.0 < self.s_thre < 1.0):
            raise ValueError(f"s_thre must lie in (0, 1), got {self.s_thre}")
        if self.lr0 <= 0 or self.eps_adam <= 0 or self.em_tolerance <= 0:
            raise ValueError("lr0, eps_adam and em_tolerance must be positive")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def desk(cls, **overrides) -> "TrainingConfig":
        """Laptop-scale profile: shorter phases, fewer rounds."""
        base = dict(epochs=20, em_rounds_max=5)
        base.update(overrides)
        return cls(**base)

    def with_overrides(self, **overrides) -> "TrainingConfig":
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainingConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


def lr_schedule(epoch: int, lr0: float) -> float:
    """Decay by 0.95 every 10 epochs."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return lr0 * 0.95 ** (epoch // 10)


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def init_adam(named_params) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(p.data) for name, p in named_params},
        v={name: np.zeros_like(p.data) for name, p in named_params},
    )


def adam_step(named_params, state: AdamState, lr: float, config: TrainingConfig) -> None:
    """Bias-corrected Adam update in place, reading accumulated gradients."""
    state.step += 1
    t = state.step
    for name, p in named_params:
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeMismatch("adam_step", m.shape, p.data.shape)
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + config.eps_adam)


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    em_round: int
    l_exp: float
    l_precor: float | None
    l_tot: float | None
    val_acc: float | None


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)
    em_errors: list = field(default_factory=list)
    test_acc: float | None = None
    wall_clock: float | None = None


def evaluate(params: ParameterSet, dataset: GraphDataset, config: TrainingConfig) -> float:
    """Fraction of graphs whose argmax prediction matches the label.

    Argmax ties resolve to the lowest class index.
    """
    if not dataset.graphs:
        raise EmptySplit(f"cannot evaluate on empty split {dataset.name!r}")
    correct = 0
    prop = params.prop.constants()
    for graph in dataset.graphs:
        out = propagate_graph(graph, prop, config.alpha, config.k)
        if int(np.argmax(out.y_pred.data.ravel())) == graph.label:
            correct += 1
    return correct / len(dataset.graphs)


def mean_precor_error(dataset: GraphDataset, params: ParameterSet, config: TrainingConfig) -> float:
    """Dataset-mean |prediction-correction loss|, forward only."""
    total = 0.0
    frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool.constants())
    for graph in dataset.graphs:
        losses = model_mod.graph_total_loss(
            graph,
            frozen,
            config.alpha,
            config.k,
            config.s_thre,
            config.num_pooling_layers,
            config.gamma,
        )
        total += abs(losses.l_precor.data[0, 0])
    return total / len(dataset.graphs)


def _record(metrics, record):
    if metrics is not None:
        metrics.epochs.append(record)


def expectation_phase(
    train: GraphDataset,
    params: ParameterSet,
    config: TrainingConfig,
    opt_state: AdamState | None = None,
    val: GraphDataset | None = None,
    em_round: int = 1,
    epoch_offset: int = 0,
    metrics: RunMetrics | None = None,
) -> AdamState:
    """Mini-batch Adam on the classification loss; propagation group only."""
    if opt_state is None:
        opt_state = init_adam(params.propagation_items())
    prop_items = params.propagation_items()
    for e in range(config.epochs):
        epoch = epoch_offset + e
        lr = lr_schedule(epoch, config.lr0)
        loss_sum = 0.0
        for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
            params.zero_grad()
            for graph in batch:
                try:
                    l_exp, _ = model_mod.graph_expectation_loss(
                        graph, params, config.alpha, config.k
                    )
                    loss_sum += l_exp.data[0, 0]
                    ad.backward(ad.scale(l_exp, 1.0 / len(batch)))
                except NonFinite as exc:
                    raise NonFinite(
                        f"expectation phase, round {em_round}, epoch {epoch}: {exc}"
                    ) from exc
            adam_step(prop_items, opt_state, lr, config)
        _record(
            metrics,
            EpochRecord(
                epoch=epoch,
                phase="E",
                em_round=em_round,
                l_exp=loss_sum / len(train.graphs),
                l_precor=None,
                l_tot=None,
                val_acc=evaluate(params, val, config) if val is not None else None,
            ),
        )
    return opt_state


def maximization_phase(
    train: GraphDataset,
    params: ParameterSet,
    config: TrainingConfig,
    opt_state: AdamState | None = None,
    val: GraphDataset | None = None,
    em_round: int = 1,
    epoch_offset: int = 0,
    metrics: RunMetrics | None = None,
):
    """Mini-batch Adam on the total loss; pooling group only.

    The classification term carries no pooling gradient, so the update
    signal is gamma times the regularizer. Propagation parameters enter as
    constants, so backward walks only the pooling tape and validation
    accuracy, which reads only them, is measured once. Returns the optimizer
    state and the train-set mean |prediction-correction loss| after the last epoch.
    """
    if opt_state is None:
        opt_state = init_adam(params.pooling_items())
    pool_items = params.pooling_items()
    frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool)
    val_acc = evaluate(params, val, config) if val is not None else None
    for e in range(config.epochs):
        epoch = epoch_offset + e
        lr = lr_schedule(epoch, config.lr0)
        sums = {"l_exp": 0.0, "l_precor": 0.0, "l_tot": 0.0}
        for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
            params.zero_grad()
            for graph in batch:
                try:
                    losses = model_mod.graph_total_loss(
                        graph,
                        frozen,
                        config.alpha,
                        config.k,
                        config.s_thre,
                        config.num_pooling_layers,
                        config.gamma,
                    )
                    sums["l_exp"] += losses.l_exp.data[0, 0]
                    sums["l_precor"] += losses.l_precor.data[0, 0]
                    sums["l_tot"] += losses.l_tot.data[0, 0]
                    ad.backward(ad.scale(losses.l_tot, 1.0 / len(batch)))
                except NonFinite as exc:
                    raise NonFinite(
                        f"maximization phase, round {em_round}, epoch {epoch}: {exc}"
                    ) from exc
            adam_step(pool_items, opt_state, lr, config)
        n = len(train.graphs)
        _record(
            metrics,
            EpochRecord(
                epoch=epoch,
                phase="M",
                em_round=em_round,
                l_exp=sums["l_exp"] / n,
                l_precor=sums["l_precor"] / n,
                l_tot=sums["l_tot"] / n,
                val_acc=val_acc,
            ),
        )
    return opt_state, mean_precor_error(train, params, config)


def em_train(
    train: GraphDataset,
    val: GraphDataset,
    test: GraphDataset,
    config: TrainingConfig,
):
    """Alternate phases until the pre-correction error settles.

    Stops when |err_r - err_{r-1}| / max(1, err_{r-1}) < em_tolerance,
    where err_0 is the untrained baseline, or at em_rounds_max. Keeps
    the parameters with the best post-round validation accuracy and
    reports test accuracy for those.
    """
    t0 = time.perf_counter()
    if not train.graphs or not val.graphs or not test.graphs:
        raise EmptySplit("em_train requires non-empty train/val/test splits")
    params = init_parameters(
        train.feature_dim,
        config.hidden,
        train.num_classes,
        config.num_pooling_layers,
        config.seed,
    )
    prop_state = init_adam(params.propagation_items())
    pool_state = init_adam(params.pooling_items())
    metrics = RunMetrics()

    prev_err = mean_precor_error(train, params, config)
    best_val = -1.0
    best_snapshot = params.snapshot()

    for em_round in range(1, config.em_rounds_max + 1):
        offset = (em_round - 1) * 2 * config.epochs
        prop_state = expectation_phase(
            train,
            params,
            config,
            opt_state=prop_state,
            val=val,
            em_round=em_round,
            epoch_offset=offset,
            metrics=metrics,
        )
        pool_state, err = maximization_phase(
            train,
            params,
            config,
            opt_state=pool_state,
            val=val,
            em_round=em_round,
            epoch_offset=offset + config.epochs,
            metrics=metrics,
        )
        metrics.em_errors.append(err)
        val_acc = evaluate(params, val, config)
        if val_acc > best_val:
            best_val = val_acc
            best_snapshot = params.snapshot()
        if abs(err - prev_err) / max(1.0, prev_err) < config.em_tolerance:
            break
        prev_err = err

    params.load_snapshot(best_snapshot)
    metrics.test_acc = evaluate(params, test, config)
    metrics.wall_clock = time.perf_counter() - t0
    return params, metrics


def ablate_gamma(dataset, gammas, config: TrainingConfig, seeds, split_fn, out_path=None):
    """Full training run per (gamma, seed); one summary row per gamma.

    split_fn maps a seed to (train, val, test) splits of the dataset.
    Rows are (gamma, mean accuracy, std accuracy, per-seed accuracies).
    """
    if not gammas:
        raise ValueError("gamma list must be non-empty")
    rows = []
    for gamma in gammas:
        accs = []
        for seed in seeds:
            cfg = config.with_overrides(gamma=gamma, seed=seed)
            train, val, test = split_fn(dataset, seed)
            _, metrics = em_train(train, val, test, cfg)
            accs.append(metrics.test_acc)
        rows.append((gamma, float(np.mean(accs)), float(np.std(accs)), accs))
    if out_path is not None:
        write_gamma_csv(out_path, rows)
    return rows


# ----------------------------------------------------------------- artifacts


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def write_metrics_csv(path, metrics: RunMetrics) -> None:
    lines = ["epoch,phase,em_round,l_exp,l_precor,l_tot,val_acc"]
    for r in metrics.epochs:
        lines.append(
            f"{r.epoch},{r.phase},{r.em_round},{_fmt(r.l_exp)},"
            f"{_fmt(r.l_precor)},{_fmt(r.l_tot)},{_fmt(r.val_acc)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_gamma_csv(path, rows) -> None:
    lines = ["gamma,mean_acc,std_acc"]
    for gamma, mean, std, _ in rows:
        lines.append(f"{_fmt(gamma)},{_fmt(mean)},{_fmt(std)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _adam_state_to_dict(state: AdamState) -> dict:
    return {
        "step": state.step,
        "m": {name: arr.tolist() for name, arr in state.m.items()},
        "v": {name: arr.tolist() for name, arr in state.v.items()},
    }


def _adam_state_from_dict(payload: dict) -> AdamState:
    return AdamState(
        m={name: np.asarray(arr, dtype=np.float64) for name, arr in payload["m"].items()},
        v={name: np.asarray(arr, dtype=np.float64) for name, arr in payload["v"].items()},
        step=int(payload["step"]),
    )


def save_checkpoint(
    path,
    params: ParameterSet,
    config: TrainingConfig,
    optimizer_states: dict | None = None,
) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "parameters": {name: arr.tolist() for name, arr in params.snapshot().items()},
        "optimizer": {
            group: _adam_state_to_dict(state)
            for group, state in (optimizer_states or {}).items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Returns (config, parameter arrays by name, optimizer states by group)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    config = TrainingConfig.from_dict(payload["config"])
    arrays = {
        name: np.asarray(arr, dtype=np.float64)
        for name, arr in payload["parameters"].items()
    }
    states = {
        group: _adam_state_from_dict(st)
        for group, st in payload.get("optimizer", {}).items()
    }
    return config, arrays, states


def restore_parameters(dataset: GraphDataset, config: TrainingConfig, arrays: dict) -> ParameterSet:
    """Rebuild a ParameterSet shaped for the dataset and load arrays into it."""
    params = init_parameters(
        dataset.feature_dim,
        config.hidden,
        dataset.num_classes,
        config.num_pooling_layers,
        config.seed,
    )
    params.load_snapshot(arrays)
    return params
