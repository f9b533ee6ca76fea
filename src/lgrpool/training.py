"""Alternating EM training loop with Adam and a decaying learning rate.

The expectation phase trains the propagation parameters on the
classification loss alone; the maximization phase trains the pooling
parameters on the total loss while the propagation parameters stay
frozen. Rounds alternate until the dataset-mean prediction-correction
error stops changing or the round cap is reached. ``em_train`` creates
each group's optimizer state once per run, so Adam's moments carry across
rounds and a phase can never touch the other group's parameters or moments.
A parameter's moments are made at its first nonzero gradient: until then
Adam moves it by exactly zero, so a layer no gradient reaches costs no work.
"""
from __future__ import annotations

import base64
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import GraphDataset, iterate_batches
from .errors import EmptySplit, NonFinite
from .model import ParameterSet, init_parameters

CHECKPOINT_VERSION = 2


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
        for f in fields(self):
            value = getattr(self, f.name)
            number = int if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            # An infinite em_tolerance means "stop after the first round".
            allowed_inf = f.name == "em_tolerance" and value == np.inf
            if f.type == "float" and not (np.isfinite(value) or allowed_inf):
                raise ValueError(f"{f.name} must be finite, got {value}")
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


def initial_parameters(dataset: GraphDataset, config: TrainingConfig) -> ParameterSet:
    """Untrained parameters at the dataset's and the config's widths, drawn from ``config.seed``."""
    return init_parameters(
        dataset.feature_dim, config.hidden, dataset.num_classes, config.num_pooling_layers, config.seed
    )


def lr_schedule(epoch: int, lr0: float) -> float:
    """Decay by 0.95 every 10 epochs."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return lr0 * 0.95 ** (epoch // 10)


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(named_params, state: AdamState, lr: float, config: TrainingConfig) -> None:
    """Bias-corrected Adam update in place, reading accumulated gradients."""
    state.step += 1
    t = state.step
    for name, p in named_params:
        g = p.grad
        if name not in state.m:
            if not g.any():
                continue
            state.m[name], state.v[name] = np.zeros_like(g), np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
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
    l_precor: float | None = None
    l_tot: float | None = None
    val_acc: float | None = None


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)
    em_errors: list = field(default_factory=list)
    test_acc: float | None = None
    wall_clock: float | None = None


def _dataset_mean(dataset: GraphDataset, per_graph) -> float:
    """Mean of ``per_graph(graph)`` over the dataset, summed in graph order."""
    if not dataset.graphs:
        raise EmptySplit(f"cannot average over empty split {dataset.name!r}")
    total = 0.0
    for graph in dataset.graphs:
        total += per_graph(graph)
    return total / len(dataset.graphs)


def evaluate(params: ParameterSet, dataset: GraphDataset, config: TrainingConfig) -> float:
    """Fraction of graphs whose argmax prediction matches the label.

    Argmax ties resolve to the lowest class index.
    """
    prop = params.prop.constants()

    def correct(graph):
        y_pred = model_mod.predict(graph, prop, config)
        return float(int(np.argmax(y_pred.data.ravel())) == graph.label)

    return _dataset_mean(dataset, correct)


def mean_precor_error(dataset: GraphDataset, params: ParameterSet, config: TrainingConfig) -> float:
    """Dataset-mean |prediction-correction loss|, forward only; no
    classification is computed."""
    frozen = params.constants()
    return _dataset_mean(
        dataset,
        lambda graph: abs(model_mod.graph_precor_loss(graph, frozen, config)[0].data[0, 0]),
    )


_PHASE_NAMES = {"E": "expectation", "M": "maximization"}


@contextmanager
def labelled(what: str):
    """Run a numeric pass named ``what``, the one owner of how a non-finite
    value is reported: numpy's overflow and invalid-value warnings are off,
    as the op that makes the value raises NonFinite, and ``what`` prefixes it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFinite as exc:
        raise NonFinite(f"{what}: {exc}") from exc


def _train_phase(phase, train, params, group, opt_state, loss_of, val_acc, config,
                 em_round, metrics) -> None:
    """Mini-batch Adam over one parameter group: the loop both EM phases share.

    Epochs are numbered across phases and rounds: round r's E phase runs
    epochs 2(r-1)*epochs onwards and its M phase the next ``epochs``.
    ``loss_of(graph)`` returns the loss to step and the named losses to
    report, each averaged over the train set per epoch; ``val_acc()`` gives
    each epoch record's validation accuracy.
    """
    if not train.graphs:
        raise EmptySplit(f"{_PHASE_NAMES[phase]} phase: empty train split {train.name!r}")
    first = (2 * (em_round - 1) + "EM".index(phase)) * config.epochs
    for epoch in range(first, first + config.epochs):
        lr = lr_schedule(epoch, config.lr0)
        sums = {}
        # One label per epoch: divergence can first show in the record's val_acc().
        with labelled(f"{_PHASE_NAMES[phase]} phase, round {em_round}, epoch {epoch}"):
            for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
                params.zero_grad()
                for graph in batch:
                    loss, reported = loss_of(graph)
                    for name, value in reported.items():
                        sums[name] = sums.get(name, 0.0) + value.data[0, 0]
                    ad.backward(ad.scale(loss, 1.0 / len(batch)))
                adam_step(group, opt_state, lr, config)
            means = {name: total / len(train.graphs) for name, total in sums.items()}
            metrics.epochs.append(
                EpochRecord(epoch=epoch, phase=phase, em_round=em_round, val_acc=val_acc(), **means)
            )


def expectation_phase(
    train: GraphDataset,
    params: ParameterSet,
    config: TrainingConfig,
    opt_state: AdamState,
    val: GraphDataset,
    em_round: int,
    metrics: RunMetrics,
) -> None:
    """Mini-batch Adam on the classification loss; propagation group only."""

    def loss_of(graph):
        l_exp = model_mod.graph_expectation_loss(graph, params, config)
        return l_exp, {"l_exp": l_exp}

    _train_phase(
        "E", train, params, params.prop.items(), opt_state, loss_of,
        lambda: evaluate(params, val, config), config, em_round, metrics,
    )


def maximization_phase(
    train: GraphDataset,
    params: ParameterSet,
    config: TrainingConfig,
    opt_state: AdamState,
    val_acc: float,
    em_round: int,
    metrics: RunMetrics,
) -> float:
    """Mini-batch Adam on the total loss; pooling group only.

    The classification term carries no pooling gradient, so the update
    signal is gamma times the regularizer. Propagation parameters enter as
    constants, so backward walks only the pooling tape. Validation accuracy
    reads only them, so every M epoch records ``val_acc``, the accuracy the
    E phase measured last. Returns the train-set mean |prediction-correction
    loss| after the last epoch, the round's EM error.
    """
    frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool)

    def loss_of(graph):
        losses = model_mod.graph_total_loss(graph, frozen, config)
        reported = {"l_exp": losses.l_exp, "l_precor": losses.l_precor, "l_tot": losses.l_tot}
        return losses.l_tot, reported

    _train_phase(
        "M", train, params, params.pool.items(), opt_state, loss_of, lambda: val_acc,
        config, em_round, metrics,
    )
    with labelled(f"maximization phase, round {em_round}, closing regularizer pass"):
        return mean_precor_error(train, params, config)


def em_train(train: GraphDataset, val: GraphDataset, test: GraphDataset, config: TrainingConfig):
    """Alternate phases until the pre-correction error settles.

    Stops when |err_r - err_{r-1}| / max(1, err_{r-1}) < em_tolerance,
    where err_0 is the untrained baseline, or at em_rounds_max. Keeps
    the parameters with the best post-round validation accuracy and
    reports test accuracy for those.
    """
    t0 = time.perf_counter()
    if not train.graphs or not val.graphs or not test.graphs:
        raise EmptySplit("em_train requires non-empty train/val/test splits")
    params = initial_parameters(train, config)
    prop_state, pool_state = AdamState(), AdamState()
    metrics = RunMetrics()

    with labelled("opening regularizer pass"):
        prev_err = mean_precor_error(train, params, config)
    best_val = -1.0  # below every accuracy, so round 1 always sets best_snapshot

    for em_round in range(1, config.em_rounds_max + 1):
        # em_round goes by keyword: the benchmark files pooling counts under it.
        expectation_phase(
            train, params, config, opt_state=prop_state, val=val, em_round=em_round, metrics=metrics
        )
        # M leaves theta, all that evaluate reads, unchanged: E's last record is post-round.
        val_acc = metrics.epochs[-1].val_acc
        err = maximization_phase(
            train, params, config, opt_state=pool_state, val_acc=val_acc, em_round=em_round,
            metrics=metrics,
        )
        metrics.em_errors.append(err)
        if val_acc > best_val:
            best_val = val_acc
            best_snapshot = params.snapshot()
        if abs(err - prev_err) / max(1.0, prev_err) < config.em_tolerance:
            break
        prev_err = err

    params.load_snapshot(best_snapshot)
    with labelled("test evaluation"):
        metrics.test_acc = evaluate(params, test, config)
    metrics.wall_clock = time.perf_counter() - t0
    return params, metrics


# ----------------------------------------------------------------- artifacts


@contextmanager
def atomic_write(path):
    """Text handle on a temp file beside ``path`` that replaces it on success.

    On any exception the temp file is removed and ``path`` keeps its
    previous bytes, so a reader never sees a truncated artifact.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cell(value) -> str:
    return "" if value is None else (f"{value:.12g}" if isinstance(value, float) else str(value))


def write_csv(path, header, rows) -> None:
    """The CSV artifact format, written atomically: None is an empty cell, a float is .12g."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(path, metrics: RunMetrics) -> None:
    write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, metrics.epochs))


def save_checkpoint(path, params: ParameterSet, config: TrainingConfig) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "parameters": {
            name: {"shape": list(arr.shape), "f8le": base64.b64encode(arr.astype("<f8").tobytes()).decode()}
            for name, arr in params.snapshot().items()
        },
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def _decode_array(name: str, value) -> np.ndarray:
    """A shape/f8le object as a float64 array."""
    try:
        raw = base64.b64decode(value["f8le"], validate=True)
        arr = np.frombuffer(raw, "<f8").reshape(value["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint array {name} is malformed: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint array {name} has non-finite values")
    return arr


def read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``, else a ValueError naming ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} is not valid JSON: {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object: {path}")
    return obj


def load_checkpoint(path):
    """Returns (config, parameter arrays by name); other keys are ignored."""
    payload = read_json_object(path, "checkpoint")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for key in ("config", "parameters"):
        if not isinstance(payload.get(key), dict):
            raise ValueError(f"checkpoint has no {key!r} object: {path}")
    config = TrainingConfig.from_dict(payload["config"])
    arrays = {
        name: _decode_array(name, value)
        for name, value in payload["parameters"].items()
    }
    return config, arrays


def restore_parameters(dataset: GraphDataset, config: TrainingConfig, arrays: dict) -> ParameterSet:
    """Rebuild a ParameterSet shaped for the dataset and load arrays into it."""
    params = initial_parameters(dataset, config)
    params.load_snapshot(arrays)
    return params
