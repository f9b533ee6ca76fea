import base64
import functools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

from lgrpool import cli, propagation, training
from lgrpool.cli import (
    load_config,
    main,
    parse_config_file,
    parse_gammas,
    parse_seeds,
)
from lgrpool.data import emit_tu_dataset, parse_tu_dataset
from lgrpool.errors import NonFinite

from faulty_ops import sigmoid_wrong_derivative
from toydata import make_toy_dataset

CONFIG_TEXT = """# laptop-scale smoke settings
batch_size = 4
num_pooling_layers = 2
k = 3
epochs = 2
hidden = 6
em_rounds_max = 2
em_tolerance = 1e-12
gamma = 0.2
"""


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "TOY"
    emit_tu_dataset(make_toy_dataset(10), str(path))
    return str(path)


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "smoke.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def trained(toy_dir, cfg_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "toy-train")
    rc = main(
        ["train", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0,1", "--out", out]
    )
    assert rc == 0
    return out


# --------------------------------------------------------------- parsing


def test_parse_seeds_forms():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("7") == [7]
    assert parse_seeds("0,3,7") == [0, 3, 7]
    with pytest.raises(ValueError):
        parse_seeds("5..4")
    with pytest.raises(ValueError):
        parse_seeds("")
    for text in ("0,0", "3,1,3", "-1", "0,-2", "-2..1"):
        with pytest.raises(ValueError):
            parse_seeds(text)


def test_parse_gammas_forms():
    assert parse_gammas("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(ValueError):
        parse_gammas("")
    with pytest.raises(ValueError):
        parse_gammas("0.1,zz")
    for text in ("0.1,0.1", "0.2,0.1,0.20"):
        with pytest.raises(ValueError):
            parse_gammas(text)


def test_parse_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("epochs = 5  # short\n\nalpha=0.4\n")
    assert parse_config_file(str(path)) == {"epochs": 5, "alpha": 0.4}
    cfg = load_config(str(path))
    assert cfg.epochs == 5 and cfg.alpha == 0.4 and cfg.gamma == 0.2


def test_parse_config_rejects_unknown_key(toy_dir, tmp_path, capsys):
    path = tmp_path / "b.cfg"
    path.write_text("epoches = 5\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))
    path.write_text("epochs five\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))
    path.write_text("epochs = five\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))
    # Adam's constants are not settings, and --seeds alone sets the seed.
    out = tmp_path / "rejected"
    for key, named in [("beta1", "'beta1'"), ("beta2", "'beta2'"), ("eps_adam", "'eps_adam'"), ("seed", "--seeds")]:
        path.write_text(f"epochs = 2\n{key} = 0.5\n")
        assert main(["train", "--dataset", toy_dir, "--config", str(path), "--seeds", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ") and named in err, err
        assert err.count("\n") == 1
        assert not out.exists()


# ------------------------------------------------------------ exit codes


def test_missing_dataset_exits_1_naming_path(capsys):
    rc = main(["train", "--dataset", "no_such_dataset_dir"])
    assert rc == 1
    assert "no_such_dataset_dir" in capsys.readouterr().err


def test_bad_arguments_exit_1():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train"]) == 1  # --dataset is required


def test_unknown_config_key_exits_1(toy_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate = 0.1\n")
    rc = main(["train", "--dataset", toy_dir, "--config", str(bad)])
    assert rc == 1
    assert "learning_rate" in capsys.readouterr().err


def test_malformed_gamma_token_exits_1(toy_dir, cfg_file):
    for grid in ("0.1,zz", "nan", "0.1,inf", "-inf"):
        rc = main(
            ["ablate", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0", "--gamma", grid]
        )
        assert rc == 1, grid


def test_non_finite_train_gamma_exits_1_without_output(toy_dir, tmp_path, capsys):
    out = tmp_path / "nan-gamma"
    cfg = tmp_path / "nan-gamma.cfg"
    cfg.write_text(CONFIG_TEXT + "gamma = nan\n")
    rc = main(["train", "--dataset", toy_dir, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "gamma must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_em_tolerance_exits_1_without_output(toy_dir, tmp_path, capsys):
    out = tmp_path / "inf-tolerance"
    cfg = tmp_path / "inf-tolerance.cfg"
    cfg.write_text("em_tolerance = inf\n")
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: em_tolerance must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["train", "--gamma", "0.3"], ["gradcheck", "--eps", "1e-6"]])
def test_removed_flags_exit_1_as_unrecognized(toy_dir, tmp_path, capsys, argv):
    out = tmp_path / "rejected"
    extra = ["--dataset", toy_dir, "--out", str(out)] if argv[0] == "train" else []
    assert main(argv[:1] + extra + argv[1:]) == 1
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("train", ["--seeds", "0,0"], "duplicate seeds"),
        ("train", ["--seeds=-1"], "non-negative"),
        ("ablate", ["--seeds", "0", "--gamma", "0.1,0.1"], "duplicate gamma"),
        ("ablate", ["--seeds", "0", "--gamma", "0.1,-0.1"], "non-negative"),
    ],
)
def test_unusable_seed_or_gamma_list_exits_1_without_output(
    toy_dir, cfg_file, tmp_path, capsys, command, extra, named
):
    out = tmp_path / "rejected"
    rc = main([command, "--dataset", toy_dir, "--config", cfg_file, "--out", str(out)] + extra)
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_unusable_paths_exit_1(toy_dir, cfg_file, tmp_path, capsys):
    taken = tmp_path / "a-file"
    taken.write_text("")
    assert main(["train", "--dataset", toy_dir, "--config", cfg_file, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["train", "--dataset", toy_dir, "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -------------------------------------------------------------- training


def test_train_writes_artifacts(trained, toy_dir):
    expected = [
        "manifest.json",
        "summary.json",
        "metrics_seed0.csv",
        "metrics_seed1.csv",
        "checkpoint_seed0.json",
        "checkpoint_seed1.json",
    ]
    for name in expected:
        assert os.path.isfile(os.path.join(trained, name)), name

    with open(os.path.join(trained, "summary.json")) as fh:
        summary = json.load(fh)
    assert [e["seed"] for e in summary["per_seed"]] == [0, 1]
    accs = [e["test_acc"] for e in summary["per_seed"]]
    assert abs(summary["mean_acc"] - np.mean(accs)) <= 1e-12
    assert all(0.0 <= a <= 1.0 for a in accs)

    with open(os.path.join(trained, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "train"
    assert manifest["seeds"] == [0, 1]
    assert manifest["dataset"]["name"] == "TOY"
    assert len(manifest["input_hash"]) == 64


def test_train_rerun_is_byte_identical(trained, toy_dir, cfg_file):
    before = {}
    for name in ("metrics_seed0.csv", "metrics_seed1.csv", "manifest.json"):
        with open(os.path.join(trained, name), "rb") as fh:
            before[name] = fh.read()
    rc = main(
        ["train", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0,1", "--out", trained]
    )
    assert rc == 0
    for name, blob in before.items():
        with open(os.path.join(trained, name), "rb") as fh:
            assert fh.read() == blob, name


def test_eval_only_matches_summary(trained, toy_dir, capsys):
    rc = main(["eval", "--dataset", toy_dir, "--seeds", "0,1", "--out", trained])
    assert rc == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    recomputed = json.loads(line)
    with open(os.path.join(trained, "summary.json")) as fh:
        summary = json.load(fh)
    assert recomputed["per_seed"] == summary["per_seed"]
    assert recomputed["mean_acc"] == summary["mean_acc"]


def test_eval_command_reads_manifest(trained, capsys):
    rc = main(["eval", "--out", trained])
    assert rc == 0
    recomputed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert [e["seed"] for e in recomputed["per_seed"]] == [0, 1]


def test_eval_without_manifest_or_args_exits_1(tmp_path):
    assert main(["eval", "--out", str(tmp_path)]) == 1
    assert main(["eval"]) == 1


@pytest.mark.parametrize(
    "manifest, named",
    [
        pytest.param(lambda data: [1], "manifest is not a JSON object", id="list"),
        pytest.param(
            lambda data: {"seeds": [0], "dataset": "x"},
            "manifest dataset is not an object with a string path",
            id="dataset-string",
        ),
        pytest.param(
            lambda data: {"seeds": 5, "dataset": {"path": data}},
            "manifest seeds are not a list of integers",
            id="seeds-integer",
        ),
        pytest.param(
            lambda data: {"seeds": [-1], "dataset": {"path": data}},
            "manifest seeds must be non-negative and distinct",
            id="seeds-negative",
        ),
        pytest.param(
            lambda data: {"seeds": [0, 0], "dataset": {"path": data}},
            "manifest seeds must be non-negative and distinct",
            id="seeds-repeated",
        ),
    ],
)
def test_eval_malformed_manifest_exits_1(toy_dir, tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest(toy_dir)))
    assert main(["eval", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and str(path) in err


def test_eval_manifest_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("{bad")
    assert main(["eval", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_eval_checkpoint_not_json_names_the_file(trained, tmp_path, capsys):
    out = tmp_path / "damaged"
    shutil.copytree(trained, out)
    path = out / "checkpoint_seed0.json"
    path.write_text("{bad")
    assert main(["eval", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_unparsable_config_value_names_file_and_line(toy_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# comment\nepochs = two\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", toy_dir, "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1
    assert not out.exists()


def test_eval_rejects_config_option(trained, tmp_path, capsys):
    assert main(["eval", "--out", trained, "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def _without(key):
    def damage(payload):
        del payload[key]
        return payload

    return damage


def _without_array(name):
    def damage(payload):
        del payload["parameters"][name]
        return payload

    return damage


def _with_config(key, value):
    def damage(payload):
        payload["config"][key] = value
        return payload

    return damage


def _decoded(entry):
    return np.frombuffer(base64.b64decode(entry["f8le"]), "<f8").reshape(entry["shape"])


def _as_v2(payload):
    """The checkpoint in version-2 form: the same arrays, and the Adam keys in its config."""
    payload["format_version"] = 2
    payload["config"].update(beta1=0.9, beta2=0.999, eps_adam=1e-8)
    return payload


def _as_v1(payload):
    """The checkpoint rewritten in version-1 form: nested number lists."""
    payload["format_version"] = 1
    payload["parameters"] = {
        key: _decoded(entry).tolist() for key, entry in payload["parameters"].items()
    }
    return payload


def _with_v2_entry(name, edit):
    def damage(payload):
        edit(payload["parameters"][name])
        return payload

    return damage


def _reencode(transform):
    def edit(entry):
        entry["f8le"] = base64.b64encode(transform(_decoded(entry).copy())).decode()

    return edit


def _with_inf(arr):
    arr[0, 0] = np.inf
    return arr.tobytes()


@pytest.mark.parametrize(
    "damage, named",
    [
        (_without_array("pool.1.a"), "pool.1.a"),
        (_without("parameters"), "'parameters'"),
        (_without("config"), "'config'"),
        (lambda payload: [payload], "not a JSON object"),
        (_with_config("gamma", "x"), "gamma must be float"),
        (_with_config("hidden", 8.0), "hidden must be int"),
        (_with_config("k", True), "k must be int"),
        (_with_config("k", 0), "k must be a positive integer"),
        (_with_config("alpha", 0.0), "alpha must lie in (0, 1]"),
        (_with_config("s_thre", 1.0), "s_thre must lie in (0, 1)"),
        pytest.param(_as_v1, "unsupported checkpoint version 1", id="v1-rejected"),
        pytest.param(_as_v2, "unsupported checkpoint version 2", id="v2-rejected"),
        pytest.param(
            _with_v2_entry("prop.w1", lambda entry: entry.pop("shape")),
            "checkpoint array prop.w1 is malformed: 'shape'",
            id="v2-missing-shape",
        ),
        pytest.param(
            _with_v2_entry("prop.w1", lambda entry: entry.pop("f8le")),
            "checkpoint array prop.w1 is malformed: 'f8le'",
            id="v2-missing-f8le",
        ),
        pytest.param(
            _with_v2_entry("prop.w1", lambda entry: entry.update(f8le="*" + entry["f8le"])),
            "checkpoint array prop.w1 is malformed",
            id="v2-invalid-base64",
        ),
        pytest.param(
            _with_v2_entry("prop.w1", _reencode(lambda arr: arr.tobytes()[:-8])),
            "checkpoint array prop.w1 is malformed",
            id="v2-short-bytes",
        ),
        pytest.param(
            _with_v2_entry("prop.w1", _reencode(lambda arr: arr.tobytes()[:-3])),
            "checkpoint array prop.w1 is malformed",
            id="v2-ragged-bytes",
        ),
        pytest.param(
            _with_v2_entry("prop.w1", _reencode(_with_inf)),
            "checkpoint array prop.w1 has non-finite values",
            id="v2-inf",
        ),
    ],
)
def test_eval_malformed_checkpoint_exits_1(trained, tmp_path, capsys, damage, named):
    out = tmp_path / "damaged"
    shutil.copytree(trained, out)
    path = out / "checkpoint_seed0.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    assert main(["eval", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_train_and_ablate_parse_the_dataset_once(toy_dir, tmp_path, monkeypatch, capsys):
    calls = []

    def counting_parse(*args):
        calls.append(args)
        return parse_tu_dataset(*args)

    monkeypatch.setattr(cli, "parse_tu_dataset", counting_parse)
    quick = tmp_path / "quick.cfg"
    quick.write_text(CONFIG_TEXT + "epochs = 1\nem_rounds_max = 1\n")
    common = ["--dataset", toy_dir, "--config", str(quick)]
    assert main(["train", *common, "--seeds", "0,1,2", "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1
    assert main(["ablate", *common, "--seeds", "0,1", "--gamma", "0.1,0.2", "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 2


def _train_artifacts(toy_dir, cfg, out, jobs, capfd):
    rc = main(
        ["train", "--dataset", toy_dir, "--config", cfg, "--seeds", "0,1", "--out", out, "--jobs", jobs]
    )
    err = capfd.readouterr().err
    blobs = {}
    for seed in (0, 1):
        for name in (f"metrics_seed{seed}.csv", f"checkpoint_seed{seed}.json"):
            if os.path.isfile(os.path.join(out, name)):
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
    return rc, err, blobs


# capfd, unlike capsys, also sees what forked pool workers write to stderr.
DIVERGED = "aborted on non-finite loss: expectation phase, round 1, epoch 0: matmul: non-finite forward output\n"


@pytest.fixture
def printed_warnings(monkeypatch):
    """Warnings go to stderr as in a plain interpreter, where pytest would
    record them instead; forked pool workers inherit the printer."""

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)
    warnings.simplefilter("always")


def test_pooled_training_matches_serial(toy_dir, cfg_file, tmp_path, capfd, printed_warnings):
    serial = _train_artifacts(toy_dir, cfg_file, str(tmp_path / "serial"), "1", capfd)
    pooled = _train_artifacts(toy_dir, cfg_file, str(tmp_path / "pooled"), "2", capfd)
    assert serial[0] == pooled[0] == 0
    assert len(serial[2]) == 4
    assert pooled[2] == serial[2]

    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(CONFIG_TEXT + "lr0 = 1e300\n")
    serial = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "serial_nf"), "1", capfd)
    pooled = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "pooled_nf"), "2", capfd)
    assert serial[0] == pooled[0] == 2
    assert serial[1] == pooled[1] == DIVERGED


def test_divergence_first_seen_in_validation_names_its_epoch(toy_dir, tmp_path, capfd, printed_warnings):
    # All 8 train graphs fit in one batch, so the first non-finite value
    # appears in the epoch's validation pass, not in a training forward.
    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(CONFIG_TEXT + "batch_size = 8\nlr0 = 1e300\n")
    serial = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "serial"), "1", capfd)
    pooled = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "pooled"), "2", capfd)
    assert serial[0] == pooled[0] == 2
    assert serial[1].startswith("aborted on non-finite loss: expectation phase, round 1, epoch 0: ")
    assert serial[1].count("\n") == 1
    assert pooled[1] == serial[1]


def _huge_toy_dir(tmp_path):
    """The 10-graph toy with every node attribute 1.7e308: finite values
    that overflow the first matmul of any forward pass."""
    huge = make_toy_dataset(10, name="HUGE")
    for graph in huge.graphs:
        graph.node_attributes[:] = 1.7e308
    path = str(tmp_path / "HUGE")
    emit_tu_dataset(huge, path)
    return path


def test_divergence_in_opening_regularizer_pass_names_the_pass(cfg_file, tmp_path, capfd, printed_warnings):
    path = _huge_toy_dir(tmp_path)
    serial = _train_artifacts(path, cfg_file, str(tmp_path / "serial"), "1", capfd)
    pooled = _train_artifacts(path, cfg_file, str(tmp_path / "pooled"), "2", capfd)
    assert serial[0] == pooled[0] == 2
    want = "aborted on non-finite loss: opening regularizer pass: matmul: non-finite forward output\n"
    assert serial[1] == pooled[1] == want
    # Seed 0 diverges and seed 1 still runs and writes, serially as in the pool.
    assert sorted(serial[2]) == ["checkpoint_seed1.json", "metrics_seed1.csv"]
    assert serial[2] == pooled[2]


def test_eval_divergence_is_labelled_without_numpy_warning(trained, tmp_path, capfd, printed_warnings):
    rc = main(["eval", "--dataset", _huge_toy_dir(tmp_path), "--out", trained, "--seeds", "0"])
    captured = capfd.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "aborted on non-finite loss: test evaluation: matmul: non-finite forward output\n"


def test_inspect_trace_divergence_is_labelled_without_numpy_warning(cfg_file, tmp_path, capfd, printed_warnings):
    path = _huge_toy_dir(tmp_path)
    rc = main(["inspect", "--dataset", path, "--config", cfg_file, "--graph", "0"])
    captured = capfd.readouterr()
    assert rc == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["name"] == "HUGE"
    assert captured.err == "aborted on non-finite loss: inspect trace: matmul: non-finite forward output\n"


class RecordingPool:
    """Stand-in for ProcessPoolExecutor: records its size, runs jobs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_jobs_start_no_more_workers_than_jobs(toy_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    quick = tmp_path / "quick.cfg"
    quick.write_text(CONFIG_TEXT + "epochs = 1\nem_rounds_max = 1\n")
    common = ["--dataset", toy_dir, "--config", str(quick)]
    assert main(["train", *common, "--seeds", "0,1", "--jobs", "64", "--out", str(tmp_path / "t")]) == 0
    assert main(["ablate", *common, "--seeds", "0,1", "--gamma", "0.1,0.2", "--jobs", "3",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["train", *common, "--seeds", "0", "--jobs", "8", "--out", str(tmp_path / "s")]) == 0
    assert RecordingPool.sizes == [2, 3]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_1(toy_dir, cfg_file, tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    argv = [command, "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0", "--jobs", jobs]
    assert main([*argv, "--out", str(out)]) == 1
    assert "argument --jobs: expected an integer of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_worker_empty_split_exits_1_as_serially(cfg_file, tmp_path, capsys):
    five = tmp_path / "FIVE"
    emit_tu_dataset(make_toy_dataset(5, name="FIVE"), str(five))
    errs = []
    for jobs in ("1", "2"):
        rc = main(["train", "--dataset", str(five), "--config", cfg_file, "--seeds", "0,1",
                   "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert rc == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: split sizes (4, 0, 1) contain an empty part\n"


@pytest.fixture
def forked_pool(monkeypatch):
    """Pools with forked workers, which run this process's patched functions
    whatever the platform's default start method."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork))


@pytest.mark.usefixtures("forked_pool")
def test_worker_non_finite_reaches_main_and_exits_2(toy_dir, cfg_file, tmp_path, monkeypatch, capsys):
    def diverging_fit(dataset, config):
        raise NonFinite(f"seed {config.seed} diverged")

    monkeypatch.setattr(cli, "_fit", diverging_fit)
    errs = []
    for jobs in ("1", "2"):
        rc = main(["train", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0,1",
                   "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert rc == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "aborted on non-finite loss: seed 0 diverged\n"


@pytest.mark.usefixtures("forked_pool")
def test_crashed_worker_exits_4_with_one_line(toy_dir, cfg_file, tmp_path, monkeypatch, capfd):
    fit = cli._fit

    def crashing_fit(dataset, config):
        if config.seed == 1:
            os._exit(9)
        return fit(dataset, config)

    monkeypatch.setattr(cli, "_fit", crashing_fit)
    rc = main(["train", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0,1",
               "--jobs", "2", "--out", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert rc == 4
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: a worker process died; ") and err.endswith(" of 2 jobs finished\n")
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------- ablate


def test_ablate_single_gamma(toy_dir, cfg_file, tmp_path, capsys):
    out = str(tmp_path / "ablate")
    rc = main(
        [
            "ablate",
            "--dataset",
            toy_dir,
            "--config",
            cfg_file,
            "--seeds",
            "0",
            "--gamma",
            "0.15",
            "--out",
            out,
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert list(printed) == ["0.15"]
    lines = open(os.path.join(out, "gamma_ablation.csv")).read().strip().split("\n")
    assert lines[0] == "gamma,mean_acc,std_acc"
    assert len(lines) == 2 and lines[1].startswith("0.15,")


def test_ablate_default_out_dir_depends_on_the_gamma_grid(toy_dir, cfg_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for gamma in ("0.1", "0.3", "0.1"):
        assert main(["ablate", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0", "--gamma", gamma]) == 0
    runs = sorted(os.listdir(tmp_path / "runs"))
    assert len(runs) == 2 and all(r.startswith("ablate-TOY-") for r in runs)
    grids = {(tmp_path / "runs" / r / "gamma_ablation.csv").read_text().split("\n")[1].split(",")[0] for r in runs}
    assert grids == {"0.1", "0.3"}


def test_ablate_manifest_names_the_gamma_grid(trained, toy_dir, cfg_file, tmp_path):
    out = tmp_path / "ablate"
    rc = main(
        ["ablate", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0", "--gamma", "0.1,0.3",
         "--out", str(out)]
    )
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["gammas"] == [0.1, 0.3]
    with open(os.path.join(trained, "manifest.json")) as fh:
        assert "gammas" not in json.load(fh)


def test_metrics_and_ablation_csv_bytes(toy_dir, cfg_file, tmp_path, monkeypatch, capsys):
    metrics = training.RunMetrics(
        epochs=[
            training.EpochRecord(0, "E", 1, 1 / 3),
            training.EpochRecord(
                1, "M", 1, np.float64(2 / 3), np.float64(-1234.56789012345678), np.float64(1e-13 / 3), 1.0
            ),
            training.EpochRecord(2, "E", 2, 2.5, None, None, 0.875),
        ]
    )
    path = tmp_path / "metrics.csv"
    training.write_metrics_csv(path, metrics)
    assert path.read_text() == (
        "epoch,phase,em_round,l_exp,l_precor,l_tot,val_acc\n"
        "0,E,1,0.333333333333,,,\n"
        "1,M,1,0.666666666667,-1234.56789012,3.33333333333e-14,1\n"
        "2,E,2,2.5,,,0.875\n"
    )

    # Per-seed accuracies whose mean and std are the rows (0.1, 0.875, 0.125) and (0.3, 1/3, 0.0).
    accs = {(0.1, 0): 0.75, (0.1, 1): 1.0, (0.3, 0): 1 / 3, (0.3, 1): 1 / 3}
    monkeypatch.setattr(
        cli, "_run_jobs", lambda worker, jobs, n: [(c.gamma, c.seed, accs[c.gamma, c.seed]) for _, c in jobs]
    )
    out = tmp_path / "ablate"
    rc = main(
        ["ablate", "--dataset", toy_dir, "--config", cfg_file, "--seeds", "0,1", "--gamma", "0.1,0.3",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "gamma_ablation.csv").read_text() == "gamma,mean_acc,std_acc\n0.1,0.875,0.125\n0.3,0.333333333333,0\n"


def _ablate_artifact(toy_dir, cfg, out, jobs, capfd):
    rc = main(
        ["ablate", "--dataset", toy_dir, "--config", cfg, "--seeds", "0,1", "--gamma", "0.1,0.3",
         "--out", out, "--jobs", jobs]
    )
    err = capfd.readouterr().err
    path = os.path.join(out, "gamma_ablation.csv")
    blob = None
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            blob = fh.read()
    return rc, err, blob


def test_pooled_ablation_matches_serial(toy_dir, cfg_file, tmp_path, capfd, printed_warnings):
    serial = _ablate_artifact(toy_dir, cfg_file, str(tmp_path / "serial"), "1", capfd)
    pooled = _ablate_artifact(toy_dir, cfg_file, str(tmp_path / "pooled"), "2", capfd)
    assert serial[0] == pooled[0] == 0
    assert serial[2].count(b"\n") == 3
    assert pooled[2] == serial[2]

    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(CONFIG_TEXT + "lr0 = 1e300\n")
    serial = _ablate_artifact(toy_dir, str(diverging), str(tmp_path / "serial_nf"), "1", capfd)
    pooled = _ablate_artifact(toy_dir, str(diverging), str(tmp_path / "pooled_nf"), "2", capfd)
    assert serial[0] == pooled[0] == 2
    assert serial[1] == pooled[1] == DIVERGED
    assert serial[2] is None and pooled[2] is None


# ------------------------------------------------------------- gradcheck


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "primitive" in out and "l_tot" in out
    assert out.strip().endswith("gradcheck passed")


def test_gradcheck_detects_injected_fault(monkeypatch, capsys):
    rows = [
        (name, cli._sum_sq(sigmoid_wrong_derivative), shapes) if name == "sigmoid" else (name, builder, shapes)
        for name, builder, shapes in cli.PRIMITIVE_TARGETS
    ]
    monkeypatch.setattr(cli, "PRIMITIVE_TARGETS", tuple(rows))
    assert main(["gradcheck"]) == 3
    lines = capsys.readouterr().out.splitlines()
    [sigmoid] = [line for line in lines if line.startswith("primitive sigmoid: ")]
    assert sigmoid.endswith(" FAIL")
    assert lines[-1] == "gradcheck failed: sigmoid"


def test_gradcheck_prints_every_target_in_order(capsys):
    assert main(["gradcheck"]) == 0
    labels = [line.split(": max_rel_err=")[0] for line in capsys.readouterr().out.splitlines()]
    primitives = [f"primitive {name}" for name, _, _ in cli.primitive_targets()]
    blocks = [f"l_tot {name}" for name, _ in cli.full_loss_target()[1].items()]
    assert len(primitives) == 16
    assert labels == primitives + blocks + ["gradcheck passed"]


def test_gradcheck_inputs_depend_only_on_the_target_name(monkeypatch):
    rows = cli.PRIMITIVE_TARGETS
    in_order = {name: params for name, _, params in cli.primitive_targets()}
    monkeypatch.setattr(cli, "PRIMITIVE_TARGETS", rows[::-1])
    reversed_order = {name: params for name, _, params in cli.primitive_targets()}
    for row in rows:
        monkeypatch.setattr(cli, "PRIMITIVE_TARGETS", (row,))
        [(name, _, alone)] = cli.primitive_targets()
        for params in (in_order[name], reversed_order[name]):
            assert params.keys() == alone.keys()
            for key, value in params.items():
                np.testing.assert_array_equal(value.data, alone[key].data)
                assert np.abs(value.data).min() >= 0.2, f"{name}.{key} draws near zero"


# --------------------------------------------------------------- inspect


def test_inspect_summary(toy_dir, capsys):
    assert main(["inspect", "--dataset", toy_dir]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    assert summary["graphs"] == 10
    assert summary["classes"] == 2
    assert summary["name"] == "TOY"


def test_inspect_trace(toy_dir, cfg_file, capsys):
    rc = main(
        ["inspect", "--dataset", toy_dir, "--config", cfg_file, "--graph", "0"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    trace = json.loads(lines[1])
    assert "effective_depth" in trace
    for row in trace["layers"]:
        assert row["nodes_out"] <= row["nodes_in"]
        assert len(row["score_histogram"]) == 10


def test_inspect_rejects_out_option(toy_dir, tmp_path, capsys):
    assert main(["inspect", "--dataset", toy_dir, "--out", str(tmp_path / "absent" / "x")]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_inspect_trace_requires_valid_graph_index(toy_dir, capsys):
    assert main(["inspect", "--dataset", toy_dir, "--graph", "-1"]) == 1
    assert main(["inspect", "--dataset", toy_dir, "--graph", "99"]) == 1


def test_inspect_out_of_range_graph_names_the_graph_count(toy_dir, capsys):
    assert main(["inspect", "--dataset", toy_dir, "--graph", "10"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["graphs"] == 10
    assert captured.err == "error: --graph 10 is outside the dataset's 10 graphs\n"


def test_inspect_graph_traces_the_regularizer_without_classifying(toy_dir, cfg_file, monkeypatch, capsys):
    argv = ["inspect", "--dataset", toy_dir, "--config", cfg_file, "--graph", "0"]
    assert main(argv) == 0
    want = capsys.readouterr().out

    def no_classify(*args, **kwargs):
        raise AssertionError("inspect --graph computed a classification")

    monkeypatch.setattr(propagation, "classify", no_classify)
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert got == want
    summary, trace = got.splitlines()
    assert json.loads(summary)["name"] == "TOY"
    assert "effective_depth" in json.loads(trace)


def test_inspect_graph_rejects_a_config_seed(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(CONFIG_TEXT + "seed = 5\n")
    assert main(["inspect", "--dataset", toy_dir, "--config", str(cfg), "--graph", "3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["graphs"] == 10
    seed_line = CONFIG_TEXT.count("\n") + 1
    assert captured.err == f"error: {cfg}:{seed_line}: seed is not a config key; use --seeds\n"


def test_inspect_rejects_graph_ids_out_of_order(tmp_path, capsys):
    d = tmp_path / "SHUF"
    d.mkdir()
    (d / "SHUF_A.txt").write_text("1, 3\n3, 1\n")
    (d / "SHUF_graph_indicator.txt").write_text("1\n2\n1\n")
    (d / "SHUF_graph_labels.txt").write_text("0\n1\n")
    assert main(["inspect", "--dataset", str(d)]) == 1
    assert "SHUF_graph_indicator.txt line 3" in capsys.readouterr().err


def test_dataset_root_env_var(toy_dir, cfg_file, monkeypatch, capsys):
    monkeypatch.setenv("LGRPOOL_DATA", os.path.dirname(toy_dir))
    assert main(["inspect", "--dataset", "TOY"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    assert summary["graphs"] == 10


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_vars_after_import(**user_values):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(user_values)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import lgrpool, os; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_import_defaults_blas_to_one_thread_unless_set():
    assert _blas_vars_after_import() == ["1", "1", "1"]
    assert _blas_vars_after_import(OMP_NUM_THREADS="2") == ["1", "2", "1"]
