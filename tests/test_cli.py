import json
import os
import shutil

import numpy as np
import pytest

from lgrpool import cli
from lgrpool.cli import (
    load_config,
    main,
    parse_config_file,
    parse_gammas,
    parse_seeds,
)
from lgrpool.data import emit_tu_dataset, parse_tu_dataset

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


def test_parse_gammas_forms():
    assert parse_gammas("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(ValueError):
        parse_gammas("")
    with pytest.raises(ValueError):
        parse_gammas("-0.1")
    with pytest.raises(ValueError):
        parse_gammas("0.1,zz")


def test_parse_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("epochs = 5  # short\n\nalpha=0.4\n")
    assert parse_config_file(str(path)) == {"epochs": 5, "alpha": 0.4}
    cfg = load_config(str(path), {"gamma": 0.3, "seed": None})
    assert cfg.epochs == 5 and cfg.alpha == 0.4 and cfg.gamma == 0.3
    assert cfg.seed == 0  # None overrides are dropped


def test_parse_config_rejects_unknown_key(tmp_path):
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


def test_non_finite_train_gamma_exits_1_without_output(toy_dir, cfg_file, tmp_path, capsys):
    out = tmp_path / "nan-gamma"
    rc = main(["train", "--dataset", toy_dir, "--config", cfg_file, "--gamma", "nan", "--out", str(out)])
    assert rc == 1
    assert "gamma must be finite" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "damage, named",
    [
        (_without_array("pool.1.a"), "pool.1.a"),
        (_without("parameters"), "'parameters'"),
        (_without("config"), "'config'"),
        (lambda payload: [payload], "not a JSON object"),
    ],
)
def test_eval_malformed_checkpoint_exits_1(trained, tmp_path, capsys, damage, named):
    out = tmp_path / "damaged"
    shutil.copytree(trained, out)
    path = out / "checkpoint_seed0.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    assert main(["eval", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


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


def _train_artifacts(toy_dir, cfg, out, jobs, capsys):
    rc = main(
        ["train", "--dataset", toy_dir, "--config", cfg, "--seeds", "0,1", "--out", out, "--jobs", jobs]
    )
    err = capsys.readouterr().err
    blobs = {}
    for seed in (0, 1):
        for name in (f"metrics_seed{seed}.csv", f"checkpoint_seed{seed}.json"):
            if os.path.isfile(os.path.join(out, name)):
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
    return rc, err, blobs


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pooled_training_matches_serial(toy_dir, cfg_file, tmp_path, capsys):
    serial = _train_artifacts(toy_dir, cfg_file, str(tmp_path / "serial"), "1", capsys)
    pooled = _train_artifacts(toy_dir, cfg_file, str(tmp_path / "pooled"), "2", capsys)
    assert serial[0] == pooled[0] == 0
    assert len(serial[2]) == 4
    assert pooled[2] == serial[2]

    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(CONFIG_TEXT + "lr0 = 1e300\n")
    serial = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "serial_nf"), "1", capsys)
    pooled = _train_artifacts(toy_dir, str(diverging), str(tmp_path / "pooled_nf"), "2", capsys)
    assert serial[0] == pooled[0] == 2
    assert "aborted on non-finite loss: expectation phase, round 1, epoch 0: " in serial[1]
    assert pooled[1] == serial[1]


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


def _ablate_artifact(toy_dir, cfg, out, jobs, capsys):
    rc = main(
        ["ablate", "--dataset", toy_dir, "--config", cfg, "--seeds", "0,1", "--gamma", "0.1,0.3",
         "--out", out, "--jobs", jobs]
    )
    err = capsys.readouterr().err
    path = os.path.join(out, "gamma_ablation.csv")
    blob = open(path, "rb").read() if os.path.isfile(path) else None
    return rc, err, blob


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pooled_ablation_matches_serial(toy_dir, cfg_file, tmp_path, capsys):
    serial = _ablate_artifact(toy_dir, cfg_file, str(tmp_path / "serial"), "1", capsys)
    pooled = _ablate_artifact(toy_dir, cfg_file, str(tmp_path / "pooled"), "2", capsys)
    assert serial[0] == pooled[0] == 0
    assert serial[2].count(b"\n") == 3
    assert pooled[2] == serial[2]

    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(CONFIG_TEXT + "lr0 = 1e300\n")
    serial = _ablate_artifact(toy_dir, str(diverging), str(tmp_path / "serial_nf"), "1", capsys)
    pooled = _ablate_artifact(toy_dir, str(diverging), str(tmp_path / "pooled_nf"), "2", capsys)
    assert serial[0] == pooled[0] == 2
    assert "aborted on non-finite loss: expectation phase, round 1, epoch 0: " in serial[1]
    assert pooled[1] == serial[1]
    assert serial[2] is None and pooled[2] is None


# ------------------------------------------------------------- gradcheck


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "primitive" in out and "l_tot" in out
    assert out.strip().endswith("gradcheck passed")


def test_gradcheck_detects_injected_fault(capsys):
    assert main(["gradcheck", "--inject-fault"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_eps_bounds(capsys):
    assert main(["gradcheck", "--eps", "1"]) == 1
    assert main(["gradcheck", "--eps", "1e-8"]) == 1
    assert main(["gradcheck", "--eps", "1e-5"]) == 0


# --------------------------------------------------------------- inspect


def test_inspect_summary(toy_dir, capsys):
    assert main(["inspect", "--dataset", toy_dir]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    assert summary["graphs"] == 10
    assert summary["classes"] == 2
    assert summary["name"] == "TOY"


def test_inspect_trace(toy_dir, cfg_file, capsys):
    rc = main(
        ["inspect", "--dataset", toy_dir, "--config", cfg_file, "--graph", "0", "--trace"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    trace = json.loads(lines[1])
    assert "effective_depth" in trace
    for row in trace["layers"]:
        assert row["nodes_out"] <= row["nodes_in"]
        assert len(row["score_histogram"]) == 10


def test_inspect_trace_requires_valid_graph_index(toy_dir, capsys):
    assert main(["inspect", "--dataset", toy_dir, "--trace"]) == 1
    assert main(["inspect", "--dataset", toy_dir, "--graph", "99", "--trace"]) == 1


def test_dataset_root_env_var(toy_dir, cfg_file, monkeypatch, capsys):
    monkeypatch.setenv("LGRPOOL_DATA", os.path.dirname(toy_dir))
    assert main(["inspect", "--dataset", "TOY"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    assert summary["graphs"] == 10
