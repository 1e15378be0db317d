import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothtta
import smoothtta.decoder as dec
from smoothtta import cli, paramio

BASE = [sys.executable, "-m", "smoothtta"]

# The directory holding the package this test process imported, made absolute
# so that it still resolves in the temporary working directories the CLI runs in.
PACKAGE_ROOT = str(Path(smoothtta.__file__).resolve().parents[1])


def _make_csv(path, T=900, d=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(T)[:, None]
    values = (
        np.sin(2 * np.pi * t / 8 + rng.uniform(0, 6, d))
        + 0.3 * rng.uniform(-1, 1, d)
        + 0.2 * rng.standard_normal((T, d))
    )
    lines = [",".join(f"{x:.6f}" for x in row) for row in values]
    path.write_text("\n".join(lines) + "\n")
    return path


COMMON = ["--lookback", "16", "--horizon", "8", "--seed", "3"]


def _child_env():
    """Environment for a CLI child: imports this checkout, ignores SMOOTHTTA_DATA."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (PACKAGE_ROOT, env.get("PYTHONPATH")) if entry
    )
    env.pop("SMOOTHTTA_DATA", None)
    return env


def _run(args, cwd):
    return subprocess.run(
        BASE + args, cwd=cwd, env=_child_env(), capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    wd = tmp_path_factory.mktemp("cli")
    _make_csv(wd / "toy.csv")
    fit = _run(
        ["fit-backbone", "--data", "toy.csv", *COMMON, "--out", "backbone.params"],
        cwd=wd,
    )
    assert fit.returncode == 0, fit.stderr
    train = _run(
        ["train-decoder", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--out", "decoder.params"],
        cwd=wd,
    )
    assert train.returncode == 0, train.stderr
    return wd


def test_fit_backbone_writes_params(workdir):
    res = _run(
        ["fit-backbone", "--data", "toy.csv", *COMMON, "--out", "backbone2.params"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    assert (workdir / "backbone2.params").exists()
    # refitting with the same seed reproduces the parameter block exactly
    assert (workdir / "backbone2.params").read_bytes() == (workdir / "backbone.params").read_bytes()


def test_train_decoder_writes_params(workdir):
    res = _run(
        ["train-decoder", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--out", "decoder2.params"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    assert "loss trace" in res.stdout
    assert (workdir / "decoder2.params").read_bytes() == (workdir / "decoder.params").read_bytes()


def test_rollout_outputs_and_determinism(workdir):
    args = ["rollout", "--data", "toy.csv", *COMMON,
            "--backbone", "backbone.params", "--decoder", "decoder.params"]
    res1 = _run(args + ["--out-dir", "run_a"], cwd=workdir)
    assert res1.returncode == 0, res1.stderr
    res2 = _run(args + ["--out-dir", "run_b"], cwd=workdir)
    assert res2.returncode == 0, res2.stderr
    a = (workdir / "run_a/rollout/metrics.csv").read_bytes()
    b = (workdir / "run_b/rollout/metrics.csv").read_bytes()
    assert a == b
    manifest = json.loads((workdir / "run_a/rollout/manifest.json").read_text())
    assert manifest["config"]["seed"] == 3
    assert "timing" in manifest


def test_rollout_exit_code_2_on_bad_config(workdir):
    res = _run(
        ["rollout", "--data", "toy.csv", *COMMON, "--set", "bogus_key=1"],
        cwd=workdir,
    )
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_rollout_exit_code_3_on_missing_data(workdir):
    res = _run(["rollout", "--data", "missing.csv", *COMMON], cwd=workdir)
    assert res.returncode == 3
    assert "data error" in res.stderr


def test_rollout_exit_code_4_on_leakage(workdir):
    res = _run(
        ["rollout", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--stride", "2", "--memory-schedule", "immediate"],
        cwd=workdir,
    )
    assert res.returncode == 4
    assert "contract violation" in res.stderr


def _rollout_in_process(workdir, out, *extra):
    """rollout through `cli.main` in this process, so tests can patch it."""
    return cli.main(
        ["rollout", "--data", str(workdir / "toy.csv"), *COMMON,
         "--backbone", str(workdir / "backbone.params"),
         "--decoder", str(workdir / "decoder.params"), "--out-dir", str(workdir / out), *extra]
    )


def test_leakage_found_while_the_worker_prepares_a_later_chunk_exits_4(
    workdir, monkeypatch, capsys
):
    # one window per chunk: the caller already holds chunk 0 when the worker's
    # plan trips the guard on window 1
    monkeypatch.setattr(sys.modules["smoothtta.rollout"], "CHUNK_BYTES", 1)
    threads = threading.active_count()
    rc = _rollout_in_process(workdir, "run_leak", "--stride", "2", "--memory-schedule", "immediate")
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("contract violation:") and "leak" in err
    assert threading.active_count() == threads


def test_rollout_with_a_ridge_lost_in_rounding_exits_0(workdir):
    # at a 1-step prefix the harmonic and bias fields are collinear, so the
    # 2x2 ridge system is singular once the ridge rounds away
    out = "run_tiny_ridge"
    assert _rollout_in_process(workdir, out, "--prefix", "1", "--set", "ridge_coef=1e-20") == 0
    manifest = json.loads((workdir / out / "rollout" / "manifest.json").read_text())
    assert np.isfinite(manifest["aggregates"]["mse_corrected"])


def test_data_env_var_resolution(workdir, tmp_path):
    env = _child_env()
    env["SMOOTHTTA_DATA"] = str(workdir)
    res = subprocess.run(
        BASE + ["rollout", "--data", "toy.csv", *COMMON,
                "--backbone", str(workdir / "backbone.params"),
                "--decoder", str(workdir / "decoder.params")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_config_file_overrides(workdir):
    (workdir / "solver.cfg").write_text(
        "memory_decay = 0.8\nglobal_mix = 0.5  # trailing comment\n"
    )
    res = _run(
        ["rollout", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--config", "solver.cfg", "--out-dir", "run_cfg"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    manifest = json.loads((workdir / "run_cfg/rollout/manifest.json").read_text())
    assert manifest["config"]["solver"]["memory_decay"] == 0.8
    assert manifest["config"]["solver"]["global_mix"] == 0.5


def test_ablate_writes_variant_metrics(workdir):
    res = _run(
        ["ablate", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--out-dir", "run_ab"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    for variant in ("full", "local_only", "global_only", "no_bound", "no_memory"):
        assert (workdir / f"run_ab/ablate/metrics_{variant}.csv").exists()
    assert (workdir / "run_ab/ablate/summary.csv").exists()


def test_contaminate_grid(workdir):
    res = _run(
        ["contaminate", "--data", "toy.csv", *COMMON,
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--ratios", "0,0.1", "--out-dir", "run_ct"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["zero_shot_identical"] is True
    assert (workdir / "run_ct/contaminate/contamination.csv").exists()


def test_sparse_boundary_command(workdir):
    res = _run(
        ["sparse-boundary", "--data", "toy.csv", *COMMON, "--k", "2",
         "--near", "2:4", "--far", "6:8",
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--out-dir", "run_sb"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert "near_mse_corrected" in out and "far_mse_corrected" in out


def test_sparse_boundary_rejects_oversized_windows(workdir):
    res = _run(
        ["sparse-boundary", "--data", "toy.csv", *COMMON, "--k", "2",
         "--backbone", "backbone.params", "--decoder", "decoder.params"],
        cwd=workdir,
    )
    # defaults 4:27 / 73:96 cannot fit inside H=8
    assert res.returncode == 2


def test_sparse_boundary_rejects_k_at_horizon(workdir):
    res = _run(
        ["sparse-boundary", "--data", "toy.csv", *COMMON, "--k", "8",
         "--near", "2:4", "--far", "6:8",
         "--backbone", "backbone.params", "--decoder", "decoder.params"],
        cwd=workdir,
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "extra",
    [["--prefix", "5"], ["--set", "prefix_mode=fixed", "--set", "prefix_length=3"]],
    ids=["prefix-flag", "set"],
)
def test_sparse_boundary_rejects_a_fixed_prefix(workdir, extra):
    res = _run(
        ["sparse-boundary", "--data", "toy.csv", *COMMON, "--k", "2", *extra,
         "--near", "2:4", "--far", "6:8",
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--out-dir", "run_sb_prefix"],
        cwd=workdir,
    )
    assert res.returncode == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("configuration error:") and "--k" in line
    assert not (workdir / "run_sb_prefix").exists()


def test_contaminate_rejects_out_of_range_ratio(workdir):
    res = _run(
        ["contaminate", "--data", "toy.csv", *COMMON, "--ratios", "0,1.5",
         "--backbone", "backbone.params", "--decoder", "decoder.params"],
        cwd=workdir,
    )
    assert res.returncode == 2


def test_missing_backbone_artifact_is_a_data_error(workdir):
    res = _run(
        ["rollout", "--data", "toy.csv", *COMMON, "--backbone", "nope.params"],
        cwd=workdir,
    )
    assert res.returncode == 3
    assert "data error" in res.stderr


def test_sparse_anchor_command(workdir):
    res = _run(
        ["sparse-anchor", "--data", "toy.csv", *COMMON, "--ratios", "0.2",
         "--support", "4", "--eval", "5:8",
         "--backbone", "backbone.params", "--decoder", "decoder.params",
         "--out-dir", "run_sa"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    assert (workdir / "run_sa/sparse-anchor/summary.csv").exists()


def test_sweep_command(workdir):
    res = _run(
        ["sweep", "--data", "toy.csv", *COMMON, "--parameter", "memory_decay",
         "--grid", "0.0,0.5", "--backbone", "backbone.params",
         "--decoder", "decoder.params", "--out-dir", "run_sw"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    text = (workdir / "run_sw/sweep/sweep.csv").read_text()
    assert text.count("\n") == 3  # header + 2 grid points


def test_bench_command(workdir):
    res = _run(
        ["bench", "--horizons", "8,16", "--batch", "4", "--channels", "2",
         "--prefix-len", "3", "--reps", "3", "--out-dir", "run_bench"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert [r["horizon"] for r in rows] == [8, 16]
    assert rows[0]["decoder_parameters"] < rows[1]["decoder_parameters"]


def test_dump_schedule_command(workdir):
    res = _run(
        ["dump-schedule", "--horizon", "96", "--out", "schedule.csv"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    text = (workdir / "schedule.csv").read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 97  # header + one row per step
    assert "np." not in text  # plain-float cells only
    assert "transition at step 24" in res.stdout
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["local_share"]) == pytest.approx(0.923, abs=1e-3)


@pytest.mark.parametrize(
    "flag, value",
    [("--clip", "-1"), ("--ramp-midpoint", "2"), ("--global-mix", "nan"), ("--horizon", "0"),
     ("--ramp-sharpness", "inf"), ("--global-mix", "inf")],
)
def test_dump_schedule_out_of_range_flag_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "schedule.csv"
    assert cli.main(["dump-schedule", flag, value, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error:") and flag in line
    assert not out.exists()


def test_train_decoder_exit_code_2_on_backbone_shape_mismatch(workdir):
    res = _run(
        ["train-decoder", "--data", "toy.csv", "--lookback", "24", "--horizon", "8",
         "--seed", "3", "--backbone", "backbone.params", "--out", "mismatch.params"],
        cwd=workdir,
    )
    assert res.returncode == 2, res.stderr
    assert "configuration error" in res.stderr
    assert not (workdir / "mismatch.params").exists()


@pytest.mark.parametrize("command", ["train-decoder", "rollout"])
def test_corrupt_backbone_file_is_a_configuration_error(workdir, command):
    (workdir / "corrupt.params").write_bytes(b"not a parameter file")
    extra = ["--out", "corrupt_decoder.params"] if command == "train-decoder" else []
    res = _run(
        [command, "--data", "toy.csv", *COMMON, "--backbone", "corrupt.params", *extra],
        cwd=workdir,
    )
    assert res.returncode == 2, res.stderr
    assert "configuration error" in res.stderr


def test_train_decoder_exit_code_3_on_missing_backbone(workdir):
    res = _run(
        ["train-decoder", "--data", "toy.csv", *COMMON,
         "--backbone", "nope.params", "--out", "nope_decoder.params"],
        cwd=workdir,
    )
    assert res.returncode == 3, res.stderr
    assert "data error" in res.stderr


def _train_in_process(workdir, *extra):
    """train-decoder through `cli.main` in this process, so tests can patch it."""
    return cli.main(
        ["train-decoder", "--data", str(workdir / "toy.csv"), *COMMON,
         "--backbone", str(workdir / "backbone.params"),
         "--out", str(workdir / "in_process.params"), *extra]
    )


@pytest.mark.parametrize(
    "setting",
    [
        "hidden_dim=0",
        "context_size=0",
        "basis_clip=-1",
        "basis_clip=nan",
        "local_mix=nan",
        "local_mix=inf",
        "global_scale=0",
        "global_scale=nan",
        "global_scale=inf",
        "correction_clip=0",
        "ramp_sharpness=0",
        "ramp_midpoint=2",
        "ramp_midpoint=-0.1",
        "global_mix=-0.5",
        "global_mix=nan",
        "ramp_sharpness=inf",
        "global_mix=inf",
        "smoothness_alpha=1e-16",
        "smoothness_alpha=inf",
    ],
)
def test_out_of_range_setting_exits_2(workdir, setting, capsys):
    assert _train_in_process(workdir, "--set", setting) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert setting.split("=")[0].replace("_", " ") in err.replace("_", " ")


def _with_bad_w1_gradient(original):
    def corrupted(*args, **kwargs):
        loss, grads = original(*args, **kwargs)
        grads["W1"] = grads["W1"] + 1.0
        return loss, grads

    return corrupted


def _with_nan_loss(original):
    def diverging(*args, **kwargs):
        _, grads = original(*args, **kwargs)
        return float("nan"), grads

    return diverging


@pytest.mark.parametrize(
    "patch, message",
    [(_with_bad_w1_gradient, "gradient check failed"), (_with_nan_loss, "non-finite")],
)
def test_decoder_gate_failures_exit_4(workdir, monkeypatch, capsys, patch, message):
    monkeypatch.setattr(dec, "_loss_and_grads", patch(dec._loss_and_grads))
    assert _train_in_process(workdir) == 4
    err = capsys.readouterr().err
    assert err.startswith("contract violation:") and message in err
    assert err.count("\n") == 1
    assert not (workdir / "in_process.params").exists()


def test_train_decoder_exits_4_when_a_feature_is_nan(workdir, monkeypatch, capsys):
    rollout_module = sys.modules["smoothtta.rollout"]
    original = rollout_module.build_decoder_training_set

    def with_nan_feature(*args, **kwargs):
        feats, *rest = original(*args, **kwargs)
        feats[:, 0] = np.nan
        return (feats, *rest)

    monkeypatch.setattr(rollout_module, "build_decoder_training_set", with_nan_feature)
    assert _train_in_process(workdir) == 4
    err = capsys.readouterr().err
    assert err.startswith("contract violation: gradient check failed") and err.count("\n") == 1
    assert not (workdir / "in_process.params").exists()


def _expect_configuration_error(argv, flag, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --{flag} ") and err.count("\n") == 1


def test_bench_rejects_a_non_integer_horizon(tmp_path, capsys):
    argv = ["bench", "--horizons", "96,x", "--out-dir", str(tmp_path)]
    _expect_configuration_error(argv, "horizons", capsys)
    assert not (tmp_path / "bench").exists()


def test_rollout_rejects_a_non_numeric_split(workdir, capsys):
    argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON, "--split", "0.5:x:0.2",
            "--backbone", str(workdir / "backbone.params"),
            "--decoder", str(workdir / "decoder.params"), "--out-dir", str(workdir / "run_bad_split")]
    _expect_configuration_error(argv, "split", capsys)
    assert not (workdir / "run_bad_split").exists()


@pytest.mark.parametrize("split", ["nan:0.1:0.2", "0.7:inf:0.2"])
def test_rollout_rejects_a_non_finite_split_ratio(workdir, capsys, split):
    argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON, "--split", split,
            "--out-dir", str(workdir / "run_nan_split")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: split ratios must be positive, finite") and err.count("\n") == 1
    assert not (workdir / "run_nan_split").exists()


@pytest.mark.parametrize("ratios", ["0.1,0.3", "0", "0,0"])
def test_contaminate_needs_ratio_0_and_a_nonzero_ratio(workdir, monkeypatch, capsys, ratios):
    def must_not_run(*args, **kwargs):
        raise AssertionError("fitted before the ratios were checked")

    monkeypatch.setattr(cli.bb, "fit_linear_backbone", must_not_run)
    argv = ["contaminate", "--data", str(workdir / "toy.csv"), *COMMON, "--ratios", ratios,
            "--out-dir", str(workdir / "run_bad_ratios")]
    _expect_configuration_error(argv, "ratios", capsys)
    assert not (workdir / "run_bad_ratios").exists()


@pytest.mark.parametrize("ratios", ["0,0.1,0.1", "0,0.1,0.1000001", "0,-0,0.1"])
@pytest.mark.parametrize("command, extra", [
    ("contaminate", []),
    ("sparse-anchor", ["--support", "4", "--eval", "5:8"]),
])
def test_repeated_ratios_exit_2_before_any_fit(workdir, monkeypatch, capsys, command, extra,
                                               ratios):
    # a repeat would run twice; 0.1 and 0.1000001 both write metrics_ratio_0.1.csv
    def must_not_run(*args, **kwargs):
        raise AssertionError("prepared a run before the ratios were checked")

    monkeypatch.setattr(cli, "_prepare", must_not_run)
    argv = [command, "--data", str(workdir / "toy.csv"), *COMMON, *extra, "--ratios", ratios,
            "--out-dir", str(workdir / "run_repeated_ratios")]
    _expect_configuration_error(argv, "ratios", capsys)
    assert not (workdir / "run_repeated_ratios").exists()


def test_a_setting_numpy_cannot_allocate_exits_2(workdir, capsys):
    # K = 2**44 asks for rows of 2**48 bytes: past any 47-bit address space, so
    # numpy refuses the training-set array at once and nothing is allocated
    argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON,
            "--backbone", str(workdir / "backbone.params"), "--set", f"context_size={2**44}",
            "--out-dir", str(workdir / "run_unallocatable")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: Unable to allocate") and err.count("\n") == 1
    assert "array with shape" in err


@pytest.mark.parametrize("parameter, grid", [("memory_decay", "0.5,x"), ("prefix", "2,x")])
def test_sweep_rejects_a_bad_grid_before_fitting(workdir, monkeypatch, capsys, parameter, grid):
    def must_not_run(*args, **kwargs):
        raise AssertionError("fitted or trained before the grid was parsed")

    monkeypatch.setattr(cli.bb, "fit_linear_backbone", must_not_run)
    monkeypatch.setattr(cli, "train_decoder_for", must_not_run)
    argv = ["sweep", "--data", str(workdir / "toy.csv"), *COMMON, "--parameter", parameter,
            "--grid", grid, "--out-dir", str(workdir / "run_bad_grid")]
    _expect_configuration_error(argv, "grid", capsys)


def test_rollout_drops_a_row_with_an_infinite_cell(workdir):
    lines = (workdir / "toy.csv").read_text().splitlines()
    lines[850] = "inf," + lines[850].split(",", 1)[1]  # a row of the test split
    (workdir / "toy_inf.csv").write_text("\n".join(lines) + "\n")
    res = _run(
        ["rollout", "--data", "toy_inf.csv", *COMMON, "--backbone", "backbone.params",
         "--decoder", "decoder.params", "--out-dir", "run_inf"],
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    assert "toy_inf.csv:851: dropping row with missing values" in res.stderr


def test_importing_the_package_and_cli_leaves_scipy_signal_unloaded(tmp_path):
    # importing scipy.signal costs about a second, more than a CLI call's set-up
    code = "import smoothtta, smoothtta.cli, sys; print('scipy.signal' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(), capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize(
    "flag, value",
    [("channels", "0"), ("batch", "0"), ("reps", "0"), ("prefix-len", "-3"), ("seed", "-1"),
     ("horizons", "-3"), ("horizons", "96,1")],
)
def test_bench_rejects_a_count_below_one(tmp_path, monkeypatch, capsys, flag, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("benchmarked before the flags were checked")

    monkeypatch.setattr(cli, "bench_latency", must_not_run)
    argv = ["bench", "--horizons", "8", f"--{flag}", value, "--out-dir", str(tmp_path)]
    _expect_configuration_error(argv, flag, capsys)
    assert not (tmp_path / "bench").exists()


def test_fit_train_and_rollout_leave_scipy_unloaded(tmp_path):
    _make_csv(tmp_path / "toy.csv")
    code = f"""
import sys
from smoothtta import cli
common = ["--data", "toy.csv", *{COMMON!r}]
for argv in (
    ["fit-backbone", *common, "--out", "backbone.params"],
    ["train-decoder", *common, "--out", "decoder.params"],
    ["rollout", *common, "--backbone", "backbone.params", "--decoder", "decoder.params"],
):
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(), capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def _in_process(workdir, command, *extra, out="run_in_process"):
    """`command` through `cli.main` on toy.csv with the saved backbone and decoder."""
    return cli.main(
        [command, "--data", str(workdir / "toy.csv"), *COMMON,
         "--backbone", str(workdir / "backbone.params"),
         "--decoder", str(workdir / "decoder.params"),
         "--out-dir", str(workdir / out), *extra]
    )


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("rollout", ["--prefix=-3"], "prefix_length >= 0"),
        ("sweep", ["--parameter", "prefix", "--grid=-2,3"], "prefix_length >= 0"),
        ("rollout", ["--max-windows", "-1"], "max_windows must be >= 1"),
        ("rollout", ["--max-windows", "0"], "max_windows must be >= 1"),
        ("rollout", ["--set", "prefix_length=-4"], "prefix_length >= 0"),
        ("rollout", ["--seed", "-1"], "seed must be >= 0"),
        ("contaminate", ["--local-only", "--seed", "-1", "--ratios", "0,0.1"], "seed must be >= 0"),
    ],
)
def test_negative_prefix_and_window_cap_below_one_exit_2(workdir, capsys, command, extra, message):
    assert _in_process(workdir, command, *extra, out="run_rejected") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (workdir / "run_rejected").exists()


def test_prefix_zero_is_a_zero_shot_run(workdir):
    assert _in_process(workdir, "rollout", "--prefix", "0", out="run_prefix0") == 0
    lines = (workdir / "run_prefix0/rollout/metrics.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert rows and all(row["prefix_length"] == "0" for row in rows)
    assert all(row["mse_corrected"] == row["mse_base"] for row in rows)


def test_sparse_boundary_manifest_records_the_fixed_prefix(workdir):
    extra = ["--k", "2", "--near", "2:4", "--far", "6:8"]
    assert _in_process(workdir, "sparse-boundary", *extra, out="run_sb_manifest") == 0
    manifest = json.loads((workdir / "run_sb_manifest/sparse-boundary/manifest.json").read_text())
    assert manifest["config"]["prefix_mode"] == "fixed"
    assert manifest["config"]["prefix_length"] == 2


def _container(path, head, payload: bytes) -> None:
    """A parameter file with the right magic around an arbitrary JSON header."""
    head_bytes = json.dumps(head).encode("utf-8")
    path.write_bytes(paramio.MAGIC + len(head_bytes).to_bytes(8, "little") + head_bytes + payload)


def _split_container(path) -> tuple[dict, bytes]:
    raw = path.read_bytes()
    end = 12 + int.from_bytes(raw[4:12], "little")
    return json.loads(raw[12:end]), raw[end:]


def _backbone_header_case(workdir, case):
    head, payload = _split_container(workdir / "backbone.params")
    if case == "list":
        head = list(head)
    elif case == "no_blocks":
        del head["_blocks"]
    elif case == "no_lookback":
        del head["lookback"]
    elif case == "block_without_shape":
        del head["_blocks"][0]["shape"]
    elif case == "lookback_disagrees_with_weights":
        head["lookback"] = 12  # the weight block still holds (2, 16, 8)
    path = workdir / f"backbone_{case}.params"
    _container(path, head, payload)
    return path


@pytest.mark.parametrize(
    "case",
    ["list", "no_blocks", "no_lookback", "block_without_shape", "lookback_disagrees_with_weights"],
)
def test_a_malformed_backbone_file_exits_2(workdir, capsys, case):
    path = _backbone_header_case(workdir, case)
    argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON, "--backbone", str(path),
            "--decoder", str(workdir / "decoder.params"), "--out-dir", str(workdir / "run_bad")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: bad backbone file")


def test_a_backbone_fitted_on_other_channels_exits_2(workdir, capsys):
    _make_csv(workdir / "toy3.csv", d=3)
    argv = ["rollout", "--data", str(workdir / "toy3.csv"), *COMMON,
            "--backbone", str(workdir / "backbone.params"),
            "--decoder", str(workdir / "decoder.params"), "--out-dir", str(workdir / "run_d3")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: backbone was fitted for (L, H, d) = (16, 8, 2)")


@pytest.mark.parametrize(
    "extra, asked",
    [(["--horizon", "12"], "(12, 8)"), (["--set", "context_size=4"], "(8, 4)")],
)
def test_a_decoder_trained_for_another_run_exits_2(workdir, monkeypatch, capsys, extra, asked):
    def must_not_run(*args, **kwargs):
        raise AssertionError("trained a decoder although one was given")

    monkeypatch.setattr(cli, "train_decoder_for", must_not_run)
    argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON, *extra,
            "--decoder", str(workdir / "decoder.params"), "--out-dir", str(workdir / "run_dec")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: decoder was trained for (H, context_size) = (8, 8)")
    assert err.rstrip().endswith(asked)


# JSON values of every type, nested a little, for fuzzed headers
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# values no header field accepts: not a finite number, an integer or the expected string
_ILL_TYPED = (
    st.none() | st.booleans() | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
_REQUIRED = {
    "backbone": ("_blocks", "_format_version", "kind", "lookback", "horizon", "channels"),
    "decoder": ("_blocks", "_format_version", "kind", "horizon", "context_size", "hidden",
                "output_scale", "seed", "feature_layout"),
}


@st.composite
def _fuzzed_container(draw, head: dict, payload: bytes, required) -> bytes:
    """The bytes of a parameter file that one fuzzed change has made invalid."""
    head = json.loads(json.dumps(head))
    change = draw(st.sampled_from(["replace", "drop", "retype", "shape", "truncate"]))
    if change == "replace":
        head = draw(_JSON)
    elif change == "drop":
        del head[draw(st.sampled_from(required))]
    elif change == "retype":
        key = draw(st.sampled_from(required))
        head[key] = draw(_ILL_TYPED.filter(lambda v: v != head[key]))
    elif change == "shape":
        entry = draw(st.sampled_from(head["_blocks"]))
        shapes = st.lists(st.integers(-2, 40), max_size=3) | _ILL_TYPED
        entry["shape"] = draw(shapes.filter(lambda s: s != entry["shape"]))
    head_bytes = json.dumps(head).encode("utf-8")
    raw = paramio.MAGIC + len(head_bytes).to_bytes(8, "little") + head_bytes + payload
    if change == "truncate":
        raw = raw[: draw(st.integers(4, len(raw) - 1))]
    return raw


@pytest.mark.parametrize("artifact", ["backbone", "decoder"])
def test_a_fuzzed_parameter_file_exits_2_or_3(workdir, capsys, artifact):
    head, payload = _split_container(workdir / f"{artifact}.params")
    path = workdir / f"fuzzed_{artifact}.params"
    given_files = {"backbone": workdir / "backbone.params", "decoder": workdir / "decoder.params"}
    given_files[artifact] = path

    @settings(max_examples=40, deadline=None)
    @given(raw=_fuzzed_container(head, payload, _REQUIRED[artifact]))
    def property_(raw):
        path.write_bytes(raw)
        argv = ["rollout", "--data", str(workdir / "toy.csv"), *COMMON,
                "--backbone", str(given_files["backbone"]),
                "--decoder", str(given_files["decoder"]), "--out-dir", str(workdir / "run_fuzz")]
        assert cli.main(argv) in (2, 3)
        capsys.readouterr()

    property_()
    assert not (workdir / "run_fuzz").exists()
