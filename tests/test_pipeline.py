import dataclasses
import json
import os

import numpy as np
import pytest

from dpsynth import BudgetExhaustedError, PrivacySpec, RngSeed
from dpsynth.accounting import calibrate_sigma_f
from dpsynth.cli import main
from dpsynth.diffusion import init_params, load_checkpoint
from dpsynth.pipeline import (
    CentralConfig,
    ConfigError,
    DatasetConfig,
    EvalConfig,
    FinetuneConfig,
    ModelConfig,
    PipelineConfig,
    PrivacyConfig,
    RunState,
    WarmupConfig,
    build_manifest,
    build_schedule,
    load_dataset,
    query_central_set,
    run_all,
    run_stage1,
    run_stage2,
)


def tiny_config(tmp_path, name, **overrides) -> PipelineConfig:
    base = dict(
        seed=5,
        output_dir=str(tmp_path / name),
        dataset=DatasetConfig(source="toy", n_per_class=30, num_classes=10, height=8, width=8),
        central=CentralConfig(kind="mean", count=10, sampling_rate=0.2, noise_scale=5.0, per_label=True),
        model=ModelConfig(hidden1=16, hidden2=16, time_dim=4, label_dim=4, diffusion_steps=10),
        privacy=PrivacyConfig(epsilon=10.0, delta=1e-5),
        warmup=WarmupConfig(iterations=5, batch_size=8, learning_rate=0.01),
        finetune=FinetuneConfig(steps=4, sampling_rate=0.2, clip_bound=0.5, learning_rate=0.02, checkpoint_every=2),
        eval=EvalConfig(n_synthetic=40, loss_draws=200, probe=False),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, "a")
        raw = json.loads(cfg.to_json())
        again = PipelineConfig.from_dict(raw)
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level key"):
            PipelineConfig.from_dict({"sed": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            PipelineConfig.from_dict({"central": {"kindd": "mean"}})

    def test_semantic_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="central.kind"):
            PipelineConfig.from_dict({"central": {"kind": "median"}})
        cfg = tiny_config(tmp_path, "c", dataset=DatasetConfig(source="idx"))
        with pytest.raises(ConfigError, match="images_path"):
            cfg.validate()

    def test_from_json_file(self, tmp_path):
        cfg = tiny_config(tmp_path, "d")
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert PipelineConfig.from_json_file(path) == cfg


# (section, key, a value that must be refused before any query is charged)
BAD_VALUES = [
    ("warmup", "batch_size", 0),
    ("warmup", "augment_k", 0),
    ("warmup", "noise_multiplicity", 0),
    ("finetune", "noise_multiplicity", 0),
    ("finetune", "clip_bound", 0.0),
    ("finetune", "learning_rate", -0.01),
    ("finetune", "checkpoint_every", -1),
    ("eval", "loss_draws", 0),
    ("central", "noise_scale", 0.0),
    ("central", "noise_scale", -1.0),
    ("central", "count", 0),
    ("central", "bins", 1),
    ("central", "norm_bound", 0.0),
    ("central", "sampling_rate", 1.5),
    ("eval", "feature_kind", "inception"),
    ("eval", "feature_dim", 0),
    ("eval", "feature_dim", 65),
]


def _bad_value_id(section, key, value) -> str:
    """`section.key`, with the value appended where a key is tried more than once."""
    repeated = sum((s, k) == (section, key) for s, k, _ in BAD_VALUES) > 1
    return f"{section}.{key}={value}" if repeated else f"{section}.{key}"


@pytest.mark.parametrize("section,key,value", BAD_VALUES, ids=[_bad_value_id(*case) for case in BAD_VALUES])
def test_bad_value_is_refused_before_the_run_starts(tmp_path, capsys, section, key, value):
    raw = json.loads(tiny_config(tmp_path, "bad").to_json())
    raw[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        PipelineConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run-all", "--config", str(cfg_path)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


# (section, key, a value of the wrong JSON type)
WRONG_TYPES = [
    ("warmup", "batch_size", "8"),
    ("finetune", "learning_rate", True),
    ("central", "noise_scale", [5.0]),
    ("eval", "probe", 1),
    ("warmup", "augment_names", "sharpen"),
]


@pytest.mark.parametrize("section,key,value", WRONG_TYPES, ids=[f"{s}.{k}" for s, k, _ in WRONG_TYPES])
def test_wrong_json_type_is_a_config_error(tmp_path, capsys, section, key, value):
    raw = json.loads(tiny_config(tmp_path, "typed").to_json())
    raw[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        PipelineConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run-all", "--config", str(cfg_path)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "typed").exists()


# Eval settings that only the dataset can refuse: (channels, feature_kind, feature_dim)
DATA_BOUND_EVAL = [(3, "downsample", 2), (1, "pca", 40)]


@pytest.mark.parametrize("channels,kind,dim", DATA_BOUND_EVAL, ids=[k for _, k, _ in DATA_BOUND_EVAL])
def test_eval_setting_the_data_cannot_meet_is_refused_before_any_query(tmp_path, capsys, channels, kind, dim):
    # 4 classes of 10: 40 images, so PCA cannot fit 40 dims; 3 channels need 3 downsample dims.
    cfg = tiny_config(
        tmp_path,
        "unfit",
        dataset=DatasetConfig(source="toy", n_per_class=10, num_classes=4, height=8, width=8, channels=channels),
        eval=EvalConfig(n_synthetic=40, loss_draws=200, probe=False, feature_kind=kind, feature_dim=dim),
    )
    cfg.validate()  # the config alone is valid
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["run-all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "eval.feature_kind" in err and "eval.feature_dim" in err
    out = tmp_path / "unfit"
    assert not (out / "central.dpc").exists() and not (out / "warmup.ckpt").exists()
    assert not out.exists()


# Augmentation settings no bag can be built from: id -> (warmup key, value)
BAD_AUGMENTATION = {
    "cutout_above_one": ("augment_ranges", {"cutout": [1.5, 1.5]}),
    "cutout_below_zero": ("augment_ranges", {"cutout": [-0.1, 0.2]}),
    "scale_reaching_zero": ("augment_ranges", {"scale": [0, 0]}),
    "reversed_range": ("augment_ranges", {"rotate": [5.0, -5.0]}),
    "unknown_range_name": ("augment_ranges", {"mixup": [0.0, 1.0]}),
    "one_bound": ("augment_ranges", {"rotate": [1.0]}),
    "infinite_brightness": ("augment_ranges", {"brightness": [0, float("inf")]}),
    "infinite_rotate": ("augment_ranges", {"rotate": [float("-inf"), float("inf")]}),
    "unknown_name": ("augment_names", ["mixup"]),
}


@pytest.mark.parametrize("key,value", BAD_AUGMENTATION.values(), ids=BAD_AUGMENTATION.keys())
def test_bad_augmentation_is_refused_before_any_query(tmp_path, capsys, key, value):
    cfg = tiny_config(
        tmp_path, "augment", dataset=DatasetConfig(source="toy", n_per_class=10, num_classes=4, height=8, width=8)
    )
    raw = json.loads(cfg.to_json())
    raw["warmup"][key] = value
    with pytest.raises(ConfigError, match=f"warmup.{key}"):
        PipelineConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run-all", "--config", str(cfg_path)]) == 1
    assert f"warmup.{key}" in capsys.readouterr().err
    out = tmp_path / "augment"
    assert not (out / "config.json").exists() and not (out / "central.dpc").exists()
    assert not list(tmp_path.rglob("*.ckpt"))


def test_int_is_accepted_where_a_float_is_expected(tmp_path):
    raw = json.loads(tiny_config(tmp_path, "ints").to_json())
    raw["central"]["noise_scale"] = 5
    raw["finetune"]["clip_bound"] = 1
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.central.noise_scale == 5.0 and cfg.finetune.clip_bound == 1.0


def test_wrong_top_level_type_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be int"):
        PipelineConfig.from_dict({"seed": 1.5})


class TestStage1:
    def test_query_central_takes_every_option_from_the_config(self, tmp_path):
        ds = load_dataset(tiny_config(tmp_path, "q").dataset, RngSeed(1))
        mean = query_central_set(ds, CentralConfig(kind="mean", count=4, per_label=False), RngSeed(2))
        assert mean.config["norm_bound"] == 8.0  # sqrt(8 * 8 * 1)
        assert mean.labels is None and len(mean) == 4
        mode = query_central_set(
            ds, CentralConfig(kind="mode", count=10, bins=3, per_label=True, parallel_accounting=True), RngSeed(2)
        )
        assert mode.config["bins"] == 3 and mode.kind == "mode"
        assert sorted(mode.labels) == list(range(10))
        assert {ev.partition for ev in mode.events} == {f"label={l}" for l in range(10)}

    def test_none_kind_is_baseline_path(self, tmp_path):
        cfg = tiny_config(tmp_path, "e", central=CentralConfig(kind="none"))
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(10.0, 1e-5)
        out, central = run_stage1(cfg, RunState(rng, ds, schedule, ledger, params))
        assert central is None
        assert ledger.events == []
        assert np.array_equal(out.params.vector, params.vector)

    def test_mean_queries_populate_ledger_and_labels(self, tmp_path):
        cfg = tiny_config(tmp_path, "f")
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(10.0, 1e-5)
        out, central = run_stage1(cfg, RunState(rng, ds, schedule, ledger, params))
        assert len(central) == 10
        assert sorted(set(central.labels)) == list(range(10))
        assert len(ledger.events) == 10
        assert not np.array_equal(out.params.vector, params.vector)  # warm-up moved the weights

    def test_warmup_consumes_no_extra_events(self, tmp_path):
        # post-processing guarantee: only the queries are charged
        cfg = tiny_config(tmp_path, "g", warmup=WarmupConfig(iterations=20, batch_size=8, learning_rate=0.01))
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(10.0, 1e-5)
        run_stage1(cfg, RunState(rng, ds, schedule, ledger, params))
        assert len(ledger.events) == cfg.central.count
        assert all(ev.kind == "mean_query" for ev in ledger.events)

    def test_query_overdraft_aborts(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            "h",
            central=CentralConfig(kind="mean", count=200, sampling_rate=0.9, noise_scale=0.4),
            privacy=PrivacyConfig(epsilon=0.5, delta=1e-5),
        )
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(0.5, 1e-5)
        with pytest.raises(BudgetExhaustedError):
            run_stage1(cfg, RunState(rng, ds, schedule, ledger, params))


class TestStage2:
    def test_no_residual_budget_fails_before_training(self, tmp_path):
        cfg = tiny_config(tmp_path, "i", privacy=PrivacyConfig(epsilon=0.2, delta=1e-5))
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(0.2, 1e-5)
        # greedy query stage eats the whole budget
        from dpsynth import MechanismEvent

        ledger.record(MechanismEvent("mean_query", q=0.5, sigma=0.7, repetitions=50))
        with pytest.raises(BudgetExhaustedError, match="query stage"):
            run_stage2(cfg, RunState(rng, ds, schedule, ledger, params))

    def test_tighter_budget_needs_more_noise(self):
        sig_eps10 = calibrate_sigma_f([], 200, 0.1, 10.0, 1e-5)
        sig_eps1 = calibrate_sigma_f([], 200, 0.1, 1.0, 1e-5)
        assert sig_eps1 > sig_eps10

    def test_ledger_records_every_step_and_stays_in_budget(self, tmp_path):
        cfg = tiny_config(tmp_path, "j")
        rng = RngSeed(cfg.seed)
        ds = load_dataset(cfg.dataset, rng.derive(0))
        schedule = build_schedule(cfg.model)
        params = init_params(build_manifest(cfg.model, ds.image_shape, ds.num_classes), rng.derive(10))
        ledger = PrivacySpec(10.0, 1e-5)
        out, central = run_stage1(cfg, RunState(rng, ds, schedule, ledger, params))
        n_query = len(ledger.events)
        final, sigma_f = run_stage2(cfg, out)
        assert len(ledger.events) == n_query + cfg.finetune.steps
        assert ledger.sigma_f == sigma_f
        eps = ledger.assert_within_budget()
        assert eps <= 10.0


class TestRunAll:
    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg = tiny_config(tmp_path, "k")
        out = run_all(cfg)
        names = sorted(os.listdir(out))
        for expected in (
            "central.dpc",
            "config.json",
            "curve.csv",
            "final.ckpt",
            "ledger.json",
            "metrics.json",
            "samples.dpc",
            "train_log.txt",
            "warmup.ckpt",
        ):
            assert expected in names
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert metrics["epsilon_spent"] <= metrics["epsilon_target"]
        ledger = json.load(open(os.path.join(out, "ledger.json")))
        assert len(ledger["events"]) == metrics["num_events"]

        # replaying the snapshot reproduces every artifact byte for byte
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "k2"))
        out2 = run_all(cfg2)
        for name in names:
            if name == "config.json":  # differs in output_dir only
                continue
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, f"artifact {name} not reproducible"

    def test_checkpoints_load_and_chain(self, tmp_path):
        cfg = tiny_config(tmp_path, "m")
        out = run_all(cfg)
        warm_params, sched = load_checkpoint(os.path.join(out, "warmup.ckpt"))
        final_params, _ = load_checkpoint(os.path.join(out, "final.ckpt"))
        assert warm_params.manifest == final_params.manifest
        assert not np.array_equal(warm_params.vector, final_params.vector)
        assert len(sched.betas) == cfg.model.diffusion_steps

    def test_train_log_structure_and_curve(self, tmp_path):
        cfg = tiny_config(tmp_path, "n")
        out = run_all(cfg)
        lines = open(os.path.join(out, "train_log.txt")).read().strip().split("\n")
        step_lines = [l for l in lines if l.startswith("step=")]
        ckpt_lines = [l for l in lines if l.startswith("checkpoint")]
        assert len(step_lines) == cfg.finetune.steps
        assert all("loss=" in l and "gnorm_p50=" in l for l in step_lines)
        assert all("epsilon=" in l for l in ckpt_lines)
        curve = open(os.path.join(out, "curve.csv")).read().strip().split("\n")
        assert curve[0] == "step,frechet"
        assert len(curve) == 1 + len(ckpt_lines)
