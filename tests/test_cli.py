import argparse
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpsynth import FormatError, RngSeed, generate_toy_glyphs
from dpsynth import cli
from dpsynth.cli import main
from dpsynth.diffusion import NoiseSchedule, ParamManifest, init_params, load_checkpoint, save_checkpoint
from dpsynth.data_io import load_container, save_container


def parse_kv(output: str) -> dict:
    pairs = {}
    for line in output.strip().split("\n"):
        if "=" in line:
            k, v = line.split("=", 1)
            pairs[k] = v
    return pairs


@pytest.fixture
def toy_container(tmp_path):
    path = tmp_path / "toy.dpc"
    rc = main(["make-toy", "--out", str(path), "--per-class", "30", "--seed", "3"])
    assert rc == 0
    return path


class TestMakeToyAndQuery:
    def test_make_toy(self, toy_container, capsys):
        loaded = load_container(toy_container)
        assert loaded.count == 300
        assert loaded.kind == "sensitive"

    def test_query_central_and_events(self, toy_container, tmp_path, capsys):
        out = tmp_path / "central.dpc"
        events = tmp_path / "events.json"
        rc = main(
            [
                "query-central",
                "--data", str(toy_container),
                "--kind", "mean",
                "--count", "10",
                "--sampling-rate", "0.2",
                "--noise-scale", "5.0",
                "--per-label",
                "--out", str(out),
                "--events-out", str(events),
            ]
        )
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["count"] == "10"
        recorded = json.load(open(events))
        assert len(recorded) == 10
        assert all(ev["kind"] == "mean_query" for ev in recorded)
        central = load_container(out)
        assert central.kind == "central"
        assert central.provenance["config"]["noise_scale"] == 5.0

    def test_zero_noise_query_is_refused_and_writes_nothing(self, toy_container, tmp_path, capsys):
        out, events = tmp_path / "central.dpc", tmp_path / "events.json"
        rc = main(
            [
                "query-central",
                "--data", str(toy_container),
                "--kind", "mean",
                "--count", "1",
                "--sampling-rate", "1.0",
                "--noise-scale", "0",
                "--out", str(out),
                "--events-out", str(events),
            ]
        )
        assert rc == 1
        assert "noise_scale" in capsys.readouterr().err
        assert not out.exists() and not events.exists()


def _drop_num_params(data: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen])
    del header["num_params"]
    blob = json.dumps(header, sort_keys=True).encode()
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen :]


# (how the file is damaged, the offset the reader must name)
MALFORMED_CHECKPOINTS = {
    "short": (lambda d: d[:10], lambda d: 8),
    "undecodable_header": (lambda d: d[:12] + b"x" + d[13:], lambda d: 12),
    "no_num_params": (_drop_num_params, lambda d: 12),
    "trailing_bytes": (lambda d: d + b"\0", lambda d: len(d)),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_a_user_error(tmp_path, capsys, damage):
    corrupt, offset = MALFORMED_CHECKPOINTS[damage]
    ck = tmp_path / "model.ckpt"
    save_checkpoint(ck, init_params(ParamManifest(8, 8, 1, hidden1=16, hidden2=16, time_dim=4), RngSeed(1)),
                    NoiseSchedule.linear(10))
    data = ck.read_bytes()
    ck.write_bytes(corrupt(data))
    with pytest.raises(FormatError) as exc:
        load_checkpoint(ck)
    assert exc.value.offset == offset(data)
    out = tmp_path / "samples.dpc"
    assert main(["sample", "--checkpoint", str(ck), "--count", "4", "--out", str(out)]) == 1
    assert f"byte offset {offset(data)}" in capsys.readouterr().err
    assert not out.exists()


class TestAccount:
    def test_account_spec(self, tmp_path, capsys):
        spec = {
            "target_epsilon": 2.0,
            "delta": 1e-5,
            "events": [
                {"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": 50},
            ],
            "fine_tune": {"steps": 300, "sampling_rate": 0.1},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["account", "--spec", str(path)])
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["epsilon"]) < 2.0
        sigma = float(kv["sigma_f"])
        total = float(kv["epsilon_total"])
        assert 0.999 * 2.0 <= total <= 2.0
        assert sigma > 0

    def test_budget_exhausted_is_user_error(self, tmp_path, capsys):
        spec = {
            "target_epsilon": 0.1,
            "delta": 1e-5,
            "events": [{"kind": "mean_query", "q": 0.5, "sigma": 0.5, "repetitions": 100}],
            "fine_tune": {"steps": 10, "sampling_rate": 0.1},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["account", "--spec", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -5])
    def test_steps_below_one_are_refused_before_any_output(self, tmp_path, capsys, steps):
        # Zero steps used to print sigma_f and then fail; negative steps printed the curve first.
        spec = {
            "target_epsilon": 2.0,
            "delta": 1e-5,
            "events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": 50}],
            "fine_tune": {"steps": steps, "sampling_rate": 0.1},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["account", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fine_tune.steps must be a positive integer" in captured.err

    def test_noise_scale_too_small_to_price_is_a_user_error(self, tmp_path, capsys):
        # It used to end with exit 2: "ValueError: Maximum allowed size exceeded".
        spec = {"target_epsilon": 2.0, "delta": 1e-5, "events": [{"kind": "mean_query", "q": 0.5, "sigma": 1e-200}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["account", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error: noise scale 1e-200 at sampling rate 0.5 is too small to price" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key,spec",
        [
            ("repetitions", {"events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": 2**1100}]}),
            ("steps", {"events": [], "fine_tune": {"steps": 10**400, "sampling_rate": 0.1}}),
        ],
        ids=["repetitions", "steps"],
    )
    def test_counts_float64_cannot_hold_are_user_errors(self, tmp_path, capsys, key, spec):
        # Both used to end with exit 2: "OverflowError: int too large to convert to float".
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"target_epsilon": 2.0, "delta": 1e-5, **spec}))
        assert main(["account", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "2**53" in err and "Traceback" not in err

    def test_total_never_reads_above_a_target_it_meets(self, tmp_path, capsys):
        # epsilon_total is 2.27826536635 here, just under the target; to 9
        # significant digits it read 2.27826537, above it.
        spec = {
            "target_epsilon": 2.278265366608012,
            "delta": 1e-05,
            "events": [
                {"kind": "mean_query", "q": 0.011467395227793302, "repetitions": 16, "sigma": 8.212513982842893},
                {"kind": "mode_query", "q": 0.0969918595200064, "repetitions": 19, "sigma": 12.677236853130887},
                {"kind": "mean_query", "q": 0.050629234873985046, "repetitions": 5, "sigma": 19.46872389008707},
            ],
            "fine_tune": {"sampling_rate": 0.012882983577926357, "steps": 2973},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["account", "--spec", str(path), "--no-curve"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert 0.999 * spec["target_epsilon"] <= float(kv["epsilon_total"]) <= spec["target_epsilon"]

    def test_curve_printed_by_default(self, tmp_path, capsys):
        spec = {
            "target_epsilon": 2.0,
            "delta": 1e-5,
            "events": [{"kind": "dpsgd_step", "q": 0.1, "sigma": 2.0, "repetitions": 10}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["account", "--spec", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma[2.0]=" in out
        rc = main(["account", "--spec", str(path), "--no-curve"])
        assert rc == 0
        assert "gamma[" not in capsys.readouterr().out


MALFORMED_SPECS = {
    "truncated": '{"events": [',
    "no_target": '{"delta": 1e-05, "events": []}',
    "text_rate": '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": "x", "sigma": 5.0}]}',
    "numeric_text_rate": '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": "0.1", "sigma": 5.0}]}',
    "bool_sigma": '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": true}]}',
    "fractional_repetitions": (
        '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": 2.9}]}'
    ),
    "bool_repetitions": (
        '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": true}]}'
    ),
    "numeric_partition": (
        '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "partition": 3}]}'
    ),
    "fractional_steps": '{"target_epsilon": 2.0, "delta": 1e-05, "fine_tune": {"steps": 300.5, "sampling_rate": 0.1}}',
    "text_target": '{"target_epsilon": "2.0", "delta": 1e-05, "events": []}',
    "bool_target": '{"target_epsilon": true, "delta": 1e-05, "events": []}',
    "text_delta": '{"target_epsilon": 2.0, "delta": "1e-05", "events": []}',
    "bool_delta": '{"target_epsilon": 2.0, "delta": false, "events": []}',
    "text_sampling_rate": '{"target_epsilon": 2.0, "delta": 1e-05, "fine_tune": {"steps": 100, "sampling_rate": "0.1"}}',
    "bool_sampling_rate": '{"target_epsilon": 2.0, "delta": 1e-05, "fine_tune": {"steps": 100, "sampling_rate": true}}',
    "fine_tune_not_an_object": '{"target_epsilon": 2.0, "delta": 1e-05, "fine_tune": [100, 0.1]}',
    "nan_target": '{"target_epsilon": NaN, "delta": 1e-05, "fine_tune": {"steps": 100, "sampling_rate": 0.02}}',
    "infinite_target": '{"target_epsilon": Infinity, "delta": 1e-05, "fine_tune": {"steps": 100, "sampling_rate": 0.02}}',
    "nan_sigma": '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": NaN}]}',
    "infinite_sigma": '{"target_epsilon": 2.0, "delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.1, "sigma": Infinity}]}',
    "not_an_object": "[1, 2]",
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_a_user_error(tmp_path, capsys, damage):
    path = tmp_path / "spec.json"
    path.write_text(MALFORMED_SPECS[damage])
    assert main(["account", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"malformed privacy spec {path}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


class TestIngestRoundTrip:
    def test_idx_ingest(self, tmp_path, capsys):
        import struct
        from dpsynth.data_io import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC

        images = tmp_path / "im.idx"
        labels = tmp_path / "lb.idx"
        images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + bytes([0, 128, 255, 3, 9, 0, 1, 2]))
        labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes([0, 1]))
        out = tmp_path / "ds.dpc"
        rc = main(["ingest", "--images", str(images), "--labels", str(labels), "--out", str(out)])
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["count"] == "2"
        assert kv["num_classes"] == "2"

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        rc = main(["ingest", "--images", "nope.idx", "--labels", "nope2.idx", "--out", str(tmp_path / "o.dpc")])
        assert rc == 1


class TestEndToEndCli:
    def test_run_all_then_sample_then_evaluate(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "output_dir": str(tmp_path / "run"),
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "mean", "count": 10, "sampling_rate": 0.2, "noise_scale": 5.0},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 10.0, "delta": 1e-5},
            "warmup": {"iterations": 5, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02, "checkpoint_every": 2},
            "eval": {"n_synthetic": 30, "loss_draws": 100, "probe": False},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run-all", "--config", str(cfg_path)])
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["epsilon_spent"]) <= 10.0

        samples = tmp_path / "more.dpc"
        rc = main(
            ["sample", "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
             "--count", "40", "--conditional", "--out", str(samples), "--seed", "9"]
        )
        assert rc == 0
        rc = main(
            ["evaluate", "--synthetic", str(samples), "--real", str(toy_container),
             "--checkpoint", str(tmp_path / "run" / "final.ckpt"), "--loss-draws", "200"]
        )
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert "frechet" in kv and "acc" in kv and "loss_p" in kv

    def test_evaluate_refuses_out_of_range_real_pixels(self, tmp_path, toy_container, capsys):
        # The probe reads the real data unclipped, so it fails closed like the loss.
        real = load_container(toy_container)
        bad = tmp_path / "bad_real.dpc"
        pixels = real.pixels.copy()
        pixels[7, 3] = 1.5
        save_container(bad, "sensitive", pixels, (8, 8, 1), labels=real.labels)
        rc = main(["evaluate", "--synthetic", str(toy_container), "--real", str(bad)])
        assert rc == 1
        assert "image 7 has values outside [0, 1]" in capsys.readouterr().err
        assert main(["evaluate", "--synthetic", str(toy_container), "--real", str(toy_container)]) == 0

    def test_evaluate_probe_error_wins_over_loss_error(self, tmp_path, toy_container, capsys):
        # The probe fails (single-class synthetic set) and the checkpoint is missing:
        # the probe's error is reported and nothing is printed after n_synth.
        real = load_container(toy_container)
        single = tmp_path / "single.dpc"
        save_container(single, "synthetic", real.pixels[:40], (8, 8, 1), labels=np.zeros(40, dtype=np.int64))
        rc = main(["evaluate", "--synthetic", str(single), "--real", str(toy_container),
                   "--checkpoint", str(tmp_path / "missing.ckpt")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert [line.split("=")[0] for line in out.splitlines()] == ["frechet", "n_real", "n_synth"]
        assert "single-class" in err and "missing.ckpt" not in err

    def test_evaluate_loss_error_follows_probe_accuracy(self, tmp_path, toy_container, capsys):
        # The probe passes and the checkpoint is corrupt: acc is printed, then the loss error.
        ck = tmp_path / "model.ckpt"
        save_checkpoint(ck, init_params(ParamManifest(8, 8, 1, hidden1=16, hidden2=16, time_dim=4), RngSeed(1)),
                        NoiseSchedule.linear(10))
        data = bytearray(ck.read_bytes())
        data[-5] ^= 0xFF
        ck.write_bytes(bytes(data))
        rc = main(["evaluate", "--synthetic", str(toy_container), "--real", str(toy_container),
                   "--checkpoint", str(ck)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert [line.split("=")[0] for line in out.splitlines()] == ["frechet", "n_real", "n_synth", "acc"]
        assert "checksum" in err

    def test_evaluate_holds_few_copies_of_the_real_set(self, tmp_path, capsys):
        # 3,000 real 28x28 images: the pixels once, the PCA fit's centred
        # copy, and the probe's and the loss's blocks, not whole-set copies.
        real, synth, ck = tmp_path / "real.dpc", tmp_path / "synth.dpc", tmp_path / "model.ckpt"
        ds = generate_toy_glyphs(300, 10, (28, 28, 1), RngSeed(3))
        save_container(real, "sensitive", ds.pixels, (28, 28, 1), ds.labels)
        s = generate_toy_glyphs(40, 10, (28, 28, 1), RngSeed(4))
        save_container(synth, "synthetic", s.pixels, (28, 28, 1), s.labels)
        save_checkpoint(ck, init_params(ParamManifest(28, 28, 1), RngSeed(5)), NoiseSchedule.linear(50))
        del ds, s
        tracemalloc.start()
        try:
            rc = main(["evaluate", "--synthetic", str(synth), "--real", str(real), "--feature", "pca",
                       "--checkpoint", str(ck)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert set(parse_kv(capsys.readouterr().out)) == {"frechet", "n_real", "n_synth", "acc", "loss_p"}
        assert peak < 4.5 * real.stat().st_size

    def test_bad_config_is_user_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"central": {"kind": "median"}}))
        rc = main(["run-all", "--config", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stagewise_warmup_finetune(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "output_dir": str(tmp_path / "stage"),
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "mode", "count": 6, "sampling_rate": 0.2, "noise_scale": 5.0, "bins": 2},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 8.0, "delta": 1e-5},
            "warmup": {"iterations": 4, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02},
            "eval": {"n_synthetic": 20, "loss_draws": 100, "probe": False},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        ck = tmp_path / "warm.ckpt"
        ledger = tmp_path / "ledger.json"
        rc = main(["warmup", "--config", str(cfg_path), "--out", str(ck), "--ledger-out", str(ledger)])
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["central_images"] == "6"
        final = tmp_path / "final.ckpt"
        spent = tmp_path / "spent.json"
        rc = main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--ledger", str(ledger), "--out", str(final),
                   "--ledger-out", str(spent)])
        assert rc == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["epsilon_spent"]) <= 8.0
        assert kv["ledger"] == str(spent)

    def test_stage_commands_reproduce_run_all(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "output_dir": str(tmp_path / "run"),
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "mean", "count": 6, "sampling_rate": 0.2, "noise_scale": 5.0, "per_label": True},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 8.0, "delta": 1e-5},
            "warmup": {"iterations": 4, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02,
                         "checkpoint_every": 2},
            "eval": {"n_synthetic": 20, "loss_draws": 100, "probe": False},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg_path)]) == 0
        ck, ledger, final = tmp_path / "warm.ckpt", tmp_path / "ledger.json", tmp_path / "final.ckpt"
        spent = tmp_path / "spent.json"
        assert main(["warmup", "--config", str(cfg_path), "--out", str(ck), "--ledger-out", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--ledger", str(ledger),
                     "--out", str(final), "--ledger-out", str(spent)]) == 0
        kv = parse_kv(capsys.readouterr().out)

        assert ck.read_bytes() == (run / "warmup.ckpt").read_bytes()
        assert final.read_bytes() == (run / "final.ckpt").read_bytes()
        assert spent.read_bytes() == (run / "ledger.json").read_bytes()
        stage1_events = json.loads(ledger.read_text())["events"]
        run_events = json.loads((run / "ledger.json").read_text())["events"]
        assert len(stage1_events) == 6 and stage1_events == run_events[: len(stage1_events)]
        metrics = json.loads((run / "metrics.json").read_text())
        assert kv["sigma_f"] == f"{metrics['sigma_f']:.9g}"
        assert kv["epsilon_spent"] == f"{metrics['epsilon_spent']:.9g}"

    def test_finetune_refuses_a_checkpoint_the_config_did_not_build(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "none"},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 8.0, "delta": 1e-5},
            "warmup": {"iterations": 4, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        ck, ledger = tmp_path / "warm.ckpt", tmp_path / "ledger.json"
        assert main(["warmup", "--config", str(cfg_path), "--out", str(ck), "--ledger-out", str(ledger)]) == 0
        capsys.readouterr()
        final, spent = tmp_path / "final.ckpt", tmp_path / "spent.json"
        for model, named in (({"diffusion_steps": 12}, "12 steps"), ({"hidden1": 20}, "'hidden1': 20")):
            cfg_path.write_text(json.dumps(dict(config, model=dict(config["model"], **model))))
            rc = main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--ledger", str(ledger),
                       "--out", str(final), "--ledger-out", str(spent)])
            err = capsys.readouterr().err
            assert rc == 1
            assert str(ck) in err and named in err
            assert not final.exists() and not spent.exists()

    def test_malformed_ledger_is_a_user_error(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "mean", "count": 6, "sampling_rate": 0.2, "noise_scale": 5.0},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 8.0, "delta": 1e-5},
            "warmup": {"iterations": 4, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        ck, ledger = tmp_path / "warm.ckpt", tmp_path / "ledger.json"
        assert main(["warmup", "--config", str(cfg_path), "--out", str(ck), "--ledger-out", str(ledger)]) == 0
        capsys.readouterr()
        text = ledger.read_text()
        final, spent = tmp_path / "final.ckpt", tmp_path / "spent.json"
        damages = (
            text[: text.index("[") + 1],
            '{"sigma_f": null}',
            text.replace('"q": 0.2', '"q": "x"'),
            text.replace('"q": 0.2', '"q": "0.2"'),
            text.replace('"repetitions": 1', '"repetitions": 2.9'),
            text.replace('"repetitions": 1', '"repetitions": true'),
            text.replace('"partition": null', '"partition": 3'),
            text.replace('"sigma": 5.0', '"sigma": NaN'),
        )
        assert all(damaged != text for damaged in damages)
        for damaged in damages:
            ledger.write_text(damaged)
            rc = main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--ledger", str(ledger),
                       "--out", str(final), "--ledger-out", str(spent)])
            err = capsys.readouterr().err
            assert rc == 1
            assert f"malformed ledger {ledger}" in err and "Traceback" not in err
            assert not final.exists() and not spent.exists()

    def test_finetune_without_ledger_fails_closed(self, tmp_path, toy_container, capsys):
        config = {
            "seed": 4,
            "dataset": {"source": "container", "path": str(toy_container)},
            "central": {"kind": "mean", "count": 6, "sampling_rate": 0.2, "noise_scale": 5.0},
            "model": {"hidden1": 16, "hidden2": 16, "time_dim": 4, "label_dim": 4, "diffusion_steps": 10},
            "privacy": {"epsilon": 8.0, "delta": 1e-5},
            "warmup": {"iterations": 4, "batch_size": 8, "learning_rate": 0.01},
            "finetune": {"steps": 3, "sampling_rate": 0.3, "clip_bound": 0.5, "learning_rate": 0.02},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        ck, ledger = tmp_path / "warm.ckpt", tmp_path / "ledger.json"
        assert main(["warmup", "--config", str(cfg_path), "--out", str(ck), "--ledger-out", str(ledger)]) == 0
        capsys.readouterr()
        final, spent = tmp_path / "final.ckpt", tmp_path / "spent.json"
        rc = main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--out", str(final),
                   "--ledger-out", str(spent)])
        assert rc == 1
        assert "--ledger" in capsys.readouterr().err
        assert not final.exists() and not spent.exists()

        # Without central queries there is nothing to lose, so no ledger is needed.
        cfg_path.write_text(json.dumps(dict(config, central={"kind": "none"})))
        rc = main(["finetune", "--config", str(cfg_path), "--checkpoint", str(ck), "--out", str(final),
                   "--ledger-out", str(spent)])
        assert rc == 0
        assert final.exists()
        assert [ev["kind"] for ev in json.loads(spent.read_text())["events"]] == ["dpsgd_step"] * 3


def test_subcommand_docs_match_the_parser():
    registered = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    sentence = cli.__doc__.split("Subcommands", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", sentence) == list(registered)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    assert sorted(set(re.findall(r"^dpsynth ([a-z-]+)", block, re.M))) == sorted(registered)


def test_parser_is_built_once_and_a_rebound_command_runs(monkeypatch, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"target_epsilon": 2.0, "delta": 1e-5}))
    assert main(["account", "--spec", str(spec), "--no-curve"]) == 0
    # A tracer or a test rebinds the module's command after the parser exists.
    calls = []
    monkeypatch.setattr(cli, "cmd_account", lambda args: calls.append(args.spec) or 0)
    assert main(["account", "--spec", str(spec)]) == 0
    assert calls == [str(spec)]
