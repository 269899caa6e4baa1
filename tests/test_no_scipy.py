"""The package runs on numpy alone; its three scipy-free kernels are held to scipy.

scipy comes with the `test` extra only. Log-gamma (the accountant's binomial
layout) and the sharpen blur repeat scipy's arithmetic and must match it bit
for bit; the sigmoid uses numpy's `exp` and must stay within a few ulp.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import uniform_filter
from scipy.special import expit, gammaln

import dpsynth
from dpsynth.accounting import _binomial_layout, _lgam_positive_int, default_orders
from dpsynth.augment import _t_sharpen
from dpsynth.diffusion import _sigmoid, _silu, _silu_grad

SRC = str(Path(dpsynth.__file__).resolve().parents[1])


class TestLogGamma:
    def test_equals_gammaln_on_every_integer_to_200k(self):
        xs = np.arange(1, 200_001, dtype=np.float64)
        ours = np.array([_lgam_positive_int(x) for x in xs])
        assert np.array_equal(ours, gammaln(xs))

    def test_equals_gammaln_on_the_large_argument_branches(self):
        xs = [999.0, 1000.0, 1001.0, 99_999_999.0, 1e8, 1e8 + 1.0, 3e9, 1e15]
        assert [_lgam_positive_int(x) for x in xs] == [float(gammaln(x)) for x in xs]

    def test_binomial_layout_equals_the_gammaln_formula(self):
        alphas = tuple(int(a) for a in default_orders() if a == int(a))
        _, k, a_minus_k, _, log_binom = _binomial_layout(alphas)
        a = k + a_minus_k
        assert np.array_equal(log_binom, gammaln(a + 1.0) - gammaln(k + 1.0) - gammaln(a - k + 1.0))


SHARPEN_SHAPES = [
    (8, 8, 1),
    (28, 28, 1),
    (8, 8, 3),
    (5, 7, 1),
    (3, 3, 1),
    (1, 1, 1),
    (1, 6, 1),
    (6, 1, 2),
    (2, 2, 1),
    (2, 9, 3),
    (7, 2, 1),
]


@pytest.mark.parametrize("shape", SHARPEN_SHAPES, ids=["x".join(map(str, s)) for s in SHARPEN_SHAPES])
def test_sharpen_equals_the_uniform_filter_formula(shape):
    gen = np.random.default_rng(sum(shape))
    for img in gen.random((16,) + shape):
        m = float(gen.uniform(0.2, 1.0))
        reference = img + m * (img - uniform_filter(img, size=(3, 3, 1), mode="constant"))
        assert np.array_equal(_t_sharpen(img, m, gen), reference)


class TestSigmoid:
    def test_within_an_ulp_of_expit(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        assert np.max(np.abs(_sigmoid(x) - expit(x))) <= 2.3e-16

    def test_saturates_exactly_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-1000.0, 1000.0]))
            _silu(np.array([-1000.0]))
            _silu_grad(np.array([-1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0


def _child(code: str, cwd) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that sees this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_loads_no_scipy_module(tmp_path):
    code = "import sys, dpsynth, dpsynth.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = _child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_all_and_account_run_with_scipy_unimportable(tmp_path):
    config = {
        "seed": 3,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"source": "toy", "n_per_class": 10, "num_classes": 4, "height": 8, "width": 8},
        "central": {"kind": "mean", "count": 4, "sampling_rate": 0.5, "noise_scale": 5.0},
        "model": {"hidden1": 8, "hidden2": 8, "time_dim": 4, "label_dim": 4, "diffusion_steps": 5},
        "warmup": {"iterations": 4, "batch_size": 4, "augment_names": ["sharpen"]},
        "finetune": {"steps": 2, "sampling_rate": 0.3, "checkpoint_every": 1},
        "eval": {"n_synthetic": 8, "loss_draws": 20, "probe": False},
    }
    spec = {
        "target_epsilon": 2.0,
        "delta": 1e-5,
        "events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0, "repetitions": 50}],
        "fine_tune": {"steps": 300, "sampling_rate": 0.1},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "from dpsynth.cli import main\n"
        "print('run-all exit', main(['run-all', '--config', 'cfg.json']))\n"
        "print('account exit', main(['account', '--spec', 'spec.json', '--no-curve']))\n"
    )
    done = _child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "run-all exit 0" in done.stdout and "account exit 0" in done.stdout, done.stderr
    assert "sigma_f=" in done.stdout
    assert (tmp_path / "run" / "metrics.json").exists()
