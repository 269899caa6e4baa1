"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete. The warm-up benefit experiment (criterion 5) dominates the
runtime; everything else finishes in a few minutes.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from dpsynth import (
    MechanismEvent,
    RngSeed,
    generate_toy_glyphs,
    load_container,
    read_idx,
    save_container,
    write_idx,
)
from dpsynth.accounting import SIGMA_SEARCH_REL_TOL, calibrate_sigma_f, compose, rdp_to_dp, sgm_rdp
from dpsynth.central import (
    mean_aggregate,
    mode_from_noisy_histogram,
    pixel_histogram,
    stacked_pixel_histogram,
)
from dpsynth.core import LabeledDataset
from dpsynth.diffusion import (
    NoiseSchedule,
    ParamManifest,
    forward_noise,
    init_params,
    loss_and_per_example_grads,
    zero_params,
)
from dpsynth.dpsgd import DpSgdConfig, dp_step
from dpsynth.pipeline import (
    CentralConfig,
    DatasetConfig,
    EvalConfig,
    FinetuneConfig,
    ModelConfig,
    PipelineConfig,
    PrivacyConfig,
    WarmupConfig,
    run_all,
)

from oracles import finite_difference_gradient, sgm_rdp_oracle


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def test_a1_mode_pipeline_worked_example():
    """Criterion 1: the mode query reproduces the worked pixel-set example."""
    counts = pixel_histogram(np.array([1.0, 3.0, 3.0, 4.0]), bins=2, p_max=4.0)
    assert np.array_equal(counts, [1.0, 3.0])
    noisy = counts + np.array([0.1, -0.6])
    assert np.allclose(noisy, [1.1, 2.4])
    mode = mode_from_noisy_histogram(noisy, bins=2, p_max=4.0)
    assert mode == 3.0
    report("A1", f"histogram {counts.tolist()} + fixed noise -> mode {mode} exactly")


def test_a2_sensitivity_suites():
    """Criterion 2: 500 randomized neighboring pairs per sensitivity bound."""
    gen = np.random.default_rng(202)
    t0 = time.time()

    # mean query: pre-noise difference bounded by clip / expected batch
    bound, b_star = 3.0, 20.0
    worst_mean = 0.0
    for _ in range(500):
        n = int(gen.integers(5, 60))
        pixels = gen.random((n + 1, 49)) * gen.uniform(0.2, 5.0)
        shared = np.flatnonzero(gen.random(n) < gen.uniform(0.1, 0.9))
        with_new = np.append(shared, n)
        diff = np.linalg.norm(
            mean_aggregate(pixels, with_new, bound, b_star)
            - mean_aggregate(pixels, shared, bound, b_star)
        )
        worst_mean = max(worst_mean, diff)
        assert diff <= bound / b_star * (1 + 1e-12)

    # single-pixel histogram: adding one pixel moves counts by exactly 1
    worst_pixel = 0.0
    for _ in range(500):
        n = int(gen.integers(1, 80))
        values = gen.random(n + 1)
        h1 = pixel_histogram(values[:n], bins=8, p_max=1.0)
        h2 = pixel_histogram(values, bins=8, p_max=1.0)
        diff = np.linalg.norm(h2 - h1)
        worst_pixel = max(worst_pixel, diff)
        assert diff <= 1.0 + 1e-12

    # all-pixel histogram: L2 difference bounded by sqrt(pixel count)
    d = 36
    worst_mode = 0.0
    for _ in range(500):
        n = int(gen.integers(2, 40))
        pixels = gen.random((n + 1, d))
        shared = np.flatnonzero(gen.random(n) < gen.uniform(0.1, 0.9))
        with_new = np.append(shared, n)
        h1 = stacked_pixel_histogram(pixels[shared], 4, 1.0)
        h2 = stacked_pixel_histogram(pixels[with_new], 4, 1.0)
        diff = np.linalg.norm(h1 - h2)
        worst_mode = max(worst_mode, diff)
        assert diff <= math.sqrt(d) + 1e-12

    report(
        "A2",
        f"0 violations in 3x500 neighboring pairs "
        f"(worst mean {worst_mean:.6f} <= {bound / b_star:.6f}, worst pixel {worst_pixel:.3f} <= 1, "
        f"worst histogram {worst_mode:.4f} <= {math.sqrt(d):.4f}; {time.time() - t0:.1f}s)",
    )


def test_a3_accountant_fidelity():
    """Criterion 3: divergence values match the independent oracle."""
    t0 = time.time()
    qs = [1e-4, 5e-4, 2e-3, 8e-3, 0.02, 0.05, 0.11, 0.25, 0.4, 0.5]
    sigmas = [0.6, 1.0, 2.0, 5.0, 15.0]
    alphas = [2.0, 8.5, 32.0, 63.5]
    worst = 0.0
    count = 0
    for q in qs:
        for s in sigmas:
            for a in alphas:
                mine = sgm_rdp(q, s, a)
                oracle = sgm_rdp_oracle(q, s, a, dps=30)
                rel = abs(mine - oracle) / abs(oracle)
                worst = max(worst, rel)
                count += 1
                assert rel < 1e-6, (q, s, a, mine, oracle)
    assert count == 200

    for s in (0.7, 1.0, 3.0, 10.0):
        for a in (1.5, 2.0, 17.0, 64.0):
            assert sgm_rdp(1.0, s, a) == pytest.approx(a / (2 * s * s), rel=1e-9)

    from dpsynth.accounting import RdpCurve

    eps, alpha = rdp_to_dp(RdpCurve(orders=(32.0,), gammas=(0.5,)), 1e-5)
    assert eps == pytest.approx(0.5 + math.log(1e5) / 31.0, rel=1e-12)
    eps2, _ = rdp_to_dp(RdpCurve(orders=(2.0, 64.0), gammas=(0.0, 0.0)), 1e-3)
    assert eps2 == pytest.approx(math.log(1e3) / 63.0, rel=1e-12)
    report(
        "A3",
        f"200-point grid worst relative error {worst:.2e} < 1e-6; analytic and "
        f"conversion hand cases at 1e-9/1e-12 ({time.time() - t0:.1f}s)",
    )


def test_a4_calibration_contract():
    """Criterion 4: 20 random settings land in [0.999 target, target], tightly."""
    gen = np.random.default_rng(404)
    # light enough that the query stage fits under every drawn target
    query = [MechanismEvent("mean_query", q=0.12, sigma=15.0, repetitions=10)]
    t0 = time.time()
    for i in range(20):
        target = float(gen.uniform(0.5, 10.0))
        steps = int(gen.integers(100, 3000))
        q_f = float(gen.uniform(0.01, 0.3))
        events = query if i % 2 == 0 else []
        sigma = calibrate_sigma_f(events, steps, q_f, target, 1e-5)

        def replay(s: float) -> float:
            fine = MechanismEvent("dpsgd_step", q=q_f, sigma=s, repetitions=steps)
            return rdp_to_dp(compose(events + [fine]), 1e-5)[0]

        eps = replay(sigma)
        assert 0.999 * target <= eps <= target, (target, steps, q_f, sigma, eps)
        # tight: one relative tolerance step less noise overdraws the budget
        assert replay(sigma / (1.0 + SIGMA_SEARCH_REL_TOL)) > target, (target, steps, q_f, sigma)
    report("A4", f"20/20 replayed budgets inside [0.999 t, t] and tight ({time.time() - t0:.1f}s)")


def _warmup_benefit_config(seed: int, out_dir: str, warm: bool) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        output_dir=out_dir,
        dataset=DatasetConfig(source="toy", n_per_class=200, num_classes=10, height=8, width=8),
        central=CentralConfig(
            kind="mean" if warm else "none",
            count=50,
            sampling_rate=0.1,
            noise_scale=5.0,
            per_label=True,
        ),
        model=ModelConfig(hidden1=96, hidden2=96, time_dim=16, label_dim=8, diffusion_steps=50),
        privacy=PrivacyConfig(epsilon=10.0, delta=1e-5),
        warmup=WarmupConfig(iterations=1000, batch_size=32, learning_rate=0.01),
        finetune=FinetuneConfig(
            steps=250,
            sampling_rate=0.15,
            clip_bound=0.5,
            learning_rate=0.05,
            checkpoint_every=125,
        ),
        eval=EvalConfig(n_synthetic=250, feature_dim=16, loss_draws=10_000, probe=False),
    )


def compare_runs(run_a: str, run_b: str, csv_path: str) -> dict:
    """Side-by-side metric comparison CSV for two finished run directories."""
    rows = {}
    for name, run in (("a", run_a), ("b", run_b)):
        with open(os.path.join(run, "metrics.json")) as f:
            rows[name] = json.load(f)
    keys = sorted(set(rows["a"]) | set(rows["b"]))
    with open(csv_path, "w") as f:
        f.write("metric,run_a,run_b\n")
        for k in keys:
            f.write(f"{k},{rows['a'].get(k)},{rows['b'].get(k)}\n")
    return rows


@pytest.mark.slow
def test_a5_warmup_benefit(tmp_path):
    """Criterion 5: matched-budget paired runs show the warm-up advantage."""
    t0 = time.time()
    frechet_wins = 0
    loss_wins = 0
    warmup_fidelity_wins = 0
    rows = []
    for pair in range(10):
        seed = 1000 + pair
        warm_dir = str(tmp_path / f"warm_{pair}")
        plain_dir = str(tmp_path / f"plain_{pair}")
        run_all(_warmup_benefit_config(seed, warm_dir, warm=True))
        run_all(_warmup_benefit_config(seed, plain_dir, warm=False))
        both = compare_runs(warm_dir, plain_dir, str(tmp_path / f"pair_{pair}.csv"))
        warm_m, plain_m = both["a"], both["b"]
        f_win = warm_m["frechet_final"] < plain_m["frechet_final"]
        l_win = warm_m["loss_p_finetune_start"] < plain_m["loss_p_finetune_start"]
        frechet_wins += f_win
        loss_wins += l_win
        # warmed checkpoint vs untrained init, before any fine-tuning
        warmup_fidelity_wins += warm_m["frechet_warmup"] < plain_m["frechet_warmup"]
        assert warm_m["epsilon_spent"] <= 10.0 and plain_m["epsilon_spent"] <= 10.0
        rows.append(
            f"pair {pair}: frechet {warm_m['frechet_final']:.3f} vs {plain_m['frechet_final']:.3f} "
            f"({'win' if f_win else 'LOSS'}), loss-p {warm_m['loss_p_finetune_start']:.2f} vs "
            f"{plain_m['loss_p_finetune_start']:.2f} ({'win' if l_win else 'LOSS'})"
        )
        print(f"\n[a5] {rows[-1]} [{time.time() - t0:.0f}s elapsed]")
    assert loss_wins == 10, f"loss-p wins {loss_wins}/10\n" + "\n".join(rows)
    assert frechet_wins >= 8, f"frechet wins {frechet_wins}/10\n" + "\n".join(rows)
    assert warmup_fidelity_wins >= 8, f"warm-up fidelity wins {warmup_fidelity_wins}/10"
    report(
        "A5",
        f"warm-up wins: frechet {frechet_wins}/10 (need >= 8), "
        f"loss-p {loss_wins}/10 (need 10), warm-up fidelity {warmup_fidelity_wins}/10 "
        f"in {time.time() - t0:.0f}s",
    )


def test_a6_gradient_correctness():
    """Criterion 6: finite differences across every block, 20 random configs."""
    gen = np.random.default_rng(606)
    t0 = time.time()
    worst = 0.0
    for trial in range(20):
        manifest = ParamManifest(
            height=int(gen.integers(2, 5)),
            width=int(gen.integers(2, 5)),
            channels=int(gen.choice([1, 3])),
            hidden1=int(gen.integers(4, 10)),
            hidden2=int(gen.integers(4, 10)),
            time_dim=int(gen.choice([2, 4, 8])),
            num_classes=int(gen.integers(2, 5)),
            label_dim=int(gen.integers(2, 5)),
        )
        schedule = NoiseSchedule.linear(int(gen.integers(5, 30)))
        k = int(gen.choice([1, 2, 4]))
        n = int(gen.integers(1, 4))
        params = init_params(manifest, RngSeed(trial))
        x0 = gen.random((n, manifest.data_dim))
        labels = gen.integers(0, manifest.num_classes, n)
        ids = list(range(100, 100 + n))
        erng = RngSeed(9000 + trial)

        analytic = loss_and_per_example_grads(
            params, x0, labels, schedule, erng, noise_multiplicity=k, example_ids=ids
        ).per_example_grads.mean(axis=0)

        def f(vec):
            p = params.replace_vector(vec)
            return loss_and_per_example_grads(
                p, x0, labels, schedule, erng, noise_multiplicity=k, example_ids=ids
            ).loss

        fd = finite_difference_gradient(f, params.vector.copy(), 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-3 * np.abs(fd).max())
        rel = float((np.abs(fd - analytic) / denom).max())
        worst = max(worst, rel)
        assert rel < 1e-5, f"config {trial}: max relative error {rel}"
    report("A6", f"20 configs, worst relative gradient error {worst:.2e} < 1e-5 ({time.time() - t0:.1f}s)")


def test_a7_dpsgd_noise_statistics():
    """Criterion 7: zero-gradient updates match the calibrated noise std."""
    manifest = ParamManifest(
        height=4, width=4, channels=1, hidden1=8, hidden2=7, time_dim=4, num_classes=3, label_dim=3
    )
    pixels = np.random.default_rng(0).random((20, 16))
    ds = LabeledDataset.from_arrays(pixels, [0] * 20, 3, (4, 4, 1))
    cfg = DpSgdConfig(learning_rate=1.5, clip_bound=2.0, noise_scale=1.2, sampling_rate=0.5, steps=1)

    def zero_engine(p, x0, labels, erng, weights, example_ids=None):
        return np.zeros(p.manifest.num_params), np.zeros(x0.shape[0]), 0.0

    t0 = time.time()
    params = zero_params(manifest)
    draws = np.empty((10_000, manifest.num_params))
    p = params
    for step in range(10_000):
        p2, _, _ = dp_step(p, ds, cfg, zero_engine, RngSeed(7).derive(step))
        draws[step] = (p2.vector - p.vector) / (-cfg.learning_rate)
        p = p2
    target = cfg.clip_bound * cfg.noise_scale / cfg.expected_batch(len(ds))
    observed = float(draws.std())
    rel = abs(observed - target) / target
    assert rel < 0.02, f"std {observed} vs {target}"
    report(
        "A7",
        f"10^4-step update std {observed:.6f} vs C sigma / B* = {target:.6f} "
        f"({rel * 100:.3f}% < 2%, {time.time() - t0:.1f}s)",
    )


def test_a8_forward_process_moments():
    """Criterion 8: corruption moments at five timesteps within 3-sigma CLT bands."""
    schedule = NoiseSchedule.linear(50)
    x0 = np.array([0.15, 0.85])
    n = 100_000
    t0 = time.time()
    for t in (1, 10, 25, 40, 50):
        abar = schedule.alpha_bar(t)
        root = RngSeed(800).derive(t)
        draws = np.empty((n, 2))
        for i in range(n):
            draws[i] = forward_noise(x0, t, schedule, root.derive(i))[0]
        std = math.sqrt(1 - abar)
        for j in range(2):
            mean_band = 3 * std / math.sqrt(n)
            var_band = 3 * (1 - abar) * math.sqrt(2 / (n - 1))
            assert abs(draws[:, j].mean() - math.sqrt(abar) * x0[j]) < mean_band
            assert abs(draws[:, j].var() - (1 - abar)) < var_band
    report("A8", f"5 timesteps x 10^5 draws inside 3-sigma bands ({time.time() - t0:.1f}s)")


def test_a9_format_round_trips(tmp_path):
    """Criterion 9: byte-exact round-trips and offset-bearing rejection."""
    from dpsynth import FormatError

    ds = generate_toy_glyphs(12, 10, (8, 8, 1), RngSeed(9))
    images, labels = tmp_path / "a.idx", tmp_path / "b.idx"
    write_idx(ds, images, labels)
    loaded = read_idx(images, labels)
    images2, labels2 = tmp_path / "a2.idx", tmp_path / "b2.idx"
    write_idx(loaded, images2, labels2)
    assert images2.read_bytes() == images.read_bytes()
    assert labels2.read_bytes() == labels.read_bytes()

    path = tmp_path / "set.dpc"
    provenance = {"events": [{"kind": "mean_query", "q": 0.1, "sigma": 5.0}]}
    save_container(path, "central", loaded.pixels, (8, 8, 1), loaded.labels, provenance)
    blob = path.read_bytes()
    c = load_container(path)
    save_container(path, c.kind, c.pixels, (8, 8, 1), c.labels, c.provenance)
    assert path.read_bytes() == blob

    offsets = []
    images.write_bytes(images.read_bytes()[:-5])
    with pytest.raises(FormatError) as e1:
        read_idx(images, labels)
    offsets.append(e1.value.offset)
    corrupted = bytearray(blob)
    corrupted[-3] ^= 0xFF
    path.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError) as e2:
        load_container(path)
    offsets.append(e2.value.offset)
    assert all(isinstance(o, int) and o >= 0 for o in offsets)
    report("A9", f"IDX and container round-trips byte-exact; rejections at offsets {offsets}")


def test_a10_sigma_increases_with_query_count():
    """Criterion 10: more central queries leave less budget, so sigma_f rises."""
    t0 = time.time()
    sigmas = []
    for n_c in (0, 10, 50, 200):
        events = (
            [MechanismEvent("mean_query", q=0.12, sigma=5.0, repetitions=n_c)] if n_c else []
        )
        sigmas.append(calibrate_sigma_f(events, 500, 0.1, 10.0, 1e-5))
    assert all(b > a for a, b in zip(sigmas, sigmas[1:])), sigmas
    report(
        "A10",
        "sigma_f strictly increasing over query counts (0, 10, 50, 200): "
        + ", ".join(f"{s:.4f}" for s in sigmas)
        + f" ({time.time() - t0:.1f}s)",
    )
