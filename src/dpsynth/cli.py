"""Command-line interface.

Subcommands mirror the pipeline stages: `account`, `ingest`, `make-toy`,
`query-central`, `warmup`, `finetune`, `sample`, `evaluate`, `run-all`.
Exit codes: 0 success, 1 user error (bad arguments, files, or budgets),
2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

from . import data_io, pipeline
from .accounting import (
    BudgetExhaustedError,
    MechanismEvent,
    PrivacySpec,
    calibrate_sigma_f,
    compose,
    epsilon_with_fine_tuning,
    rdp_to_dp,
)
from .central import CentralConfig, query_central_set
from .core import InvalidArgumentError, RngSeed, json_number
from .diffusion import load_checkpoint, save_checkpoint
from .metrics import denoising_loss_estimate, train_probe_classifier
from .pipeline import ConfigError, PipelineConfig

USER_ERRORS = (
    InvalidArgumentError,
    BudgetExhaustedError,
    ConfigError,
    FileNotFoundError,
)


def _print_kv(key: str, value) -> None:
    print(f"{key}={value}")


def _epsilon_text(eps: float, target: float) -> str:
    """eps to 9 significant digits, or in full where those would read above a target eps meets."""
    text = f"{eps:.9g}"
    return repr(eps) if eps <= target < float(text) else text


def _parse_json_file(path, what: str, parse):
    """`parse` of the JSON in `path`; a malformed file is an InvalidArgumentError naming it."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse(json.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidArgumentError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from exc


def _parse_spec(raw: dict):
    fine = raw.get("fine_tune")
    if fine is not None and not isinstance(fine, dict):
        raise InvalidArgumentError(f"fine_tune must be an object, got {fine!r}")
    if fine and (isinstance(fine["steps"], bool) or not isinstance(fine["steps"], int) or fine["steps"] < 1):
        raise InvalidArgumentError(f"fine_tune.steps must be a positive integer, got {fine['steps']!r}")
    # PrivacySpec refuses a target that is not positive and finite, and a delta outside (0, 1).
    spec = PrivacySpec(json_number(raw["target_epsilon"], "target_epsilon"), json_number(raw["delta"], "delta"))
    return (
        spec.target_epsilon,
        spec.delta,
        [MechanismEvent.from_dict(d) for d in raw.get("events", [])],
        (fine["steps"], json_number(fine["sampling_rate"], "fine_tune.sampling_rate")) if fine else None,
    )


def cmd_account(args) -> int:
    target, delta, events, fine = _parse_json_file(args.spec, "privacy spec", _parse_spec)
    curve = compose(events)
    if not args.no_curve:
        for a, g in zip(curve.orders, curve.gammas):
            _print_kv(f"gamma[{a}]", f"{g:.12g}")
    if events:
        eps, alpha = rdp_to_dp(curve, delta)
        _print_kv("epsilon", f"{eps:.9g}")
        _print_kv("best_alpha", alpha)
    if fine:
        steps, rate = fine
        sigma = calibrate_sigma_f(events, steps, rate, target, delta)
        _print_kv("sigma_f", f"{sigma:.9g}")
        fine_event = MechanismEvent("dpsgd_step", q=rate, sigma=sigma, repetitions=steps)
        eps_total, alpha_total = epsilon_with_fine_tuning(events, fine_event, delta)
        _print_kv("epsilon_total", _epsilon_text(eps_total, target))
        _print_kv("best_alpha_total", alpha_total)
    _print_kv("target_epsilon", target)
    _print_kv("delta", delta)
    return 0


def cmd_ingest(args) -> int:
    ds = data_io.read_idx(args.images, args.labels)
    h, w, c = ds.image_shape
    pipeline.save_sensitive(args.out, ds, {"source": "idx", "images": str(args.images), "labels": str(args.labels)})
    _print_kv("count", len(ds))
    _print_kv("shape", f"{h}x{w}x{c}")
    _print_kv("num_classes", ds.num_classes)
    _print_kv("out", args.out)
    return 0


def cmd_make_toy(args) -> int:
    ds = data_io.generate_toy_glyphs(
        args.per_class, args.classes, (args.size, args.size, 1), RngSeed(args.seed)
    )
    pipeline.save_sensitive(args.out, ds, {"source": "toy", "per_class": args.per_class, "seed": args.seed})
    _print_kv("count", len(ds))
    _print_kv("out", args.out)
    return 0


def cmd_query_central(args) -> int:
    # Every query option has the name of its CentralConfig field.
    cfg = CentralConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(CentralConfig)})
    ds = data_io.load_container(args.data).to_dataset()
    central = query_central_set(ds, cfg, RngSeed(args.seed).derive(1))
    pipeline.save_central(args.out, central, ds.image_shape)
    if args.events_out:
        data_io.write_json(args.events_out, [ev.to_dict() for ev in central.events])
    _print_kv("count", len(central))
    _print_kv("events", len(central.events))
    _print_kv("out", args.out)
    return 0


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json_file(args.config)
    if getattr(args, "output_dir", None):
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    return cfg


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    out = pipeline.run_all(cfg)
    with open(f"{out}/metrics.json") as f:
        for key, value in sorted(json.load(f).items()):
            _print_kv(key, value)
    _print_kv("run_dir", out)
    return 0


def cmd_warmup(args) -> int:
    cfg = _load_config(args)
    state, central = pipeline.run_stage1(cfg, pipeline.initial_state(cfg))
    save_checkpoint(args.out, state.params, state.schedule)
    data_io.write_json(args.ledger_out, state.ledger.to_dict())
    _print_kv("central_images", 0 if central is None else len(central))
    _print_kv("checkpoint", args.out)
    _print_kv("ledger", args.ledger_out)
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_config(args)
    if cfg.central.kind != "none" and not args.ledger:
        raise InvalidArgumentError(
            f"stage one of this config charges {cfg.central.kind} queries; pass their ledger "
            "with --ledger, or sigma_f would be calibrated as if they were free"
        )
    stage1_events = []
    if args.ledger:
        stage1_events = _parse_json_file(
            args.ledger, "ledger", lambda raw: [MechanismEvent.from_dict(d) for d in raw["events"]]
        )
    state = pipeline.state_from_checkpoint(cfg, args.checkpoint, stage1_events)
    state, sigma_f = pipeline.run_stage2(cfg, state)
    save_checkpoint(args.out, state.params, state.schedule)
    data_io.write_json(args.ledger_out, state.ledger.to_dict())
    eps, alpha = state.ledger.epsilon()
    _print_kv("sigma_f", f"{sigma_f:.9g}")
    _print_kv("epsilon_spent", f"{eps:.9g}")
    _print_kv("best_alpha", alpha)
    _print_kv("checkpoint", args.out)
    _print_kv("ledger", args.ledger_out)
    return 0


def cmd_sample(args) -> int:
    params, schedule = load_checkpoint(args.checkpoint)
    pipeline.sample_stage(
        params, schedule, args.count, RngSeed(args.seed), conditional=args.conditional,
        out=args.out, provenance={"checkpoint": str(args.checkpoint), "seed": args.seed},
    )
    _print_kv("count", args.count)
    _print_kv("out", args.out)
    return 0


def cmd_evaluate(args) -> int:
    synth = data_io.load_container(args.synthetic)
    real = data_io.load_container(args.real)
    for path, c in ((args.synthetic, synth), (args.real, real)):  # min and max carry a NaN: no full-size mask
        if c.count and not -float("inf") < c.pixels.min() <= c.pixels.max() < float("inf"):
            raise InvalidArgumentError(f"{path}: a pixel is not finite")
    frechet = pipeline.fit_frechet(real.pixels, (real.height, real.width, real.channels), args.feature, args.feature_dim)
    _print_kv("frechet", f"{frechet(synth.pixels):.9g}")
    _print_kv("n_real", real.count)
    _print_kv("n_synth", synth.count)
    probe = synth.labels is not None and real.labels is not None
    if args.checkpoint and real.labels is None:
        raise InvalidArgumentError("loss estimation needs a labeled real container")
    if probe or args.checkpoint:
        # One validated copy of the real data serves the probe and the loss; it
        # is never clipped, so out-of-range sensitive pixels fail closed.
        num_classes = int(max(synth.labels.max(), real.labels.max())) + 1 if probe else None
        real_ds = real.to_dataset(num_classes)
    # The probe trains on a worker thread while this one loads the checkpoint
    # and estimates the loss; numpy's BLAS and ufunc kernels release the GIL.
    # Its training set is built here: memory freed on the worker stays in that
    # thread's malloc arena, where the loss's temporaries cannot reuse it.
    # A probe error is raised in place of a loss error; a lone loss error
    # is raised after acc is printed.
    with ThreadPoolExecutor(max_workers=1) as pool:
        acc = None
        if probe:
            acc = pool.submit(train_probe_classifier, pipeline.probe_set(synth.pixels, synth.labels, real_ds), real_ds)
        try:
            if args.checkpoint:
                params, schedule = load_checkpoint(args.checkpoint)
                loss_p = denoising_loss_estimate(
                    params, schedule, real_ds, RngSeed(args.seed), draws=args.loss_draws
                )
        finally:
            if acc is not None:
                _print_kv("acc", f"{acc.result():.6f}")
    if args.checkpoint:
        _print_kv("loss_p", f"{loss_p:.9g}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="dpsynth", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("account", help="price a privacy spec and calibrate the fine-tune noise")
    a.add_argument("--spec", required=True, help="JSON privacy spec file")
    a.add_argument("--no-curve", action="store_true", help="suppress per-order gamma lines")

    a = sub.add_parser("ingest", help="convert an IDX pair into a container")
    a.add_argument("--images", required=True)
    a.add_argument("--labels", required=True)
    a.add_argument("--out", required=True)

    a = sub.add_parser("make-toy", help="generate the toy glyph dataset")
    a.add_argument("--out", required=True)
    a.add_argument("--per-class", type=int, default=200)
    a.add_argument("--classes", type=int, default=10)
    a.add_argument("--size", type=int, default=8)
    a.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("query-central", help="query noisy central images")
    a.add_argument("--data", required=True)
    a.add_argument("--kind", choices=["mean", "mode"], required=True)
    a.add_argument("--count", type=int, required=True)
    a.add_argument("--sampling-rate", type=float, required=True)
    a.add_argument("--noise-scale", type=float, required=True)
    a.add_argument("--norm-bound", type=float, default=None)
    a.add_argument("--bins", type=int, default=2)
    a.add_argument("--per-label", action="store_true")
    a.add_argument("--parallel-accounting", action="store_true")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.add_argument("--events-out", default=None)

    a = sub.add_parser("warmup", help="stage one: query and pre-train")
    a.add_argument("--config", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--ledger-out", required=True)

    a = sub.add_parser("finetune", help="stage two: calibrate and train privately")
    a.add_argument("--config", required=True)
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--ledger", default=None)
    a.add_argument("--out", required=True)
    a.add_argument("--ledger-out", required=True)

    a = sub.add_parser("sample", help="generate images from a checkpoint")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--count", type=int, default=100)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--conditional", action="store_true")
    a.add_argument("--out", required=True)

    a = sub.add_parser("evaluate", help="fidelity and utility of a synthetic container")
    a.add_argument("--synthetic", required=True)
    a.add_argument("--real", required=True)
    a.add_argument("--feature", choices=["downsample", "pca"], default="downsample")
    a.add_argument("--feature-dim", type=int, default=16)
    a.add_argument("--checkpoint", default=None, help="also report the denoising loss on the real data")
    a.add_argument("--loss-draws", type=int, default=10_000)
    a.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("run-all", help="full two-stage workflow from a config file")
    a.add_argument("--config", required=True)
    a.add_argument("--output-dir", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a command rebound on the module (traced,
    # say) is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
