"""The accountant's reproducibility contract, pinned bit for bit.

Eight privacy specs from the `account_sweep` benchmark's generator (setup
seed 3: specs 0-7, with 0, 1, 2 and 3 query events each twice). For each:
`float.hex` of the calibrated `sigma_f`, the sha256 of the fine-tuning step's
RDP curve at that `sigma_f` (all 192 default orders, raw float64 bytes), and
the sha256 of the `dpsynth account` stdout. The values were re-pinned when
the calibration search became a bracketed secant (regula falsi, Illinois
step): `sigma_f` moved by at most 8.3e-5 relative, every curve at a fixed
sigma kept its bits. A change that moves any of them moves a privacy output
and must re-pin these values on purpose.

The search itself is held to its contract: the returned scale is feasible,
one relative step `SIGMA_SEARCH_REL_TOL` below it is not, and it prices few
fractional orders by quadrature.
"""

import hashlib
import json

import numpy as np
import pytest

from dpsynth import accounting
from dpsynth.accounting import (
    SIGMA_SEARCH_REL_TOL,
    MechanismEvent,
    calibrate_sigma_f,
    compose,
    default_orders,
    rdp_to_dp,
    sgm_rdp_curve,
)
from dpsynth.cli import main

# (spec JSON, float.hex(sigma_f), sha256 of the fine-tuning curve, sha256 of the stdout)
PINNED = [
    (
        '{"delta": 1e-05, "events": [], "fine_tune": {"sampling_rate": 0.028342048625326556, "steps": 1421}, "target_epsilon": 7.316791446395141}',
        '0x1.14491215b161cp+0',
        'b2ceb15b62d1480afd956da7e716522c37caad12919202517d542d0dbfd84863',
        'c2fb11fcaf61e8ce6946ee24df516753fde50bd225b683b509986a84c8be9e8b',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.021286852538072783, "repetitions": 19, "sigma": 13.768964023112773}], "fine_tune": {"sampling_rate": 0.005003352687894882, "steps": 112}, "target_epsilon": 6.458533827903279}',
        '0x1.0886acbc0abebp-1',
        'f654b4106464a91263ee61754086a2d1083bfc842354c53de3114a37a1b53859',
        'deefd92daa3c5b4b1b62c814a4e37c54083c040ce4a27630f1c9d6a63d2a7691',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.07966943346792867, "repetitions": 11, "sigma": 12.72397751593023}, {"kind": "mode_query", "q": 0.011764037669644858, "repetitions": 3, "sigma": 14.332999198562039}], "fine_tune": {"sampling_rate": 0.04491895253015599, "steps": 279}, "target_epsilon": 8.11014975077923}',
        '0x1.c503642cecf4cp-1',
        '1bba2efb9799127d9eb44929c28bb9bc44f5b11848ecb57ef3ffd62c5cce1bce',
        '5766c66d00f1c91c02888d087f8a42635fc5552610bd28a5a1c47eae98312fca',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.07671317708749319, "repetitions": 4, "sigma": 12.66436676500084}, {"kind": "mode_query", "q": 0.044242584771952226, "repetitions": 2, "sigma": 18.913454957231565}, {"kind": "mean_query", "q": 0.04139664194364011, "repetitions": 8, "sigma": 12.176236824299075}], "fine_tune": {"sampling_rate": 0.016006349908501603, "steps": 1902}, "target_epsilon": 6.19187356940491}',
        '0x1.d9869097a8976p-1',
        '1db24591e98cd9f637f72125af07d76d65d2be09cbd914ee6083cae49166041d',
        'dfbc54bd41e04f8dc3e50082cee24183681c4ea5cf35e922b41bb15fccc049d9',
    ),
    (
        '{"delta": 1e-05, "events": [], "fine_tune": {"sampling_rate": 0.01956044674665912, "steps": 2236}, "target_epsilon": 7.948455659917435}',
        '0x1.e30121a801748p-1',
        '9507732740ab0508bd50276f46a32b20f593a03b70f7b54857cb8a122c0a8fd1',
        'e904e66f62af65b126a60d41d5bb89d7f342f6d75483f205a9952c0774f4f1d6',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.05326890132723238, "repetitions": 6, "sigma": 9.119505305016965}], "fine_tune": {"sampling_rate": 0.04016770294951702, "steps": 2070}, "target_epsilon": 3.0731195631441404}',
        '0x1.944389613caa8p+1',
        'b011c6c0ca64f035dd213c417a611d6fe976202db6d9b6705277224f6ce29db2',
        '9137147219bb15b76f1df00e51ae345dbbaf0e2a45c3f7942804a404abda8e4c',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.09292847158304035, "repetitions": 11, "sigma": 14.755064778556841}, {"kind": "mode_query", "q": 0.07695191866154924, "repetitions": 1, "sigma": 19.36568795798813}], "fine_tune": {"sampling_rate": 0.017566616614754543, "steps": 1606}, "target_epsilon": 2.331954749709725}',
        '0x1.b8e6c186e0a09p+0',
        '15b4e4fed36eb67deef96efc62b81a2018b9f037916c9214fe9481e7256a6953',
        '3bb08942374d74b789651260d0de31b6d67831e07e121368a8e193fd87b76912',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.0769605709251233, "repetitions": 17, "sigma": 17.75796487033473}, {"kind": "mode_query", "q": 0.0838125137464261, "repetitions": 11, "sigma": 11.0450623371444}, {"kind": "mean_query", "q": 0.04084450755926636, "repetitions": 10, "sigma": 11.14079952354385}], "fine_tune": {"sampling_rate": 0.02995441860538458, "steps": 1138}, "target_epsilon": 7.079370537978837}',
        '0x1.11a83d44f98cep+0',
        'ae83862cb83beba78e52412827d85bc75251f1e3b8575bd2f57ec387f9218252',
        '7ade8ba80e5e8f1e6c212f184ef4168c0c880dfdc799ffca32308783cd4cd247',
    ),
]


def spec_args(spec: str) -> tuple:
    """(events, steps, sampling rate, target, delta) of a pinned spec."""
    raw = json.loads(spec)
    events = [MechanismEvent.from_dict(d) for d in raw["events"]]
    fine = raw["fine_tune"]
    return events, fine["steps"], fine["sampling_rate"], raw["target_epsilon"], raw["delta"]


def total_epsilon(events, steps, rate, sigma, delta) -> float:
    fine = MechanismEvent("dpsgd_step", q=rate, sigma=sigma, repetitions=steps)
    return rdp_to_dp(compose(events + [fine]), delta)[0]


@pytest.mark.parametrize(
    "spec,sigma_hex,curve_sha256,stdout_sha256", PINNED, ids=[f"spec{i}" for i in range(len(PINNED))]
)
def test_account_outputs_are_pinned(tmp_path, capsys, spec, sigma_hex, curve_sha256, stdout_sha256):
    events, steps, rate, target, delta = spec_args(spec)
    sigma = calibrate_sigma_f(events, steps, rate, target, delta)
    assert float.hex(sigma) == sigma_hex
    curve = np.ascontiguousarray(sgm_rdp_curve(rate, sigma, default_orders()), dtype=np.float64)
    assert hashlib.sha256(curve.tobytes()).hexdigest() == curve_sha256
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["account", "--spec", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256


@pytest.mark.parametrize("spec", [p[0] for p in PINNED], ids=[f"spec{i}" for i in range(len(PINNED))])
def test_calibrated_scale_is_tight(spec):
    # Feasible, and one relative tolerance step less noise is not: a search
    # that stopped anywhere in the [0.999 t, t] window with spare noise fails.
    events, steps, rate, target, delta = spec_args(spec)
    sigma = calibrate_sigma_f(events, steps, rate, target, delta)
    assert total_epsilon(events, steps, rate, sigma, delta) <= target
    assert total_epsilon(events, steps, rate, sigma / (1.0 + SIGMA_SEARCH_REL_TOL), delta) > target


def test_calibration_prices_few_fractional_orders(monkeypatch):
    # Deterministic cost guard: count the fine-tuning orders priced by
    # quadrature per calibration, from cold caches. Pricing the full grid at
    # each of the search's noise scales costs 516-774 (four to six curves of 129).
    quadrature = accounting._fractional_log_moments
    priced = []
    rate = None  # the fine-tuning rate of the spec being calibrated

    def counting(q, sigma, alphas, span=None):
        if q == rate:
            priced[-1] += len(alphas)
        return quadrature(q, sigma, alphas, span)

    monkeypatch.setattr(accounting, "_fractional_log_moments", counting)
    for spec, *_ in PINNED:
        events, steps, rate, target, delta = spec_args(spec)
        accounting.sgm_rdp_curve.cache_clear()
        priced.append(0)
        calibrate_sigma_f(events, steps, rate, target, delta)
    assert sum(priced) / len(priced) <= 200.0, priced
