"""The accountant's reproducibility contract, pinned bit for bit.

Eight privacy specs from the `account_sweep` benchmark's generator (setup
seed 3: specs 0-7, with 0, 1, 2 and 3 query events each twice). For each,
frozen before the integer kernel was vectorized: `float.hex` of the
calibrated `sigma_f`, the sha256 of the fine-tuning step's RDP curve at that
`sigma_f` (all 192 default orders, raw float64 bytes), and the sha256 of the
`dpsynth account` stdout. A change that moves any of them moves a privacy
output and must re-pin these values on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from dpsynth.accounting import MechanismEvent, calibrate_sigma_f, default_orders, sgm_rdp_curve
from dpsynth.cli import main

# (spec JSON, float.hex(sigma_f), sha256 of the fine-tuning curve, sha256 of the stdout)
PINNED = [
    (
        '{"delta": 1e-05, "events": [], "fine_tune": {"sampling_rate": 0.028342048625326556, "steps": 1421}, "target_epsilon": 7.316791446395141}',
        '0x1.1449434efbb32p+0',
        '754b5eee65f9fa111f87324757cc463ef9473e5aa40edd21596debc439ce620e',
        '3c5cac33194c18667e6101a33db3fd2d0b6f4831075ee9d9b23f73a1341e7ae8',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.021286852538072783, "repetitions": 19, "sigma": 13.768964023112773}], "fine_tune": {"sampling_rate": 0.005003352687894882, "steps": 112}, "target_epsilon": 6.458533827903279}',
        '0x1.0889d1afb7311p-1',
        '4d5772d6d71788d4909a9edbc073bd4df81bb46d0e4cfddb71600cf429f4e356',
        '31bbfc176ac04e4f9b6ecec7f9c8ca57b8dd26b6c9893d16633bd4e66a6d7e80',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.07966943346792867, "repetitions": 11, "sigma": 12.72397751593023}, {"kind": "mode_query", "q": 0.011764037669644858, "repetitions": 3, "sigma": 14.332999198562039}], "fine_tune": {"sampling_rate": 0.04491895253015599, "steps": 279}, "target_epsilon": 8.11014975077923}',
        '0x1.c5046a61aeed4p-1',
        'a34b350092eb0a077f31bc269d3e642951fc3d5b3bd90cf1f8a3db4ce2ac1158',
        '436dd26ff27c8a80f2afd50a7191a98c0cc658f451f6ec2a15ee915010330c61',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.07671317708749319, "repetitions": 4, "sigma": 12.66436676500084}, {"kind": "mode_query", "q": 0.044242584771952226, "repetitions": 2, "sigma": 18.913454957231565}, {"kind": "mean_query", "q": 0.04139664194364011, "repetitions": 8, "sigma": 12.176236824299075}], "fine_tune": {"sampling_rate": 0.016006349908501603, "steps": 1902}, "target_epsilon": 6.19187356940491}',
        '0x1.d985be7a6baa6p-1',
        '5aa118d2ffd9ff14259fa20334a834dce3059b41ba3649580fdf18cd85d92468',
        '9359900921608e5c6aca22e2e5534201a887d11ce8bd16dcfc0e708ac58803ad',
    ),
    (
        '{"delta": 1e-05, "events": [], "fine_tune": {"sampling_rate": 0.01956044674665912, "steps": 2236}, "target_epsilon": 7.948455659917435}',
        '0x1.e3003f64f050cp-1',
        'd776bc0590e4bf8a6dc86ff9bc91f0f5f844ebad5201483941f718cba9ade12b',
        '37bcc5c8895d06a00adc4c09febdd2150c8fa9d0c29fbcf2ddbfe9bacc9f3a74',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.05326890132723238, "repetitions": 6, "sigma": 9.119505305016965}], "fine_tune": {"sampling_rate": 0.04016770294951702, "steps": 2070}, "target_epsilon": 3.0731195631441404}',
        '0x1.94462afec0c1cp+1',
        '5d1462893d07de98b0919ea36b633f63d378c9fbd6c80a2b48dee166064b8491',
        '30c81cffc421274cd48238bbda58be47dc67ca8741e4bbe3901211f9042019da',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.09292847158304035, "repetitions": 11, "sigma": 14.755064778556841}, {"kind": "mode_query", "q": 0.07695191866154924, "repetitions": 1, "sigma": 19.36568795798813}], "fine_tune": {"sampling_rate": 0.017566616614754543, "steps": 1606}, "target_epsilon": 2.331954749709725}',
        '0x1.b8f0154b12783p+0',
        '22d60927c7f258c57368b61d0fe9c67f4651edddd0165203de34a8a2e0288177',
        '6866f24345f28561e363750e026b23e6d4b1487f09479035ac44a7bf542fd1fb',
    ),
    (
        '{"delta": 1e-05, "events": [{"kind": "mean_query", "q": 0.0769605709251233, "repetitions": 17, "sigma": 17.75796487033473}, {"kind": "mode_query", "q": 0.0838125137464261, "repetitions": 11, "sigma": 11.0450623371444}, {"kind": "mean_query", "q": 0.04084450755926636, "repetitions": 10, "sigma": 11.14079952354385}], "fine_tune": {"sampling_rate": 0.02995441860538458, "steps": 1138}, "target_epsilon": 7.079370537978837}',
        '0x1.11ad78e5b1eacp+0',
        '0b1cc8603dfc4f5c30d88e3e5c18a107ab811303a0f316939812cbdcb500a3d9',
        'f796a40c7aa8a4c56448fe894082642de0b3be53115ab08e537a85e2b614c511',
    ),
]


@pytest.mark.parametrize(
    "spec,sigma_hex,curve_sha256,stdout_sha256", PINNED, ids=[f"spec{i}" for i in range(len(PINNED))]
)
def test_account_outputs_are_pinned(tmp_path, capsys, spec, sigma_hex, curve_sha256, stdout_sha256):
    raw = json.loads(spec)
    events = [MechanismEvent.from_dict(d) for d in raw["events"]]
    steps, rate = raw["fine_tune"]["steps"], raw["fine_tune"]["sampling_rate"]
    sigma = calibrate_sigma_f(events, steps, rate, raw["target_epsilon"], raw["delta"])
    assert float.hex(sigma) == sigma_hex
    curve = np.ascontiguousarray(sgm_rdp_curve(rate, sigma, default_orders()), dtype=np.float64)
    assert hashlib.sha256(curve.tobytes()).hexdigest() == curve_sha256
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["account", "--spec", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256
