import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dpsynth import LabeledDataset, RngSeed, generate_toy_glyphs


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test that leaves a thread running, e.g. an executor worker never joined."""
    before = set(threading.enumerate())
    yield
    after = set(threading.enumerate())
    if after != before:
        pytest.fail(
            f"threads changed during the test: started {sorted(t.name for t in after - before)}, "
            f"ended {sorted(t.name for t in before - after)}"
        )


@pytest.fixture
def rng():
    return RngSeed(12345)


@pytest.fixture(scope="session")
def toy_ds():
    return generate_toy_glyphs(40, 10, (8, 8, 1), RngSeed(100))


@pytest.fixture(scope="session")
def small_ds():
    """Tiny random dataset for mechanism-level tests."""
    gen = np.random.default_rng(5)
    pixels = gen.random((30, 6 * 6))
    labels = gen.integers(0, 3, size=30).tolist()
    return LabeledDataset.from_arrays(pixels, labels, 3, (6, 6, 1))
