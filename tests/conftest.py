"""Shared fixtures: a small calibrated runtime reused across model tests,
and the kernel dispatch modes the parity and golden suites sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import fast_kernels, reference_kernels
from repro.models.profiles import load_runtime

#: Every kernel dispatch mode, by the name the suites parametrize on.
KERNEL_MODES = {"fast": fast_kernels, "reference": reference_kernels}


@pytest.fixture(params=sorted(KERNEL_MODES))
def kernel_mode(request):
    """Run the test inside each kernel dispatch mode; yields its name.

    Parametrize ``kernel_mode`` indirectly to keep a test's own
    parameter order in its ids.
    """
    with KERNEL_MODES[request.param]():
        yield request.param


@pytest.fixture(scope="session")
def rt_small():
    """A small, calibrated llama2-7b runtime shared by all model tests."""
    return load_runtime("llama2-7b", n_seq=6, seq_len=48)


@pytest.fixture()
def rng():
    """Deterministic RNG for the individual test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def heavy_tensor(rng):
    """An outlier-structured test tensor resembling LLM weights."""
    from repro.models.tensors import OutlierSpec, outlier_matrix
    spec = OutlierSpec(outlier_rate=0.01, outlier_scale=16.0,
                       channel_sigma=0.3, tail=0.1)
    return outlier_matrix(96, 128, spec, rng)
