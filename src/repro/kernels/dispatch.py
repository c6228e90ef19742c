"""Fast/reference kernel dispatch for the whole quantization library.

Every hot path in the library (``FloatSpec.encode``, the Sg-EM / Sg-EE /
M2-NVFP4 adaptive searches, the Elem-EM/EE refinements) exists in two
implementations:

* the **reference** path — the original, obviously-correct formulation,
  kept unchanged as the semantic ground truth;
* the **fast** path — the vectorized kernels in this package.

The two are bit-identical on every input (``tests/test_kernel_parity.py``
sweeps all registered formats over adversarial tensors); the fast path is
the default. The selection is one bool held in a
:class:`contextvars.ContextVar`:

* :func:`pinned_kernels` (and its spellings :func:`reference_kernels` /
  :func:`fast_kernels`) pin it for the current thread or task until the
  block exits — other threads never see the pin;
* outside any pin, ``REPRO_REFERENCE_KERNELS=1`` selects the reference
  path process-wide — the escape hatch for ruling the kernels out while
  debugging (listed in the README's environment-knob table).

New threads start outside every pin, so a worker that must honour a
caller's choice resolves it with :func:`use_reference` on the caller's
side and re-enters :func:`pinned_kernels` on its own.

Example::

    from repro.kernels import reference_kernels, use_reference
    from repro.formats.registry import FP4_E2M1

    fast_codes = FP4_E2M1.encode(x)          # default: fast kernels
    with reference_kernels():                # scoped, env-independent
        assert use_reference()
        ref_codes = FP4_E2M1.encode(x)       # bit-identical, slower
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["REFERENCE_ENV", "use_reference", "pinned_kernels",
           "reference_kernels", "fast_kernels"]

#: Environment variable selecting the reference (slow) kernel paths.
REFERENCE_ENV = "REPRO_REFERENCE_KERNELS"

#: The pinned selection (True = reference); None defers to the env.
_pinned: ContextVar[bool | None] = ContextVar("repro_reference_kernels",
                                              default=None)


def use_reference() -> bool:
    """True when the reference kernel paths are selected."""
    pinned = _pinned.get()
    if pinned is not None:
        return pinned
    return os.environ.get(REFERENCE_ENV, "0") == "1"


@contextmanager
def pinned_kernels(reference: bool):
    """Pin the reference (True) or fast (False) path within the block."""
    token = _pinned.set(bool(reference))
    try:
        yield
    finally:
        _pinned.reset(token)


def reference_kernels():
    """Force the reference path within the block, ignoring the environment."""
    return pinned_kernels(True)


def fast_kernels():
    """Force the fast path within the block, ignoring the environment."""
    return pinned_kernels(False)
