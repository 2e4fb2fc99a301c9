"""Loader for the optional ``repro._accel`` C extension.

The hot kernels of the SMP runtime -- per-state token location (frontier
search, false-match rejection, quote-aware end-of-tag scan) and the
multi-query shared scan with its per-query stepping -- have a C
implementation in ``src/repro/_accel.c``, built best-effort by
``setup.py`` (``python setup.py build_ext --inplace``).
The extension is strictly optional: every execution path has a pure-Python
implementation with byte-identical output *and* statistics, which the
property suite asserts.

Gating:

* ``REPRO_PURE=1`` (any non-empty value) in the environment forces the pure
  path even when the extension is importable -- the CI fallback leg and the
  benchmark ablation use this.
* When the extension was never built (or fails to import), the loader
  silently reports it as unavailable.
* A build whose ``ABI_VERSION`` is missing or differs from
  :data:`ABI_VERSION` -- typically a stale in-place ``.so`` left behind by
  an older checkout -- is reported as unavailable too, with one
  ``RuntimeWarning`` naming the file, both versions and the rebuild
  command, instead of failing later on a changed kernel signature.

The environment variable is read lazily on first use, so test code may set
``REPRO_PURE`` before touching the filter entry points.
"""

from __future__ import annotations

import os
import warnings

#: The ``repro._accel`` ABI this source tree expects
#: (``REPRO_ACCEL_ABI_VERSION`` in ``_accel.c``).
ABI_VERSION = 3

#: Sentinel distinguishing "not probed yet" from "probed, unavailable".
_UNSET = object()
_module = _UNSET


def load_accel():
    """The ``repro._accel`` module, or ``None`` when unavailable/disabled.

    The probe result is cached; flipping ``REPRO_PURE`` after the first
    call has no effect (use :func:`reset` in tests).
    """
    global _module
    if _module is _UNSET:
        if os.environ.get("REPRO_PURE"):
            _module = None
        else:
            try:
                from repro import _accel  # noqa: F401  (built best-effort)
            except ImportError:
                _module = None
            else:
                _module = _accel if _abi_matches(_accel) else None
    return _module


def _abi_matches(module) -> bool:
    found = getattr(module, "ABI_VERSION", None)
    if found == ABI_VERSION:
        return True
    warnings.warn(
        f"ignoring the repro._accel extension at "
        f"{getattr(module, '__file__', '?')}: its ABI version is "
        f"{'missing' if found is None else found}, this source expects "
        f"{ABI_VERSION}; rebuild it with `python setup.py build_ext "
        f"--inplace` (running on the pure-Python path meanwhile)",
        RuntimeWarning,
        stacklevel=3,
    )
    return False


def accel_available() -> bool:
    """True when the C kernels will actually be used."""
    return load_accel() is not None


def reset() -> None:
    """Forget the cached probe (re-reads ``REPRO_PURE`` on next use)."""
    global _module
    _module = _UNSET
