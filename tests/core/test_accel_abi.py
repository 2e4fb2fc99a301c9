"""The accelerator loader refuses an extension built for another ABI."""

from __future__ import annotations

import sys
import types

import pytest

import repro
from repro import accel


@pytest.fixture
def fake_extension(monkeypatch):
    """Install a stand-in ``repro._accel`` module; re-probe around the test."""
    monkeypatch.delenv("REPRO_PURE", raising=False)

    def install(**attributes):
        module = types.ModuleType("repro._accel")
        module.__file__ = "/stale/_accel.cpython-311-x86_64-linux-gnu.so"
        for name, value in attributes.items():
            setattr(module, name, value)
        monkeypatch.setitem(sys.modules, "repro._accel", module)
        monkeypatch.setattr(repro, "_accel", module, raising=False)
        return module

    accel.reset()
    yield install
    accel.reset()


def test_matching_abi_loads(fake_extension):
    module = fake_extension(ABI_VERSION=accel.ABI_VERSION)
    assert accel.load_accel() is module
    assert accel.accel_available()


@pytest.mark.parametrize("attributes, shown", [
    ({}, "missing"),
    ({"ABI_VERSION": accel.ABI_VERSION + 1}, str(accel.ABI_VERSION + 1)),
    # The previous ABI (step_events returned span triples instead of
    # filling per-query output buffers): its version alone must refuse it.
    ({"ABI_VERSION": accel.ABI_VERSION - 1}, str(accel.ABI_VERSION - 1)),
])
def test_stale_build_is_unavailable_with_one_warning(
    fake_extension, attributes, shown
):
    fake_extension(**attributes)
    with pytest.warns(RuntimeWarning) as caught:
        assert accel.load_accel() is None
        assert not accel.accel_available()  # cached: no second warning
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "/stale/_accel.cpython-311-x86_64-linux-gnu.so" in message
    assert f"ABI version is {shown}" in message
    assert f"expects {accel.ABI_VERSION}" in message
    assert "python setup.py build_ext --inplace" in message


def test_pure_override_skips_the_probe(fake_extension, monkeypatch):
    fake_extension()
    monkeypatch.setenv("REPRO_PURE", "1")
    assert accel.load_accel() is None


def test_built_extension_matches_this_source():
    module = accel.load_accel()
    if module is None:
        pytest.skip("repro._accel extension not built (or REPRO_PURE=1)")
    assert module.ABI_VERSION == accel.ABI_VERSION
