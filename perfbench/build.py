"""Build and load the program under test.

The benchmark runs from the root of a source checkout that holds no build
products.  It compiles the ``repro._accel`` C extension with the
repository's own ``setup.py`` into ``.bench_build/accel`` (rebuilt only
when ``_accel.c``, ``setup.py`` or the interpreter changed), puts ``src``
on ``sys.path`` and loads the extension from the build directory.

The benchmark measures the native delivery only: a missing compiler, an
extension that does not load, ``REPRO_PURE``/``REPRO_DELIVERY`` set in the
environment, or an engine that resolves to another delivery is an error,
never a silent fall back to the pure-Python path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid measurement."""


def build_dir(root: Path) -> Path:
    return root / ".bench_build"


def _accel_sources(root: Path) -> list[Path]:
    sources = [root / "setup.py", root / "src" / "repro" / "_accel.c"]
    missing = [str(path) for path in sources if not path.is_file()]
    if missing:
        raise BenchmarkError(
            f"not a repro source checkout (missing {', '.join(missing)}); "
            "run the benchmark from the repository root"
        )
    return sources


def ensure_accel(root: Path) -> Path:
    """Compile the C extension if needed; returns the build's lib directory."""
    stamp = hashlib.sha256(sys.version.encode())
    for path in _accel_sources(root):
        stamp.update(path.read_bytes())
    target = build_dir(root) / "accel"
    lib = target / "lib"
    stamp_file = target / "stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp.hexdigest() \
            and list((lib / "repro").glob("_accel*.so")):
        return lib
    target.mkdir(parents=True, exist_ok=True)
    stamp_file.unlink(missing_ok=True)
    command = [
        sys.executable, "setup.py", "build_ext",
        "--build-lib", str(lib), "--build-temp", str(target / "tmp"),
    ]
    completed = subprocess.run(
        command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=600,
    )
    sys.stderr.write(completed.stdout)
    if completed.returncode != 0 or not list((lib / "repro").glob("_accel*.so")):
        raise BenchmarkError("building repro._accel failed; see the log above")
    stamp_file.write_text(stamp.hexdigest())
    return lib


def load_repro(root: Path, lib: Path):
    """Import ``repro`` from ``src`` with the extension from ``lib``; returns
    the loaded extension module."""
    for variable in ("REPRO_PURE", "REPRO_DELIVERY"):
        if os.environ.get(variable):
            raise BenchmarkError(
                f"{variable} is set; the benchmark measures the native "
                "delivery only"
            )
    sys.path.insert(0, str(root / "src"))
    import repro
    from repro.accel import load_accel

    # The build directory goes first, so a stale in-place build under src/
    # cannot shadow the extension compiled from the current source.
    repro.__path__.insert(0, str(lib / "repro"))
    accel = load_accel()
    if accel is None or not Path(accel.__file__).is_relative_to(lib):
        raise BenchmarkError("repro._accel did not load from the benchmark build")
    for kernel in ("find_token", "compile_step", "step_events"):
        if not hasattr(accel, kernel):
            raise BenchmarkError(f"repro._accel lacks the {kernel} kernel")
    return accel


def require_native(engine) -> str:
    """Fail unless ``engine``'s sessions resolve to the native delivery."""
    from repro.core.multi import MultiQueryEngine

    if engine.mode == "search":
        delivery = engine.plans[0].session(binary=True).delivery
    else:
        shared = MultiQueryEngine(
            engine.dtd, engine.plans, backend=engine.queries[0].backend
        )
        delivery = shared.session(binary=True).delivery
    if delivery != "accel":
        raise BenchmarkError(
            f"engine resolved to the {delivery!r} delivery, not native 'accel'"
        )
    return delivery


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    digest.update((root / "setup.py").read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return completed.stdout.strip() or None


def provenance(root: Path, accel) -> dict:
    """Where and on what a result was measured."""
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "accel_loaded": accel is not None,
        "accel_file": os.path.relpath(accel.__file__, root),
        "delivery": "accel",
    }
