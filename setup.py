"""Build script for the repro package (src layout).

All packaging configuration lives here -- there is no ``pyproject.toml``.
The ``repro._accel`` C extension is **optional**: it accelerates the SMP
prefilter hot kernels (see ``src/repro/_accel.c``) but every code path has a
pure-Python fallback, so a failed compile must not fail the install.  The
``optional`` flag plus the forgiving ``build_ext`` below downgrade compiler
errors to a warning.
"""

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Best-effort build: a missing or broken compiler is not fatal."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - compiler-dependent
            self._warn(exc)

    def build_extension(self, ext):
        if self.compiler.compiler_type == "unix":
            # Start every loop on a cache line.  The kernels' hot loops
            # then sit at the same offsets whatever code precedes them in
            # the file, so adding or deleting an unrelated function cannot
            # move them across fetch-line boundaries and change their speed.
            ext.extra_compile_args = [*ext.extra_compile_args, "-falign-loops=64"]
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - compiler-dependent
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "repro._accel failed to build (%s); continuing with the "
            "pure-Python hot paths" % (exc,)
        )


setup(
    name="repro-smp-prefilter",
    version="0.7.0",
    description=(
        "Reproduction of streaming XML prefiltering via string matching "
        "(Koch, Scherzinger, Schweikardt; ICDE 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    ext_modules=[
        Extension(
            "repro._accel",
            sources=["src/repro/_accel.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
