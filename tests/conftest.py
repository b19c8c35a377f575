"""Shared test plumbing.

Acceptance verdicts are collected and echoed at the end: verdict lines are
printed inside the tests too, but stdout of passing tests is captured, so
repeating them in the terminal summary makes every run show one line per
acceptance criterion.

`BITWISE_BLAS` says whether the bit-for-bit checks run; the report header
names the NumPy and OpenBLAS setup it was decided from.
"""

import ctypes
import glob
import os

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def _openblas_setup() -> tuple[str, str, int] | None:
    """NumPy's OpenBLAS at run time: (version, kernel core, threads), or
    None when NumPy uses another BLAS or the library cannot be queried."""
    wheel_libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(wheel_libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))
        for prefix, suffix in names:
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                core = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.argtypes = core.argtypes = threads.argtypes = []
            config.restype = core.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode().split()[1], core().decode(), threads()
    return None


# Each block of a batched product is the same BLAS call, with the same
# shapes, as the product of that block's rows alone, so the bits agree if
# the BLAS gives equal bits for equal calls. That was checked with NumPy 2.4
# and its OpenBLAS 0.3.31, forcing each of these x86-64 kernels
# (OPENBLAS_CORETYPE) with 1 and 2 threads. Elsewhere (MKL, say, may round
# differently at other memory alignments) the bit-for-bit checks are
# skipped and only the agreement to a tolerance is tested.
CHECKED_KERNELS = {"SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai"}
OPENBLAS = _openblas_setup()
BITWISE_BLAS = (
    np.__version__.startswith("2.4.")
    and OPENBLAS is not None
    and OPENBLAS[0].startswith("0.3.31")
    and OPENBLAS[1] in CHECKED_KERNELS
    and OPENBLAS[2] <= 2
)


def pytest_report_header(config):
    blas = "not found" if OPENBLAS is None else (
        f"{OPENBLAS[0]}, core {OPENBLAS[1]}, {OPENBLAS[2]} thread(s)"
    )
    return (
        f"numpy {np.__version__}; OpenBLAS {blas}; "
        f"BITWISE_BLAS {'on' if BITWISE_BLAS else 'off'} (bit-for-bit checks "
        f"{'run' if BITWISE_BLAS else 'skipped'})"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
