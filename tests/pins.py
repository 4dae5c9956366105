"""Where the byte pins of the tests were taken.

Pattern bytes also depend on numpy's distribution algorithms, which numpy
does not promise to keep (NEP 19), and some of them on the SIMD kernels numpy
picks for the CPU (its float ufuncs round differently on different targets),
so on another numpy or CPU a pin can fail while every law-level check
(exactpp validate, the acceptance battery) still holds. A failed pin says so
through pin_message.
"""

import sys

import numpy as np

PINNED_ON = "numpy 2.4.6, Python 3.11.7, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def simd_found():
    """The SIMD extensions numpy found on this CPU, as meta.json records them."""
    return np.show_config(mode="dicts")["SIMD Extensions"]["found"]


def pin_message(what, simd=False):
    """The failure message of a byte pin: what differs, the versions and SIMD
    extensions the digest was taken on and those of this run. simd=True marks
    a digest known to depend on numpy's SIMD kernels: it changed with numpy's
    X86_V4 kernels off (NPY_DISABLE_CPU_FEATURES), while every law held."""
    depends = ("; these bytes depend on numpy's SIMD kernels, so another SIMD path "
               "changes them while every law holds" if simd else "")
    return (f"{what} differ from the digest taken on {PINNED_ON}; this run has numpy "
            f"{np.__version__}, Python {'%d.%d.%d' % sys.version_info[:3]}, "
            f"SIMD {' '.join(simd_found()) or 'none'}{depends}")
