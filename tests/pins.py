"""Where the byte pins of the tests were taken.

Pattern bytes also depend on numpy's distribution algorithms, which numpy
does not promise to keep (NEP 19), so on another numpy a pin can fail while
every law-level check (exactpp validate, the acceptance battery) still holds.
A failed pin says so through pin_message.
"""

import sys

import numpy as np

PINNED_ON = "numpy 2.4.6, Python 3.11.7"


def pin_message(what):
    """The failure message of a byte pin: what differs, the versions the digest
    was taken on and the versions of this run."""
    return (f"{what} differ from the digest taken on {PINNED_ON}; this run has numpy "
            f"{np.__version__}, Python {'%d.%d.%d' % sys.version_info[:3]}")
