"""The process reference: a fresh interpreter that loads bellhop's
third-party dependencies (numpy, with its OpenBLAS thread pool, and
mpmath) and runs the reference loop once. It never imports bellhop.

Times that include starting a process (`cli` commands, set-up probes) are
normalised by this process's wall time rather than by the in-process loop:
on a shared virtual machine the cost of starting a process and mapping
shared libraries swings independently of the speed of pure-Python work.
"""

import mpmath  # noqa: F401
import numpy  # noqa: F401

from harness import reference_loop

if __name__ == "__main__":
    reference_loop()
