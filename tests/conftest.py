"""Test-session set-up: pin OpenBLAS to one thread.

A threaded OpenBLAS next to a busy core made the convex solves about ten
times slower.  OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy is
first imported, so this file must run before anything imports numpy; an
explicit setting in the environment is kept.
"""

import os
import sys

NUMPY_IMPORTED_BEFORE_PIN = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
