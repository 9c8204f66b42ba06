"""There is no compiled tier: placement and distance rows run on numpy.

:data:`HAS_NUMBA` stays as a constant because the benchmark's run
metadata (``perfbench/run.py``) reads this name to record which kernel
ran.
"""

HAS_NUMBA = False
