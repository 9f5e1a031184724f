"""The module that serves the hot row operations.

Callers reach every operation through the module attribute, e.g.
``backend.ops.row_softmax``, so that a profiler can swap ``ops`` for a
timing proxy and see every call.
"""

from . import _ops_numpy

ops = _ops_numpy
active_name = "python"
