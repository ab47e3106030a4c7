"""The kernel binding: `kernel` is duorth's one kernel, the pure-Python
module duorth._kernel_py, and its primitives are re-exported here."""
from . import _kernel_py as kernel
from ._kernel_py import *  # noqa: F401,F403 (the names in kernel.__all__)

BACKEND = "python"
