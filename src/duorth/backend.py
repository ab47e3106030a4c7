"""The kernel binding: `kernel` is duorth's one kernel, the pure-Python
module duorth._kernel_py, and its primitives are re-exported here."""
from . import _kernel_py as kernel

BACKEND = "python"

Rat = kernel.Rat
pnorm = kernel.pnorm
padd = kernel.padd
psub = kernel.psub
pneg = kernel.pneg
pscale = kernel.pscale
pmul = kernel.pmul
pderiv = kernel.pderiv
mact = kernel.mact
mleft = kernel.mleft
mderive = kernel.mderive
