"""coxrack: reflection racks of finite Coxeter groups, exactly.

Builds finite Coxeter groups with exact cyclotomic root data, the rack
of reflections and its sign cocycles, the index-two central extension
with its canonical section (certifying twist equivalence of the two
cocycles), and Hilbert-series coefficients of the associated Nichols
algebras via quantum symmetrizer ranks.
"""

import os

# numpy reads this when it is first imported.  On the products of
# modlin.matmul_mod a second OpenBLAS thread about doubles CPU time and
# does not lower wall time.  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .coxeter import CoxeterMatrix, GroupTable, build_group, preset_matrix

__all__ = [
    "CoxeterMatrix",
    "GroupTable",
    "build_group",
    "preset_matrix",
    "__version__",
]
