"""minvec: exact verification of minimal-vector test functions on GL_n(Q_p).

The toolkit builds hereditary orders and their radical filtrations, simple
characters and their Heisenberg extensions, the compactly supported test
function attached to a generic induction datum, and the lattice-counting
bounds feeding the amplified pre-trace inequality.  Every computation is
exact: integer matrices with a p-power scale, residues mod p^L, rationals,
and formal sums of roots of unity.

Every kernel is integer arithmetic, which numpy does without BLAS, so the
OpenBLAS worker threads that `import numpy` starts are never given work;
their start-up and spin-wait cost each process 70 to 100 ms of CPU on a
2-core host and compete with the main thread.  Unless the caller set it,
OPENBLAS_NUM_THREADS is 1, which takes effect when minvec is imported
before numpy, as in every command-line run.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
