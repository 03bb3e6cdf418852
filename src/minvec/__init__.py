"""minvec: exact verification of minimal-vector test functions on GL_n(Q_p).

The toolkit builds hereditary orders and their radical filtrations, simple
characters and their Heisenberg extensions, the compactly supported test
function attached to a generic induction datum, and the lattice-counting
bounds feeding the amplified pre-trace inequality.  Every computation is
exact: truncated p-adic matrices with explicit precision, rationals, and
formal sums of roots of unity.
"""

from .errors import (BudgetExceeded, ConstructionFailure, DatumInvalid,
                     MinvecError, PrecisionLoss)
from .padic import MatrixApprox, PrecisionCtx
from .orders import (HereditaryOrder, InductionDatum, check_approximation,
                     in_radical_power, is_minimal, k0, v_A)
from .groups import (build_Kpi, build_subgroups, extend_and_induce,
                     heisenberg, intertwines, intertwining_dichotomy,
                     prepare_block, simple_character)
from .testfunc import (concentration_check, convolve_check, depth_report,
                       make_omega, volume)
from .counting import (LatticeQuery, amplifier_exponent, enumerate_S,
                       partition_count, tau_bound)
from .cyclotomic import CyclotomicSum

__version__ = "0.1.0"
