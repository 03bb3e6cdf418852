"""minvec: exact verification of minimal-vector test functions on GL_n(Q_p).

The toolkit builds hereditary orders and their radical filtrations, simple
characters and their Heisenberg extensions, the compactly supported test
function attached to a generic induction datum, and the lattice-counting
bounds feeding the amplified pre-trace inequality.  Every computation is
exact: integer matrices with a p-power scale, residues mod p^L, rationals,
and formal sums of roots of unity.
"""

__version__ = "0.1.0"
