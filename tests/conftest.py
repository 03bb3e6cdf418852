import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = REPO / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

sys.path.insert(0, str(REPO / "src"))

from minvec.orders import HereditaryOrder, InductionDatum


def build_datum(p, n, e, entries, scale, strict=True):
    """The datum beta = p^scale * entries over the period-e order of M_n."""
    return InductionDatum.build(HereditaryOrder(n, e), p, entries, scale,
                                strict=strict)


@pytest.fixture(scope="session")
def datum_a():
    """Ramified quadratic, depth 1: beta = Pi^{-1} at p = 3."""
    return build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)


@pytest.fixture(scope="session")
def datum_b():
    """Ramified quadratic, depth 3: beta = Pi^{-3} at p = 3."""
    return build_datum(3, 2, 2, [[0, 1], [3, 0]], -2)


@pytest.fixture(scope="session")
def datum_c():
    """Unramified quadratic, depth 2: beta = p^{-2} u at p = 3."""
    return build_datum(3, 2, 1, [[0, 1], [1, 1]], -2)


@pytest.fixture(scope="session")
def datum_nonminimal():
    """beta = Pi^{-2} = p^{-1}: fails the coprimality clause."""
    return build_datum(3, 2, 2, [[1, 0], [0, 1]], -1, strict=False)


@pytest.fixture(scope="session")
def block_a(datum_a):
    from minvec.groups import prepare_block
    return prepare_block(datum_a)


@pytest.fixture(scope="session")
def block_b(datum_b):
    from minvec.groups import prepare_block
    return prepare_block(datum_b)


@pytest.fixture(scope="session")
def block_c(datum_c):
    from minvec.groups import prepare_block
    return prepare_block(datum_c)


@pytest.fixture(scope="session")
def parabolic_kr():
    from minvec.groups import build_Kpi, prepare_block
    d1 = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)
    d2 = build_datum(3, 2, 2, [[0, 1], [-3, 0]], -1)
    return build_Kpi([prepare_block(d1), prepare_block(d2)],
                     inequivalent_assertion=True)


@pytest.fixture(scope="session")
def kr_a(block_a):
    from minvec.groups import build_Kpi
    return build_Kpi([block_a])


@pytest.fixture(scope="session")
def kr_b(block_b):
    from minvec.groups import build_Kpi
    return build_Kpi([block_b])


@pytest.fixture(scope="session")
def kr_c(block_c):
    from minvec.groups import build_Kpi
    return build_Kpi([block_c])
