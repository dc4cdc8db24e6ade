from __future__ import annotations

from fractions import Fraction

import pytest

from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    fixture_path,
    make_partition,
    parse_graph,
)

REFERENCE_X0 = ["21", "16.02", "16.02", "15", "20", "21.5", "18"]
REFERENCE_V0 = ["-5.5", "5.5", "5.5", "5.5", "-5.5", "-5.5", "-5.5"]
#: the paper's 4-decimal interval table for graph7 at m = 11, by 0-based cross
#: edge; the (7,3) lower bound is printed truncated (exact value 403/340 =
#: 1.18529...), so a check at 5e-5 takes it as rounded
REFERENCE_INTERVALS = {
    (0, 1): ("2.1167", "8.8833"),
    (0, 2): ("4.6167", "6.3833"),
    (0, 3): ("2.5333", "8.4667"),
    (4, 1): ("1.5370", "9.4630"),
    (5, 2): ("5.4500", "5.5500"),
    (6, 2): ("1.1853", "9.8147"),
}


@pytest.fixture(scope="session")
def graph7():
    return parse_graph(fixture_path("graph7.txt").read_text())


@pytest.fixture(scope="session")
def partition7(graph7):
    return make_partition(graph7, 0)


@pytest.fixture(scope="session")
def gains_di():
    return GainParams(Fraction("0.4"), Fraction("0.42"))


@pytest.fixture(scope="session")
def gains_ns():
    return GainParams(Fraction("-0.5"), Fraction(2))


@pytest.fixture(scope="session")
def ns_model():
    return NsModel(Fraction("0.5"))


@pytest.fixture(scope="session")
def reference_init_di():
    return tuple(
        AgentState(Fraction(x), Fraction(v)) for x, v in zip(REFERENCE_X0, REFERENCE_V0)
    )
