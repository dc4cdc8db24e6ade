"""The value records: construction, equality, hash, repr, immutability, validation."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from satorbits import (
    AgentState,
    GainParams,
    IntervalConstraint,
    NsModel,
    OrbitPlan,
    Partition,
    PatternSpec,
    Trajectory,
    WeightedGraph,
    simulate,
)
from satorbits.cli import RunConfig
from satorbits.graphs import GraphFormatError
from satorbits.verify import PatternReport

PARTITION = Partition(0, (0, 1), frozenset({0}), frozenset({1}), ((0, 1, F(1)),), (), F(1))
STATES = (AgentState(F(1), F(-1)), AgentState(F(0), F(1)))

#: one instance's field values per record type
VALUES = {
    AgentState: (F(1), F(-1, 2)),
    GainParams: (F(2, 5), F(21, 50)),
    NsModel: (F(1, 2),),
    WeightedGraph: (2, (((1, F(1)),), ((0, F(1)),))),
    Partition: tuple(PARTITION),
    IntervalConstraint: (0, 1, F(1, 4), F(3, 4)),
    PatternSpec: (11,),
    OrbitPlan: ("di", None, GainParams(F(2, 5), F(21, 50)), PARTITION, 3, STATES),
    PatternReport: (False, ((1, 0, F(1, 2)),)),
    RunConfig: ("ns", F(1, 2), F(-1, 2), F(2), 2, None, 8, None, None, "exact", None),
    Trajectory: ("di", None, (STATES,), (), (), None),
}
RECORDS = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@RECORDS
def test_keyword_and_positional_construction_agree(cls):
    values = VALUES[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in cls._fields] == list(values)


@RECORDS
def test_equal_only_to_a_record_of_its_own_class(cls):
    record = cls(*VALUES[cls])
    assert record == cls(*VALUES[cls]) and not record != cls(*VALUES[cls])
    assert hash(record) == hash(cls(*VALUES[cls]))
    assert record != tuple(record) and not record == tuple(record)


def test_a_changed_field_or_another_class_is_unequal():
    assert AgentState(F(1), F(2)) != AgentState(F(1), F(3))
    assert GainParams(F(1), F(2)) != AgentState(F(1), F(2))


@RECORDS
def test_repr_names_every_field(cls):
    record = cls(*VALUES[cls])
    fields = [name for name in cls._fields if name != "lattice"]
    values = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({values})"


@RECORDS
def test_immutable_and_unordered(cls):
    record = cls(*VALUES[cls])
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], VALUES[cls][0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        record < record


@RECORDS
def test_replace_builds_a_new_record_of_its_class(cls):
    record = cls(*VALUES[cls])
    copy = record._replace(**{cls._fields[-1]: VALUES[cls][-1]})
    assert copy == record and copy is not record and type(copy) is cls


def test_replace_changes_only_the_given_fields():
    assert AgentState(F(1), F(2))._replace(v=F(3)) == AgentState(F(1), F(3))
    config = RunConfig()._replace(model="ns", a=F(1, 2))
    assert config == RunConfig(model="ns", a=F(1, 2))


def test_defaults():
    defaults = ("di", None, None, None, 1, None, None, None, None, "exact", None)
    assert RunConfig() == RunConfig(*defaults)
    assert Trajectory("di", None, (STATES,), (), ()).lattice is None


def test_trajectory_lattice_takes_no_part_in_eq_hash_or_repr(graph7, gains_di):
    init = [AgentState(F(0), F(0))] * graph7.n
    t = simulate(graph7, gains_di, init, 3)
    assert t.lattice is not None
    bare = t._replace(lattice=None)
    assert t == bare and hash(t) == hash(bare) and repr(t) == repr(bare)
    assert "lattice" not in repr(t)
    assert t != t._replace(model="ns")


@pytest.mark.parametrize("a", [F(1), F(-1), F(0), F(3, 2), 0.0])
def test_ns_model_validation_message(a):
    with pytest.raises(ValueError) as caught:
        NsModel(a)
    assert str(caught.value) == f"rotation parameter must be in (-1,1)\\{{0}}, got {a}"
    with pytest.raises(ValueError, match="rotation parameter"):
        NsModel(F(1, 2))._replace(a=a)


@pytest.mark.parametrize(
    "n,adjacency,message",
    [
        (0, (), "graph needs at least one agent"),
        (2, ((),), "adjacency has 1 rows for 2 agents"),
        (2, (((1, F(1)),), ((0, F(2)),)), "adjacency not symmetric at agent 2"),
        (2, (((1, F(0)),), ((0, F(0)),)), "edge weight on (1, 2) is negative or zero"),
        (1, (((0, F(1)),),), "self-loop on agent 1"),
        (2, (((2, F(1)),), ()), "agent 1: neighbor 3 out of range 1..2"),
        (
            2,
            (([1, F(1)],), ()),
            "agent 1: entry [1, Fraction(1, 1)] is not a (neighbor, weight) pair",
        ),
    ],
)
def test_weighted_graph_validation_message(n, adjacency, message):
    with pytest.raises(GraphFormatError) as caught:
        WeightedGraph(n, adjacency)
    assert str(caught.value) == message
    graph = WeightedGraph(*VALUES[WeightedGraph])
    with pytest.raises(GraphFormatError) as caught:
        graph._replace(n=n, adjacency=adjacency)
    assert str(caught.value) == message


def test_weighted_graph_stores_tuples():
    graph = WeightedGraph(2, [[(1, F(1))], [(0, F(1))]])
    assert graph.adjacency == (((1, F(1)),), ((0, F(1)),))
    assert graph == WeightedGraph(*VALUES[WeightedGraph])
