import cmath
import gc
import math
import time

import pytest

from oracles import frobenius_step
from wittkit.ntheory import euler_phi
from wittkit.orbits import (
    FiniteLevelPoint,
    evaluate_integer,
    frobenius_equivariance_check,
    frobenius_power,
    orbit_of,
    packet_report,
    packet_summary,
)


def test_point_validation():
    P = FiniteLevelPoint(2, 3, 1)
    assert P.m == 7
    assert P.faithful
    assert not FiniteLevelPoint(2, 3, 0).faithful
    with pytest.raises(ValueError):
        FiniteLevelPoint(4, 2, 1)
    with pytest.raises(ValueError):
        FiniteLevelPoint(2, 0, 1)
    with pytest.raises(ValueError):
        FiniteLevelPoint(2, 3, 7)  # label must be reduced mod m


def test_frobenius_action():
    P = FiniteLevelPoint(2, 3, 1)
    assert frobenius_step(P).a == 2
    assert frobenius_power(P, 4).a == 4
    assert frobenius_power(P, 8).a == 1  # full cycle: 2^3 = 1 mod 7
    assert orbit_of(P) == [
        FiniteLevelPoint(2, 3, 1),
        FiniteLevelPoint(2, 3, 2),
        FiniteLevelPoint(2, 3, 4),
    ]


def test_packet_summary_f8():
    s = packet_summary(2, 3)
    assert s.orbit_count == 2
    assert s.orbit_length == 3
    assert s.faithful_count == 6
    assert s.suspension_length == 3 * math.log(2)


def test_packet_summary_degenerate_level():
    # p^1 with p = 2: the character group is trivial
    s = packet_summary(2, 1)
    assert s.orbit_count == 1
    assert s.orbit_length == 1
    assert s.faithful_count == 1


def test_packet_counts_match_phi():
    for p, n in [(2, 4), (3, 2), (5, 3), (7, 2), (11, 1)]:
        s = packet_summary(p, n)
        m = p**n - 1
        assert s.orbit_count * s.orbit_length == euler_phi(m)
        assert s.orbit_count == euler_phi(m) // n


def test_packet_report_listing():
    report = packet_report(2, 3)
    assert report["orbit_count"] == 2
    assert report["orbits"] == [(1, 2, 4), (3, 6, 5)]
    assert report["generator"] == "t"
    # above the listing limit the orbits are omitted with a reason
    big = packet_report(2, 20, list_limit=10)
    assert big["orbits"] is None
    assert "listing limit" in big["orbits_omitted"]


def test_orbit_rows_are_plain_tuples_the_collector_untracks():
    # a listed orbit is an exact tuple of ints, untracked at the first
    # collection, so a listing of thousands of orbits adds nothing to later
    # full ones; a list row would stay tracked for as long as the listing
    orbits = packet_report(13, 4)["orbits"] + packet_report(1009, 1)["orbits"]
    assert len(orbits) == euler_phi(13**4 - 1) // 4 + euler_phi(1008)
    gc.collect()
    assert all(type(orbit) is tuple for orbit in orbits)
    assert not any(gc.is_tracked(orbit) for orbit in orbits)


def test_packet_size_limit():
    with pytest.raises(ValueError, match="above the cap 1000000000"):
        packet_summary(2, 31)


def test_packet_summary_needs_no_walk():
    # phi(m)/n from the factors of m: the largest levels answer at once,
    # where a walk over the 10^9 indices of 999999937 would take minutes
    for p, n in [(3, 13), (1000003, 1), (999999937, 1)]:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            s = packet_summary(p, n)
            best = min(best, time.perf_counter() - start)
        assert best < 0.005, (p, n, best)
        assert s.orbit_count * n == s.faithful_count == euler_phi(p**n - 1)
    assert packet_summary(999999937, 1).faithful_count == 303796224
    report = packet_report(999999937, 1)
    assert report["orbits"] is None and report["orbit_count"] == 303796224


def test_evaluate_integer_basics():
    P = FiniteLevelPoint(5, 1, 1)  # character of F_5^x, generator 2
    assert evaluate_integer(5, P) == 0j
    assert evaluate_integer(10, P) == 0j
    # chi(2) = e^{2 pi i /4} since dlog_2(2) = 1 and m = 4
    assert abs(evaluate_integer(2, P) - 1j) < 1e-12
    assert abs(evaluate_integer(4, P) + 1) < 1e-12
    assert abs(evaluate_integer(1, P) - 1) < 1e-12


def test_evaluate_integer_multiplicative():
    P = FiniteLevelPoint(7, 2, 5)
    for f in (2, 3, 4, 5, 6, 8):
        for g in (2, 3, 9, 11):
            lhs = evaluate_integer(f * g, P)
            rhs = evaluate_integer(f, P) * evaluate_integer(g, P)
            assert abs(lhs - rhs) < 1e-9


def test_evaluate_integer_additivity_fails():
    # the pairing is multiplicative, not additive; witness the failure
    P = FiniteLevelPoint(5, 1, 1)
    lhs = evaluate_integer(1 + 1, P)
    rhs = evaluate_integer(1, P) + evaluate_integer(1, P)
    assert abs(lhs - rhs) > 0.5


def test_frobenius_equivariance():
    P = FiniteLevelPoint(5, 2, 7)
    for f in (2, 3, 11):
        for nu in (5, 7, 11, 25):
            assert frobenius_equivariance_check(f, P, nu)
    with pytest.raises(ValueError, match="not invertible"):
        frobenius_equivariance_check(2, P, 6)  # gcd(6, 24) > 1


def test_evaluate_unit_circle():
    P = FiniteLevelPoint(3, 2, 3)
    for f in (1, 2, 4, 5, 7, 8):
        z = evaluate_integer(f, P)
        assert abs(abs(z) - 1) < 1e-12
