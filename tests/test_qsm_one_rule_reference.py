"""Differential test: N^-beta, the convergence refusal, the Gibbs routes and
group membership against test-local copies of a second rule for each.

The references are the code as it stood when each of these facts had two
rules: `_n_pow_minus_beta`, which picked an exact or a float power of N by
the type of beta; `QsmSystem.check_convergence`, which refused k N^-beta >= 1
apart from `partition_function`; `gibbs_value`, which ran that check and
computed a float Z before choosing its route; and group elements built by
the group without `GroupElement`'s membership check.  Values are compared
with ==, so exact results must agree as fractions and floats bit for bit.
"""

from fractions import Fraction
from math import gcd

import pytest

from dessins import hopf, qsm
from dessins.galois import GaloisGroup, GroupElement, UnknownGroupElement, complex_embed
from dessins.qsm import Divergent, QsmSystem


# --- references ---------------------------------------------------------------------

def ref_is_integer(beta):
    return isinstance(beta, int) or (isinstance(beta, Fraction) and beta.denominator == 1)


def ref_n_pow_minus_beta(N, beta):
    if ref_is_integer(beta):
        b = int(beta)
        return Fraction(1, N ** b) if b >= 0 else Fraction(N ** (-b))
    return float(N) ** (-float(beta))


def ref_k(m):
    """Labels j in Z/m fixed by every unit, counted from scratch."""
    units = [a for a in range(m) if gcd(a, m) == 1]
    return sum(all((a * j) % m == j for a in units) for j in range(m))


def ref_diverges(m, N, beta):
    """k N^-beta >= 1: exactly for integer beta, in floats otherwise."""
    if isinstance(beta, int):
        return ref_k(m) >= N ** beta
    return ref_k(m) * float(N) ** -beta >= 1


def ref_gibbs_value(system, tree, beta, route="closed"):
    if system.k * ref_n_pow_minus_beta(system.N, beta) >= 1:
        raise Divergent(f"k * N^-beta = {system.k} * {system.N}^-{beta} >= 1")
    z = float(qsm.partition_function(beta, system.k, system.N).value)
    if route == "closed":
        if ref_is_integer(beta):
            return complex_embed(qsm.gibbs_closed_exact(system, tree, int(beta)))
        return complex_embed(system.char.on_tree(tree)) / (1 - system.level_ratio(beta)) / z
    return qsm._window_sum(system, tree, route, float(system.N) ** (-float(beta))) / z


def ref_refusal(group, a):
    if not isinstance(a, int):
        return f"{a!r} is not an integer residue modulo {group.m}"
    if a not in group.elements:
        return f"{a} is not in the configured group modulo {group.m}"
    return None


def outcome(fn, *args):
    """("value", type, value) of a call, or ("raises", exception type)."""
    try:
        value = fn(*args)
    except Exception as exc:            # noqa: BLE001 - the type is what is compared
        return ("raises", type(exc))
    return ("value", type(value), value)


# --- N^-beta ------------------------------------------------------------------------

BASES = (2, 3, 10, 19, 97, 10 ** 30)
EXPONENTS = (*range(-3, 6), True, False, Fraction(3), Fraction(-2), Fraction(0),
             Fraction(5, 2), Fraction(-1, 3), Fraction(7, 4), 2.0, 2.5, -1.5, 1e-9)


@pytest.mark.parametrize("N", BASES)
def test_fraction_power_matches_the_typed_power_in_value_type_and_refusal(N):
    for beta in EXPONENTS:
        want = outcome(ref_n_pow_minus_beta, N, beta)
        got = outcome(lambda n, b: Fraction(n) ** -b, N, beta)
        assert got == want, (N, beta)


# --- convergence ------------------------------------------------------------------

ROUTES = ("closed", "series", "trace")


def diverges(fn, *args) -> bool:
    try:
        fn(*args)
    except Divergent:
        return True
    return False


@pytest.mark.parametrize("N", (2, 3, 4))
def test_gibbs_values_refuse_exactly_where_the_word_series_diverges(N):
    for m in range(1, 31):
        system = QsmSystem(m=m, N=N, max_length=3)
        tree = hopf.node(1 % m, hopf.leaf(0))
        for beta in (0, 1, 2, 2.5):
            want = ref_diverges(m, N, beta)
            assert diverges(qsm.gibbs_closed_exact, system, tree, beta) == want, (m, beta)
            for route in ROUTES:
                assert diverges(qsm.gibbs_value, system, tree, beta, route) == want, \
                    (m, beta, route)


class Stop(Exception):
    pass


@pytest.mark.parametrize("N", (2, 3, 4))
def test_verify_system_refuses_a_divergent_series_before_any_check(monkeypatch, N):
    calls = []

    def record(rep, *args, **kwargs):
        calls.append(rep)
        raise Stop                      # the checks themselves are not what is tested

    monkeypatch.setattr(qsm, "verify_crossed_relations", record)
    for m in range(1, 31):
        calls.clear()
        with pytest.raises((Divergent, Stop)) as caught:
            qsm.verify_system(QsmSystem(m=m, N=N, max_length=3))
        assert (caught.type is Divergent) == ref_diverges(m, N, 1), m
        assert len(calls) == (caught.type is Stop), m


# --- the Gibbs routes --------------------------------------------------------------

@pytest.mark.parametrize("m", (1, 5, 12, 60, 97))
def test_gibbs_value_matches_reference_on_every_route(m):
    system = QsmSystem(m=m)
    trees = (hopf.leaf(0), hopf.node(1 % m, hopf.leaf(7 % m)), hopf.node(6 % m, hopf.leaf(0)))
    for beta in (1, 2, 3, 2.5, Fraction(5, 2)):
        for route in ROUTES:
            for t in trees:
                got = qsm.gibbs_value(system, t, beta, route)
                assert got == ref_gibbs_value(system, t, beta, route), (beta, route, t)


# --- group membership --------------------------------------------------------------

def groups():
    yield from (GaloisGroup.full(m) for m in range(1, 61))
    for m, gens in ((12, [5]), (13, [3]), (48, [5, 7]), (60, [7]), (60, [11, 19])):
        yield GaloisGroup.generated(m, gens)


def test_table_elements_are_the_constructed_elements_and_outsiders_are_refused():
    for group in groups():
        for a in group.elements:
            g = group.element(a)
            fresh = GroupElement(group, a)
            assert g == fresh and g.group is group
            assert (g.group, g.a, g.m) == (fresh.group, fresh.a, fresh.m) == (group, a, group.m)
        for a in (2, 14, 5.0, Fraction(5)):
            message = ref_refusal(group, a)
            if message is None:
                assert GroupElement(group, a).a == a
                continue
            with pytest.raises(UnknownGroupElement) as caught:
                GroupElement(group, a)
            assert str(caught.value) == message, (group, a)
