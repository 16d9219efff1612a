"""Every module-level `functools.lru_cache` in the library has a finite bound,
values cached on an instance live only on instances that cannot change, each
Galois group keeps one table of its elements, each projection keeps only the
split images it was asked for, and slotted values are immutable."""

import copy
import dataclasses
import functools
import importlib
import inspect
import itertools
import pickle
import pkgutil
from math import comb, gcd

import pytest

import dessins
from dessins import galois, hopf, strata


def modules():
    for info in pkgutil.iter_modules(dessins.__path__):
        yield importlib.import_module(f"dessins.{info.name}")


def lru_wrappers():
    for module in modules():
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                yield f"{module.__name__}.{name}", value


def test_every_lru_cache_is_bounded():
    found = dict(lru_wrappers())
    assert {"dessins.galois.cyclotomic_polynomial", "dessins.galois._powers",
            "dessins.galois._sparse_powers",
            "dessins.strata._flag_names", "dessins.strata._projector",
            "dessins.strata._split_graph", "dessins.operads._bracketing_tree"} <= set(found)
    unbounded = [name for name, fn in found.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_cached_properties_live_only_on_frozen_dataclasses():
    # a cached value on a mutable instance goes stale when a field it was
    # derived from is assigned
    owners = {f"{cls.__module__}.{cls.__qualname__}": cls
              for module in modules()
              for cls in vars(module).values()
              if inspect.isclass(cls) and cls.__module__ == module.__name__
              and any(isinstance(v, functools.cached_property) for v in vars(cls).values())}
    assert "dessins.qsm.QsmSystem" in owners
    mutable = [name for name, cls in owners.items()
               if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)]
    assert mutable == []


def test_each_group_builds_its_element_table_once():
    for m in range(1, 61):
        group = galois.GaloisGroup.full(m)
        table = group._element_table
        assert len(table) == sum(gcd(a, m) == 1 for a in range(m))
        assert group._element_table is table
        assert all(group.element(a) is table[a] for a in group.elements)


def test_each_projection_keeps_one_image_per_split_it_was_asked_for():
    # a table over every mask would grow as 2^n with the label count n
    strata._projector.cache_clear()
    asked = {}
    for n in range(3, 8):
        labels = range(n)
        for s in (s for group in strata.enumerate_strata(labels).values() for s in group):
            for k in range(3, n + 1):
                for target in itertools.combinations(labels, k):
                    strata.admissible_projection(s, target)
                    asked.setdefault((s.order, frozenset(target)), set()).update(s.splits)
    assert len(asked) == sum(comb(n, k) for n in range(3, 8) for k in range(3, n + 1))
    assert strata._projector.cache_info().currsize == len(asked)
    for (order, target), masks in asked.items():
        _, image = strata._projector(order, target)
        assert image.keys() == masks
    assert strata._projector.cache_info().misses == len(asked)


# A sample of each slotted class that declares itself immutable by its own
# `__setattr__`.
SLOTTED_VALUES = {
    "dessins.galois.CyclotomicNumber": lambda: galois.zeta(12) / 3,
    "dessins.hopf._Polynomial": lambda: hopf._Polynomial({"x": 1}),
    "dessins.hopf.ForestPolynomial": lambda: hopf.ForestPolynomial.generator(0),
    "dessins.hopf.PairPolynomial": lambda: hopf.PairPolynomial.of((0,), ()),
    "dessins.strata.Stratum": lambda: strata.two_part_tree({1, 2}, {3, 4}),
}


def test_slotted_values_have_no_dict_and_refuse_assignment():
    found = {f"{cls.__module__}.{cls.__qualname__}": cls
             for module in modules()
             for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == module.__name__
             and "__slots__" in vars(cls) and cls.__setattr__ is not object.__setattr__}
    assert set(found) == set(SLOTTED_VALUES)
    for name, cls in found.items():
        value = SLOTTED_VALUES[name]()
        assert type(value) is cls and not hasattr(value, "__dict__")
        for attr in [a for a in cls.__slots__ if not a.startswith("_")] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, attr, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, attr)


def test_a_polynomial_stays_findable_as_a_dict_key_and_survives_a_copy():
    def poly():
        return hopf.ForestPolynomial.generator(0) + hopf.ForestPolynomial.one()

    p = poly()
    found = {p: 1}
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.terms = {}
    with pytest.raises(TypeError):
        p.terms[hopf.EMPTY_FOREST] = 2
    with pytest.raises(TypeError):
        del p.terms[hopf.EMPTY_FOREST]
    assert found[p] == 1 and found[poly()] == 1
    for q in (p, hopf.PairPolynomial.of((0,), ())):
        for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert type(twin) is type(q) and twin == q and twin.terms is not q.terms
            with pytest.raises(TypeError):
                twin.terms[None] = 1
