"""Every module-level `functools.lru_cache` in the library has a finite bound,
and values cached on an instance live only on instances that cannot change."""

import dataclasses
import functools
import importlib
import inspect
import pkgutil

import dessins


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
