"""Every module-level `functools.lru_cache` in the library has a finite bound."""

import importlib
import pkgutil

import dessins


def lru_wrappers():
    for info in pkgutil.iter_modules(dessins.__path__):
        module = importlib.import_module(f"dessins.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                yield f"{module.__name__}.{name}", value


def test_every_lru_cache_is_bounded():
    found = dict(lru_wrappers())
    assert {"dessins.galois.cyclotomic_polynomial", "dessins.galois._powers",
            "dessins.strata._flag_names"} <= set(found)
    unbounded = [name for name, fn in found.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
