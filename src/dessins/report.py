"""One result type for every verification surface: a Report of named Checks.

A Check says what was checked, whether it held, on how many cases, how long
it took and, when it failed or measured something, a short detail.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    cases: int = 1
    seconds: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        """`ok` and, per check, its name, passed, cases, seconds and detail."""
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


def check_all(name: str, cases, holds, show=repr) -> Check:
    """One Check that `holds(case)` is true for every case; the detail
    names the first few failing cases."""
    start = time.perf_counter()
    cases = list(cases)
    bad = [c for c in cases if not holds(c)]
    detail = ""
    if bad:
        detail = f"{len(bad)} failing, e.g. " + "; ".join(show(c) for c in bad[:3])
    return Check(name, not bad, len(cases), time.perf_counter() - start, detail)
