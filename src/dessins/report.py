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
    return check_together([(name, holds)], cases, show)[0]


def check_together(checks, cases, show=repr) -> list[Check]:
    """One Check per (name, holds) pair of `checks`, as `check_all` makes it,
    over the same cases in one pass: every holds sees a case before any sees
    the next, so what one leaves memoised for a case is still there for the
    others.  Each Check counts only the time spent in its own holds."""
    cases = list(cases)
    bad = [[] for _ in checks]
    seconds = [0.0] * len(checks)
    for c in cases:
        for k, (_, holds) in enumerate(checks):
            start = time.perf_counter()
            if not holds(c):
                bad[k].append(c)
            seconds[k] += time.perf_counter() - start
    return [Check(name, not b, len(cases), s,
                  f"{len(b)} failing, e.g. " + "; ".join(show(c) for c in b[:3]) if b else "")
            for (name, _), b, s in zip(checks, bad, seconds)]
