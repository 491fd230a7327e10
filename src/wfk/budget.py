"""The one brute-force budget: every loop that grows faster than linearly in
a group order passes its element count to `check_budget`, against
DEFAULT_BUDGET or its override (WFK_BUDGET, `budget_override`, the CLI's
`--budget`), a positive integer.  The only other size ceiling is the memory
bound of an explicit permutation table, `wreath._EXPLICIT_TABLE_LIMIT` (8000
elements), checked by `wreath.wreath_table` for every Gamma_n table and so
for S_n, the Gamma_n of the trivial group: `symmetric:8` (40,320 elements)
passes the default budget and is refused by the ceiling."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 50_000  # element-count ceiling for brute-force group loops


class BudgetExceeded(RuntimeError):
    """A brute-force loop would exceed the configured element budget."""


_override: ContextVar[int | None] = ContextVar("wfk_budget", default=None)


def budget() -> int:
    """Element-count ceiling: the innermost `budget_override`, else the
    WFK_BUDGET environment variable (a positive integer, else ValueError),
    else DEFAULT_BUDGET."""
    override = _override.get()
    if override is not None:
        return override
    raw = os.environ.get("WFK_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    if not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"WFK_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


@contextmanager
def budget_override(cap: int | None):
    """Use `cap` as the element-count ceiling inside the block (None: no override)."""
    token = _override.set(cap)
    try:
        yield
    finally:
        _override.reset(token)


def check_budget(size: int, what: str) -> None:
    cap = budget()
    if size > cap:
        raise BudgetExceeded(f"{what}: {size} elements exceeds budget {cap}")
