"""Brute-force budgets shared by the group-theoretic modules."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 50_000  # element-count ceiling for brute-force group loops
CONVOLUTION_PAIR_BUDGET = 100_000  # per class-pair product loop
ORBIFOLD_BUDGET = 10_000  # group order in the commuting-pair sum


class BudgetExceeded(RuntimeError):
    """A brute-force loop would exceed the configured element budget."""


_override: ContextVar[int | None] = ContextVar("wfk_budget", default=None)


def budget() -> int:
    """Element-count ceiling: the innermost `budget_override`, else the
    WFK_BUDGET environment variable, else DEFAULT_BUDGET."""
    override = _override.get()
    if override is not None:
        return override
    raw = os.environ.get("WFK_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    return int(raw)


@contextmanager
def budget_override(cap: int | None):
    """Use `cap` as the element-count ceiling inside the block (None: no override)."""
    token = _override.set(cap)
    try:
        yield
    finally:
        _override.reset(token)


def check_budget(size: int, what: str, limit: int | None = None) -> None:
    cap = budget() if limit is None else limit
    if size > cap:
        raise BudgetExceeded(f"{what}: {size} elements exceeds budget {cap}")
