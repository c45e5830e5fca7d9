"""Scheduler portfolio: evaluate several pipelines, keep the best per instance.

Members are pipeline specs (see :mod:`repro.pipeline`); the legacy member
names remain valid aliases (:data:`MEMBER_SPECS` pins each to its canonical
spec).  Public API: :class:`Portfolio`, :class:`PortfolioResult`,
:func:`run_member`, :func:`resolve_member`, :data:`DEFAULT_MEMBERS`,
:func:`available_members`, :func:`is_pruned` and
:func:`format_portfolio_table`.
"""

from repro.portfolio.members import (
    DEFAULT_MEMBERS,
    MEMBER_SPECS,
    PRUNED_STATUS_PREFIX,
    REFINE_SUFFIX,
    available_members,
    is_pruned,
    is_prunable_member,
    is_refined_member,
    member_descriptions,
    resolve_member,
    run_member,
    schedule_digest,
)
from repro.portfolio.portfolio import (
    Portfolio,
    PortfolioResult,
    format_portfolio_table,
    reduce_to_portfolio_rows,
)

__all__ = [
    "DEFAULT_MEMBERS",
    "MEMBER_SPECS",
    "PRUNED_STATUS_PREFIX",
    "REFINE_SUFFIX",
    "available_members",
    "is_pruned",
    "is_prunable_member",
    "is_refined_member",
    "member_descriptions",
    "resolve_member",
    "run_member",
    "schedule_digest",
    "Portfolio",
    "PortfolioResult",
    "format_portfolio_table",
    "reduce_to_portfolio_rows",
]
