"""The gclint rule registry.

``default_rules()`` is the one assembly point: the CLI, the pytest API
and CI all run exactly this set, so a rule added here is enforced
everywhere at once.
"""

from __future__ import annotations

from repro.analysis.core import ProjectRule
from repro.analysis.rules.concurrency import (
    BlockingCallUnderLock,
    LockOrderCycle,
    UnguardedSharedMutation,
)

__all__ = ["default_rules"]


def default_rules() -> list[ProjectRule]:
    """Every project rule, in report order."""
    return [
        LockOrderCycle(),
        BlockingCallUnderLock(),
        UnguardedSharedMutation(),
    ]
