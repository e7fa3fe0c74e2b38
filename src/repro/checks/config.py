"""Checker configuration: which rules run.

The rules' options are fixed by each rule's ``default_options`` (see
:class:`repro.checks.rules.base.Rule`); a run chooses only the rule set.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckConfig"]


@dataclass
class CheckConfig:
    """One checker run's configuration.

    Parameters
    ----------
    select:
        If non-empty, only these rule ids run.
    ignore:
        Rule ids that never run (applied after ``select``).
    """

    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()

    def is_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select:
            return rule_id in self.select
        return True

    @classmethod
    def from_cli(
        cls,
        select: str | None = None,
        ignore: str | None = None,
    ) -> "CheckConfig":
        """Build a config from comma-separated CLI strings."""

        def split(spec: str | None) -> frozenset[str]:
            if not spec:
                return frozenset()
            return frozenset(s.strip().upper() for s in spec.split(",") if s.strip())

        return cls(select=split(select), ignore=split(ignore))
