"""Shared result types for verification runs."""
from __future__ import annotations


class Check:
    __slots__ = ("id", "passed", "details", "conditional")

    def __init__(self, id: str, passed: bool, details: list[str] | None = None,
                 conditional: bool = False):
        self.id, self.passed, self.conditional = id, passed, conditional
        self.details = [] if details is None else details

    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class Report:
    __slots__ = ("checks",)

    def __init__(self) -> None:
        self.checks: list[Check] = []

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = " [conditional]" if c.conditional else ""
            lines.append(f"{c.status()} {c.id}{tag}")
            for d in c.details:
                lines.append(f"  {d}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)

    def to_json_dict(self) -> list[dict]:
        """The results list of the structured document."""
        return [{"id": c.id, "status": c.status(),
                 "conditional": c.conditional, "details": list(c.details)}
                for c in self.checks]
