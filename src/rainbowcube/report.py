"""Itemized pass/fail reports with concrete witnesses."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    witness: str = ""

    def __str__(self) -> str:
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{tail}"


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)
