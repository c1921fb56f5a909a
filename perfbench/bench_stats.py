"""Arithmetic of the benchmark: per-op outcomes, medians and failure counts."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass
class OpResult:
    """One timed op: its wall and CPU seconds, how it ended, and its check.

    ``exit_code`` is None for a library call that returns normally;
    ``error`` holds the exception text when the op raised; ``check_ok`` is
    None until the check has run, and stays None when there is no output.
    """

    index: int
    seed: int
    seconds: float
    cpu_s: float
    traced: bool = False
    exit_code: int | None = None
    error: str | None = None
    check_ok: bool | None = None
    detail: dict = field(default_factory=dict)

    @property
    def reported_success(self) -> bool:
        """The program returned normally and, for the CLI, with exit code 0."""
        return self.error is None and self.exit_code in (None, 0)

    @property
    def failed(self) -> bool:
        return not self.reported_success or self.check_ok is False


def summary(values) -> dict:
    """Fastest value, median and sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return {"min": min(values), "median": statistics.median(values), "n": len(values)}


def error_rate(results: list[OpResult]) -> float:
    """Failed ops over attempted ops; a nonzero exit or a failed check is a failure."""
    if not results:
        raise ValueError("no ops attempted")
    return sum(r.failed for r in results) / len(results)


def outputs_correct(results: list[OpResult]) -> bool:
    """No op passed off a wrong output as a success.

    An op the program itself reports as failed (an exception, or exit 5
    for a solver that did not converge) counts in ``failed``; it is not a
    wrong answer.
    """
    return all(r.check_ok for r in results if r.reported_success)

