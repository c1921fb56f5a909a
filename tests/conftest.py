"""Shared fixtures plus the acceptance-criteria summary printed after the run."""

import numpy as np
import pytest

pytest_plugins = ["pytester"]

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    """Register one acceptance-criterion outcome for the end-of-run summary."""
    ACCEPTANCE_LINES.append((number, f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gaussian_256():
    """Unit Gaussian exp(-r^2/2) sampled on a 256x256 grid over [-8, 8]^2."""
    from rnorm import sample_grid

    return sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)
