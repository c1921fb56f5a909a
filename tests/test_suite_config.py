"""The suite's own configuration: a failing property test fails alone and shows its example."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_fails_alone_and_shows_its_example(pytester):
    # under filterwarnings = ["error"] alone, a warning inside hypothesis's failure report became
    # an INTERNALERROR: exit code 3, no falsifying example, and the rest of the run lost
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_runs_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(passed=1, failed=1)
