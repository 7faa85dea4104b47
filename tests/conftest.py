import signal
import sys
import warnings

import pytest

# hypothesis's pytest plugin imports hypothesis.extra._patching to report a
# failing example. Where libcst is installed, that import loads mypy_extensions,
# which warns DeprecationWarning; under -W error the warning turns the report
# of the first failing example into an INTERNALERROR that ends the run. The
# module is imported once here, with that warning ignored, so a failure is
# reported as a failure. Without libcst the import fails and nothing changes.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# A hang fails its test rather than stalling the run: pytest-timeout is not a
# dependency, so each test gets a stdlib alarm where the platform has SIGALRM
# (elsewhere the fixture does nothing). The slowest test takes a few seconds.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def int_digit_limit():
    """Sets the interpreter's limit on the digits int() converts from a string
    (0: none) for one test, and restores it; skips where there is no limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int() of a string")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
