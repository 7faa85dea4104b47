import signal

import pytest

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
