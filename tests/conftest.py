import signal

import pytest

from critind import Graph, fixture

# A test that runs longer than this fails instead of stalling the suite; the
# slowest test takes a few seconds. A blossom search left with stale scratch
# state, for one, loops forever rather than returning a wrong answer.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that overruns TEST_TIME_LIMIT_S. Not an Exception,
    so that hypothesis stops at once instead of shrinking the example again
    with the alarm spent."""


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def g1() -> Graph:
    return fixture("G1")


@pytest.fixture
def g2() -> Graph:
    return fixture("G2")


@pytest.fixture
def gf() -> Graph:
    return fixture("GF")


@pytest.fixture
def k0() -> Graph:
    return Graph([], [])


@pytest.fixture
def k3() -> Graph:
    return Graph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)])
