"""Every deterministic invariant of ``duelbandits verify``, one test id per check.

Each check runs at seed 0, as ``duelbandits verify`` runs it, and is the one
copy of its invariant. ``baseline-time-scaling`` compares wall-clock windows,
so it stays out; ``TestTimeScaling`` gates the same growth with its own windows.
"""

import pytest

from duelbandits.verify import CHECKS

WALL_CLOCK = ("baseline-time-scaling",)
DETERMINISTIC = [(name, fn) for name, fn in CHECKS if name not in WALL_CLOCK]


@pytest.mark.parametrize("fn", [fn for _, fn in DETERMINISTIC],
                         ids=[name for name, _ in DETERMINISTIC])
def test_verify_check(fn):
    ok, detail = fn(0)
    assert ok, detail
