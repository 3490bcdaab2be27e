"""Scores and golden bytes do not depend on how the built-in ``sum`` adds floats.

From Python 3.12 on, ``sum`` of floats is compensated (Neumaier), so its
last bit can differ from adding left to right. The library adds its
floats left to right (``index.left_sum`` and plain loops), like its
vectorized paths. ``test_outputs_do_not_depend_on_the_builtin_sum`` runs
the golden cases and the score properties in a subprocess whose
``builtins.sum`` is ``compensated_sum``, CPython 3.12's algorithm written
in Python, so the check runs on any supported interpreter.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankexplain.rng import XorShift64Star

ROOT = Path(__file__).resolve().parent.parent
C_LONG_MIN, C_LONG_MAX = -2**63, 2**63 - 1


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12's ``builtin_sum_impl`` computes it.

    While the total is an int in C long range, int items add exactly.
    From an exact float total on, exact float items add with a running
    Neumaier compensation, int items in C long range add as doubles, and
    the compensation is added when the items end. Any other item ends
    that phase: everything from it on adds with ``+``.
    """
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings, bytes or bytearrays")
    items = iter(iterable)
    total = start
    if type(total) is int and C_LONG_MIN <= total <= C_LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and C_LONG_MIN <= total + item <= C_LONG_MAX:
                total += item
                continue
            total = total + item
            break
        else:
            return total
    if type(total) is float:
        f, c = total, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
            elif isinstance(item, int) and C_LONG_MIN <= item <= C_LONG_MAX:
                f += float(item)
            else:
                total = (f + c if c and math.isfinite(c) else f) + item
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        total = total + item
    return total


def test_compensated_sum_is_the_312_algorithm():
    assert compensated_sum([0.1] * 10) == 1.0           # 0.9999999999999999 left to right
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0   # 0.0 left to right
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert compensated_sum([2, 3, True]) == 6 and type(compensated_sum([2, 3, True])) is int
    assert compensated_sum([0.5, 2, 0.25]) == 2.75
    assert compensated_sum([[1], [2]], []) == [1, 2]
    assert compensated_sum([], 0.5) == 0.5
    with pytest.raises(TypeError):
        compensated_sum(["a"], "")


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the built-in sum compensates from Python 3.12 on")
def test_compensated_sum_equals_the_builtin_sum():
    rng = XorShift64Star(12)
    for n in range(200):
        values = [(rng.random() - 0.5) * 10.0 ** (rng.randbelow(40) - 20) for _ in range(n)]
        assert compensated_sum(values) == sum(values)
        assert compensated_sum(values, 1e-3) == sum(values, 1e-3)


# Each of these failed before the library added its floats left to right.
CHECKS = [
    "tests/test_golden.py",
    "tests/test_properties.py::test_fidelity_evaluator_equals_reference",
    "tests/test_properties.py::test_score_equals_score_tokens_of_doc_tokens",
    "tests/test_properties.py::test_masked_scores_equal_score_tokens_of_each_rows_survivors",
]

BOOTSTRAP = """
import builtins, sys
sys.path.insert(0, {tests!r})
from test_summation import compensated_sum
builtins.sum = compensated_sum
assert sum([0.1] * 10) == 1.0
import pytest
sys.exit(pytest.main({args!r}))
"""


def test_outputs_do_not_depend_on_the_builtin_sum():
    args = ["-q", "-p", "no:cacheprovider", *CHECKS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
    code = BOOTSTRAP.format(tests=str(ROOT / "tests"), args=args)
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
