"""The samplers draw their randomness in blocks, never one value at a time.

A scalar draw (``random``, ``randbelow`` or ``next_u64``) costs a Python
call per token or per window; the samplers take one block of the stream
per batch instead (``rng.block_u64``). This walks
perturb.py's syntax tree for any reference to a scalar draw, so a
per-token loop cannot come back unnoticed.
"""

import ast
from pathlib import Path

PERTURB = Path(__file__).resolve().parent.parent / "src" / "rankexplain" / "perturb.py"
SCALAR_DRAWS = {"random", "randbelow", "next_u64"}


def scalar_draws(source: str) -> list:
    """(line, name) of every reference to a scalar draw, as an attribute or a plain name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in SCALAR_DRAWS:
            found.append((node.lineno, name))
    return sorted(found)


def test_perturb_makes_no_scalar_draw():
    assert scalar_draws(PERTURB.read_text(encoding="utf-8")) == []


def test_the_walk_finds_every_scalar_draw():
    source = ("from .rng import block_u64\n"
              "def f(rng, probs):\n"
              "    return [0 if rng.random() < p else 1 for p in probs]\n"
              "def g(rng, n):\n"
              "    draw = rng.randbelow\n"
              "    return [draw(n), block_u64(rng, n)]\n"
              "def h(next_u64):\n"
              "    return next_u64()\n")
    assert scalar_draws(source) == [(3, "random"), (5, "randbelow"), (8, "next_u64")]
