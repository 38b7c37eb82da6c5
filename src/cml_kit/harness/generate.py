"""Reproducible pseudo-random kernel generation and the fixed suite corpus."""

from __future__ import annotations

import random
from fractions import Fraction

from ..errors import Record
from ..kernel import Kernel
from ..rational import Rate, ensure_rate

DEFAULT_POOL: tuple[Rate, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
)


class KernelGenConfig(Record):
    max_states: int
    rate_pool: tuple[Rate, ...] = DEFAULT_POOL
    density: Fraction = Fraction(1, 2)
    seed: int = 0


def gen_kernel(cfg: KernelGenConfig) -> Kernel:
    """Deterministic kernel for a config; equal configs give equal kernels."""
    rng = random.Random(cfg.seed)
    pool = [ensure_rate(r) for r in cfg.rate_pool]
    states = [f"s{i}" for i in range(cfg.max_states)]
    rates = {}
    threshold = float(cfg.density)
    for s in states:
        for t in states:
            if rng.random() < threshold:
                rates[(s, t)] = rng.choice(pool)
    return Kernel(states, rates)


def chain_kernel(length: int, rate: Rate = Fraction(1)) -> Kernel:
    states = [f"c{i}" for i in range(length)]
    rates = {(states[i], states[i + 1]): rate for i in range(length - 1)}
    return Kernel(states, rates)


def twin_kernel() -> Kernel:
    """Two bisimilar states feeding distinct deadlocks, plus an odd one out."""
    return Kernel(
        ["x", "x2", "y", "p1", "p2"],
        {("x", "p1"): 5, ("x2", "p2"): 5, ("y", "p1"): 3},
    )


def split_kernel() -> Kernel:
    """Bisimilar pair whose equal block mass is split across different targets."""
    return Kernel(
        ["x", "y", "t", "t1", "t2"],
        {("x", "t"): 2, ("y", "t1"): 1, ("y", "t2"): 1},
    )


def corpus(kernels: int, max_states: int, seed: int) -> list[Kernel]:
    """Fixed specials plus generated kernels; deterministic in all arguments."""
    out: list[Kernel] = [
        Kernel(["s0"], {("s0", "s0"): 2}),
        Kernel(["s0", "s1"], {}),
        chain_kernel(4),
        twin_kernel(),
        split_kernel(),
        Kernel(["a", "b", "d"], {("a", "d"): 3, ("b", "d"): 3}),
    ]
    densities = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    i = 0
    while len(out) < kernels:
        cfg = KernelGenConfig(
            max_states=2 + (i % max(1, max_states - 1)),
            density=densities[i % len(densities)],
            seed=seed + 1000 * i,
        )
        out.append(gen_kernel(cfg))
        i += 1
    return out[:kernels]
