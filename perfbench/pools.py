"""Input pools of the benchmark workloads (standard library only).

Every input is generated here, as model-file text and formula text, so the
program under test sees only finished inputs and a change to the library's
own generators cannot change what is measured. Each pool is a fixed list
built from fixed pool seeds, and ``reference.json`` holds the answer of
every item in it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Rates of the library's default generator pool, in its order.
RATE_POOL = ("0", "1", "2", "3", "1/2")
FORMULA_RATES = ("1/2", "1", "2", "3", "5")
EPSILONS = ("0", "1/10", "1/2", "1")

EVAL_SIZES = (16, 32, 48, 64, 80, 96, 112, 128)
KERNELS_PER_SIZE = 2
FORMULAS_PER_KERNEL = 3
CHAIN_LENGTHS = (10, 20, 30, 40, 50, 60)
SEARCH_ITEMS = 12
ORDER_SHAPES = ((3, 3), (3, 4), (4, 4), (3, 5))
PAIRS_PER_SHAPE = 1
ORDER_EPSILONS = ("0", "1/10", "1/4", "1/2", "1")
# the default seed of `cml verify`
SUITE_SEED = 7
# Back-to-back executions of a short suite within a pass, so that it gets more
# than one sample: about 0.6 s of calibrated time per pass at the reference
# commit. Fixed counts keep the sample set, and so the tail percentile, the
# same in every run.
SUITE_REPEATS = {
    "l4-translation": 30,
    "t1-generators": 7,
    "l5-orders": 4,
    "deduction": 3,
    "paramcharact": 2,
    "c1-extensions": 2,
    "l1-positive-monotonicity": 2,
}


@dataclass(frozen=True)
class Item:
    """One operation's input. ``args`` holds only text and numbers."""

    kind: str  # eval | bisim | search | order | essential | distance | suite | cli
    op: str  # the API call or command the item runs
    cls: str  # size class, or the suite name
    args: tuple
    repeats: int = 1  # back-to-back executions within a pass; not in the key

    @property
    def key(self) -> str:
        text = json.dumps([self.op, list(self.args)], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def gen_kernel_doc(n: int, density: Fraction, seed: int) -> dict:
    """The model of ``harness.generate.gen_kernel`` for (n, density, seed).

    Same draw order as the library generator, so the kernels are the ones the
    library would build; zero draws are left out as the model writer does.
    """
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n)]
    threshold = float(density)
    rates: dict[str, dict[str, str]] = {}
    for s in states:
        for t in states:
            if rng.random() < threshold:
                rate = rng.choice(RATE_POOL)
                if rate != "0":
                    rates.setdefault(s, {})[t] = rate
    return {"states": states, "rates": rates}


def chain_doc(length: int) -> dict:
    states = [f"c{i}" for i in range(length)]
    return {
        "states": states,
        "rates": {states[i]: {states[i + 1]: "1"} for i in range(length - 1)},
    }


def union_doc(a: dict, b: dict) -> dict:
    return {"states": a["states"] + b["states"], "rates": {**a["rates"], **b["rates"]}}


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _paren(text: str) -> str:
    return text if text == "T" else f"({text})"


def random_formula(rng: random.Random, depth: int, positive: bool = False) -> str:
    if depth == 0:
        return "T"
    c = rng.random()
    if c < 0.5:
        return f"L{{{rng.choice(FORMULA_RATES)}}} {_paren(random_formula(rng, depth - 1, positive))}"
    if c < 0.65 and not positive:
        return f"!{_paren(random_formula(rng, depth - 1))}"
    op = "&" if c < 0.85 else "|"
    left = random_formula(rng, depth - 1, positive)
    right = random_formula(rng, depth - 1, positive)
    return f"{_paren(left)} {op} {_paren(right)}"


def sized_formula(rng: random.Random, lo: int, hi: int, depth: int, positive: bool = False) -> str:
    """A random formula with between lo and hi modal operators."""
    while True:
        text = random_formula(rng, depth, positive)
        if lo <= text.count("L{") <= hi:
            return text


def queries_pool() -> list[Item]:
    rng = random.Random(1)
    items: list[Item] = []
    for n in EVAL_SIZES:
        for j in range(KERNELS_PER_SIZE):
            model = dumps(gen_kernel_doc(n, Fraction(1, 4), 1000 * n + j))
            for k in range(FORMULAS_PER_KERNEL):
                formula = sized_formula(rng, 4, 7, 4)
                eps = rng.choice(EPSILONS)
                mode = ("eval", "sat", "valid")[(j + k) % 3]
                state = f"s{rng.randrange(n)}" if mode == "sat" else ""
                items.append(Item("eval", mode, f"n{n}", (model, formula, eps, state)))
            items.append(Item("bisim", "bisim", f"n{n}", (model,)))
    for length in CHAIN_LENGTHS:
        chain = chain_doc(length)
        items.append(Item("bisim", "bisim", "chain", (dumps(chain),)))
        gen = gen_kernel_doc(16, Fraction(1, 4), 7000 + length)
        items.append(Item("bisim", "bisim", "union", (dumps(union_doc(chain, gen)),)))
    for _ in range(SEARCH_ITEMS):
        grid = ",".join(sorted(rng.sample(RATE_POOL, 4), key=Fraction))
        a = rng.choice(("2", "3", "5"))
        b = rng.choice(("1", "2"))
        body = sized_formula(rng, 1, 3, 2, positive=True)
        # L{a} body needs rate a into body, !L{b} T caps the total below
        # b <= a: no kernel satisfies it, so the whole grid is searched
        formula = f"L{{{a}}} {_paren(body)} & !L{{{b}}} T"
        eps = rng.choice(("0", "1/10", "1/2"))
        items.append(Item("search", "search", "grid4", (formula, eps, 2, grid)))
    return items


def orders_pool() -> list[Item]:
    rng = random.Random(2)
    items: list[Item] = []
    for n1, n2 in ORDER_SHAPES:
        for j in range(PAIRS_PER_SHAPE):
            k1 = dumps(gen_kernel_doc(n1, Fraction(1, 2), 50_000 + 100 * n1 + 10 * n2 + j))
            k2 = dumps(gen_kernel_doc(n2, Fraction(1, 2), 60_000 + 100 * n1 + 10 * n2 + j))
            m, n = f"s{rng.randrange(n1)}", f"s{rng.randrange(n2)}"
            eps = rng.choice(ORDER_EPSILONS)
            cls = f"{n1}+{n2}"
            items.append(Item("order", "order", cls, (k1, m, k2, n, eps)))
            items.append(Item("essential", "essential", cls, (k1, m, k2, n, eps)))
            items.append(Item("distance", "distance", cls, (k1, m, k2, n)))
    return items


def verify_pool(suites: list[str]) -> list[Item]:
    return [Item("suite", "suite", name, (name, SUITE_SEED), SUITE_REPEATS.get(name, 1))
            for name in suites]
