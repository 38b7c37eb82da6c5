"""Finite-state continuous Markov kernels.

A kernel is a finite list of states plus a total rate map theta(source, target);
entries absent from the map are 0. State sets are plain frozensets of state ids,
relations are frozensets of (state, state) pairs.

The integer core: at construction every rate is scaled by ``scale``, the least
common multiple D of the rate denominators, and each state's row is kept as
(target bit, rate * D) integer pairs, indexed by state position; bit i stands
for the state at position i. Inside the core a state set is an int bitmask, so
theta(m)(S) * D is an integer sum over the row and every comparison against a
rate stays exact. ``scaled_measures`` gives every state's scaled rate into a
mask. ``measure`` and ``total`` read the same rows and return Fractions, which
with names and frozensets stay the public boundary.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import IO, Iterable, Mapping, Union

from .errors import KernelError, RateError
from .rational import Rate, coerce_rate, ensure_rate, format_rate

StateSet = frozenset
Relation = frozenset

RatesInput = Union[
    Mapping[tuple[str, str], object],
    Mapping[str, Mapping[str, object]],
]

_ZERO = Fraction(0)


def _flatten_rates(rates: RatesInput) -> dict[tuple[str, str], Fraction]:
    # lenient sign handling: validate() owns the negativity diagnostic
    flat: dict[tuple[str, str], Fraction] = {}
    for key, value in rates.items():
        if isinstance(key, tuple):
            flat[key] = coerce_rate(value)
        else:
            for target, rate in value.items():
                flat[(key, target)] = coerce_rate(rate)
    return flat


class Kernel:
    """Immutable finite-state kernel.

    ``rates`` may be keyed by (source, target) pairs or nested source -> target;
    values are coerced exactly (ints, Fractions or literal strings, never
    floats). Zero entries are dropped. Structural invariants (unique ids, known
    endpoints) are checked by :func:`validate`, not here, so that invalid
    kernels can be constructed and diagnosed. ``rows`` and ``scale`` are the
    integer core described in the module docstring.
    """

    __slots__ = ("states", "_state_set", "_adj", "_bit", "rows", "scale", "_hash")

    def __init__(self, states: Iterable[str], rates: RatesInput | None = None):
        self.states: tuple[str, ...] = tuple(states)
        self._state_set = frozenset(self.states)
        bit: dict[str, int] = {}
        for i, s in enumerate(self.states):
            bit.setdefault(s, 1 << i)
        adj: dict[str, dict[str, Fraction]] = {}
        # (source, target bit, numerator, denominator), scaled once D is known
        entries = []
        scale = 1
        for (s, t), r in _flatten_rates(rates or {}).items():
            if r != 0:
                adj.setdefault(s, {})[t] = r
                if t in bit:
                    d = r.denominator
                    entries.append((s, bit[t], r.numerator, d))
                    if scale % d:
                        scale = scale // gcd(scale, d) * d
        rows: dict[str, list[tuple[int, int]]] = {}
        for s, b, n, d in entries:
            rows.setdefault(s, []).append((b, n * (scale // d)))
        self._adj = adj
        self._bit = bit
        self.rows: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(rows.get(s, ())) for s in self.states
        )
        self.scale = scale
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.states == other.states and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.states, tuple(self.rate_items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Kernel(states={list(self.states)!r}, rates={len(self.rate_items())} entries)"

    @property
    def state_set(self) -> frozenset:
        return self._state_set

    def rate(self, source: str, target: str) -> Rate:
        """theta(source, target); 0 for pairs without a stored entry."""
        self._check_state(source)
        self._check_state(target)
        return self._adj.get(source, {}).get(target, _ZERO)

    def measure(self, source: str, targets: frozenset) -> Rate:
        """theta(source)(targets) = total rate from source into the set."""
        row = self._row(source)
        mask = self.mask_of(targets)
        return Fraction(sum([v for b, v in row if b & mask]), self.scale)

    def total(self, source: str) -> Rate:
        """Total exit rate theta(source)(M)."""
        return Fraction(sum([v for _, v in self._row(source)]), self.scale)

    def scaled_measures(self, mask: int) -> list[int]:
        """theta(m)(mask) * scale for every state m, by state position."""
        return [sum([v for b, v in row if b & mask]) for row in self.rows]

    def mask_of(self, members: Iterable[str]) -> int:
        """The bitmask of a state set; every member must be a state."""
        bit = self._bit
        mask = 0
        for s in members:
            b = bit.get(s)
            if b is None:
                unknown = sorted(set(members) - self._state_set)
                raise KernelError(f"set member not in kernel: {unknown!r}")
            mask |= b
        return mask

    def set_of(self, mask: int) -> frozenset:
        """The state set of a bitmask."""
        return frozenset([s for s, b in self._bit.items() if b & mask])

    def rate_items(self) -> list[tuple[str, str, Rate]]:
        """Nonzero entries sorted by state order; deterministic."""
        order = {s: i for i, s in enumerate(self.states)}
        items = [(s, t, r) for s, row in self._adj.items() for t, r in row.items()]
        items.sort(
            key=lambda item: (order.get(item[0], len(order)), order.get(item[1], len(order)))
        )
        return items

    def _row(self, state: str) -> tuple[tuple[int, int], ...]:
        self._check_state(state)
        return self.rows[self._bit[state].bit_length() - 1]

    def _check_state(self, state: str) -> None:
        if state not in self._state_set:
            raise KernelError(f"unknown state {state!r}")


def validate(kernel: Kernel) -> None:
    """Raise KernelError naming the first violated invariant; None when legal."""
    seen = set()
    for s in kernel.states:
        if s in seen:
            raise KernelError(f"duplicate state {s!r}")
        seen.add(s)
    for s, t, r in kernel.rate_items():
        if s not in seen:
            raise KernelError(f"rate source {s!r} is not a state")
        if t not in seen:
            raise KernelError(f"rate target {t!r} is not a state")
        if r < 0:
            raise KernelError(f"negative rate {format_rate(r)} on ({s!r}, {t!r})")


def left_tag(state: str) -> str:
    return f"L:{state}"


def right_tag(state: str) -> str:
    return f"R:{state}"


def disjoint_union(k1: Kernel, k2: Kernel) -> Kernel:
    """Side-by-side union; states are tagged "L:"/"R:" so ids never collide.

    Cross rates are 0 and each side's rates are preserved under its tag.
    """
    states = [left_tag(s) for s in k1.states] + [right_tag(s) for s in k2.states]
    rates: dict[tuple[str, str], Fraction] = {}
    for s, t, r in k1.rate_items():
        rates[(left_tag(s), left_tag(t))] = r
    for s, t, r in k2.rate_items():
        rates[(right_tag(s), right_tag(t))] = r
    return Kernel(states, rates)


# --- JSON model files -------------------------------------------------------
#
# { "states": ["m", "m1"], "rates": { "m": { "m1": "1", "m2": "3/2" } } }
#
# Rate literals are decimal or "p/q" strings; missing entries mean 0. An
# optional "comment" field is ignored by the loader.


def loads_kernel(text: str) -> Kernel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KernelError(f"model file is not valid JSON: {exc}") from exc
    return _kernel_from_doc(doc)


def load_kernel(source: Union[str, IO[str]]) -> Kernel:
    """Load a kernel from a path or an open text file."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return loads_kernel(fh.read())
        return loads_kernel(source.read())
    except UnicodeDecodeError as exc:
        raise KernelError(f"model file is not UTF-8 text: {exc}") from exc


def _kernel_from_doc(doc: object) -> Kernel:
    if not isinstance(doc, dict):
        raise KernelError("model file must be a JSON object")
    unknown = set(doc) - {"states", "rates", "comment"}
    if unknown:
        raise KernelError(f"unknown model fields: {sorted(unknown)}")
    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise KernelError('"states" must be a list of strings')
    rates_doc = doc.get("rates", {})
    if not isinstance(rates_doc, dict):
        raise KernelError('"rates" must be an object keyed by source state')
    rates: dict[tuple[str, str], Fraction] = {}
    for source, row in rates_doc.items():
        if not isinstance(row, dict):
            raise KernelError(f"rates.{source}: expected an object of target rates")
        for target, literal in row.items():
            if not isinstance(literal, str):
                raise KernelError(
                    f"rates.{source}.{target}: rate must be a string literal"
                )
            try:
                rates[(source, target)] = ensure_rate(literal)
            except RateError as exc:
                raise KernelError(f"rates.{source}.{target}: {exc}") from exc
    kernel = Kernel(states, rates)
    validate(kernel)
    return kernel


def kernel_to_doc(kernel: Kernel, comment: str | None = None) -> dict:
    rates: dict[str, dict[str, str]] = {}
    for s, t, r in kernel.rate_items():
        rates.setdefault(s, {})[t] = format_rate(r)
    doc: dict = {"states": list(kernel.states), "rates": rates}
    if comment is not None:
        doc["comment"] = comment
    return doc


def dumps_kernel(kernel: Kernel, comment: str | None = None) -> str:
    return json.dumps(kernel_to_doc(kernel, comment), indent=2) + "\n"
