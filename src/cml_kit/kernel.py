"""Finite-state continuous Markov kernels.

A kernel is a finite list of states plus a total rate map theta(source, target);
entries absent from the map are 0. State sets are plain frozensets of state ids,
relations are frozensets of (state, state) pairs. A kernel is checked once,
when it is constructed, so every ``Kernel`` that exists is valid.

The integer core: at construction every rate is scaled by ``scale``, the least
common multiple D of the rate denominators, and each state's row is kept as
(target bit, rate * D) integer pairs sorted by target bit, indexed by state
position; bit i stands for the state at position i. The rows and the scale are
the only copy of the rates. Inside the core a state set is an int bitmask, so
theta(m)(S) * D is an integer sum over the row and every comparison against a
rate stays exact. Two values are derived from the rows once, in the pass that
builds them: ``totals``, each state's scaled exit total theta(m)(M) * D, and
``full``, the mask of every state. ``scaled_measures`` gives every state's
scaled rate into a mask: the totals for the full mask, a scan of each row for
any other. ``rate``, ``measure``, ``total`` and ``rate_items`` read the same
core and return Fractions, which with names and frozensets stay the public
boundary.

The constructor coerces and scales each distinct rate object once: a table
keyed by the object's id gives every later entry holding the same object its
scaled weight, so the per-entry work is two state lookups and one sort key.
A JSON model file is loaded by ``loads_kernel``/``load_kernel``, which parse
each distinct rate literal once per file: every later entry with the same
text reuses the first entry's Fraction. ``rate_items`` likewise returns one
Fraction per distinct rate, so a kernel built from another kernel's items (a
disjoint union, a shrunk kernel) takes the same path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import IO, Iterable, Mapping, Union

from .errors import KernelError, RateError
from .rational import Rate, ensure_rate, format_rate, parse_rate

StateSet = frozenset
Relation = frozenset

_ZERO = Fraction(0)


class Kernel:
    """Immutable finite-state kernel, valid once constructed.

    ``rates`` maps (source, target) pairs to rates; each distinct value
    object is coerced exactly once (ints, Fractions or literal strings, never
    floats), both endpoints of every entry are checked, and zero entries are
    then dropped. The constructor raises KernelError for a duplicate state,
    an endpoint that is not a state or a negative rate, so every ``Kernel``
    holds unique states, known endpoints and nonnegative rates. ``rows`` and
    ``scale``, the integer core described in the module docstring, are the
    only copy of the rates; ``totals`` and ``full`` are derived from them
    once.
    """

    __slots__ = ("states", "_state_set", "_bit", "rows", "scale", "totals", "full")

    def __init__(
        self,
        states: Iterable[str],
        rates: Mapping[tuple[str, str], object] | None = None,
    ):
        self.states: tuple[str, ...] = tuple(states)
        states = self.states
        position: dict[str, int] = {}
        bit: dict[str, int] = {}
        rows: list[list[tuple[int, int]]] = []
        for i, s in enumerate(states):
            if s in position:
                raise KernelError(f"duplicate state {s!r}")
            position[s] = i
            bit[s] = 1 << i
            rows.append([])
        # Each distinct rate object is coerced at its first entry, so a bad
        # one raises at the entry where a check of every entry would. Its
        # slot, keyed by id, is [numerator, denominator, the object]: holding
        # the object for the whole loop keeps a fresh value that a Mapping
        # yields from taking over its id. Once D is known, the object's
        # scaled weight replaces it.
        slot_of: dict[int, list] = {}
        # (source position, target bit, slot): a pair listed twice sorts by
        # its slots' (numerator, denominator)
        keys = []
        scale = 1
        for (s, t), value in (rates or {}).items():
            key = id(value)
            slot = slot_of.get(key)
            if slot is None:
                try:
                    r = ensure_rate(value)
                except RateError:
                    if isinstance(value, (int, Fraction)) and value < 0:
                        r = format_rate(Fraction(value))
                        raise KernelError(f"negative rate {r} on ({s!r}, {t!r})") from None
                    raise
                n, d = r.as_integer_ratio()
                slot = slot_of[key] = [n, d, value]
                if scale % d:
                    scale = scale // gcd(scale, d) * d
            try:
                keys.append((position[s], bit[t], slot))
            except KeyError:
                if s not in position:
                    raise KernelError(f"rate source {s!r} is not a state") from None
                raise KernelError(f"rate target {t!r} is not a state") from None
        for slot in slot_of.values():
            slot[2] = slot[0] * (scale // slot[1])
        totals = [0] * len(rows)
        keys.sort()
        for source, target, slot in keys:
            w = slot[2]
            if w:  # zero entries are dropped
                rows[source].append((target, w))
                totals[source] += w
        self._state_set = frozenset(states)
        self._bit = bit
        self.rows: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, rows))
        self.scale = scale
        self.totals = totals
        self.full = (1 << len(rows)) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return (self.states, self.scale, self.rows) == (
            other.states, other.scale, other.rows
        )

    def __hash__(self) -> int:
        return hash((self.states, self.scale, self.rows))

    def __repr__(self) -> str:
        entries = sum(map(len, self.rows))
        return f"Kernel(states={list(self.states)!r}, rates={entries} entries)"

    @property
    def state_set(self) -> frozenset:
        return self._state_set

    def rate(self, source: str, target: str) -> Rate:
        """theta(source, target); 0 for pairs without a stored entry."""
        row = self.rows[self._position(source)]
        self._check_state(target)
        b = self._bit[target]
        for bit, v in row:
            if bit == b:
                return Fraction(v, self.scale)
        return _ZERO

    def measure(self, source: str, targets: frozenset) -> Rate:
        """theta(source)(targets) = total rate from source into the set."""
        row = self.rows[self._position(source)]
        mask = self.mask_of(targets)
        return Fraction(sum([v for b, v in row if b & mask]), self.scale)

    def total(self, source: str) -> Rate:
        """Total exit rate theta(source)(M)."""
        return Fraction(self.totals[self._position(source)], self.scale)

    def scaled_measures(self, mask: int) -> list[int]:
        """theta(m)(mask) * scale for every state m, by state position; for the
        full mask this is ``totals`` itself, which callers only read."""
        if mask == self.full:
            return self.totals
        return [sum([v for b, v in row if b & mask]) for row in self.rows]

    def mask_of(self, members: Iterable[str]) -> int:
        """The bitmask of a state set; every member must be a state."""
        bit = self._bit
        mask = 0
        for s in members:
            b = bit.get(s)
            if b is None:
                # s and what is left of members: an iterator is not read twice
                unknown = sorted({s, *members} - self._state_set)
                raise KernelError(f"set member not in kernel: {unknown!r}")
            mask |= b
        return mask

    def set_of(self, mask: int) -> frozenset:
        """The state set of a bitmask."""
        return frozenset([s for s, b in self._bit.items() if b & mask])

    def rate_items(self) -> list[tuple[str, str, Rate]]:
        """Nonzero entries sorted by state order; deterministic."""
        states, scale = self.states, self.scale
        # one Fraction per distinct rate, so a Kernel built from the items
        # coerces and scales each rate once
        rate: dict[int, Fraction] = {}
        items = []
        for s, row in zip(states, self.rows):
            for b, v in row:
                r = rate.get(v)
                if r is None:
                    r = rate[v] = Fraction(v, scale)
                items.append((s, states[b.bit_length() - 1], r))
        return items

    def _position(self, state: str) -> int:
        self._check_state(state)
        return self._bit[state].bit_length() - 1

    def _check_state(self, state: str) -> None:
        if state not in self._state_set:
            raise KernelError(f"unknown state {state!r}")


def left_tag(state: str) -> str:
    return f"L:{state}"


def right_tag(state: str) -> str:
    return f"R:{state}"


def disjoint_union(k1: Kernel, k2: Kernel) -> Kernel:
    """Side-by-side union; states are tagged "L:"/"R:" so ids never collide.

    Cross rates are 0 and each side's rates are preserved under its tag.
    """
    states: list[str] = []
    rates: dict[tuple[str, str], Fraction] = {}
    for kernel, tag in ((k1, left_tag), (k2, right_tag)):
        tagged = {s: tag(s) for s in kernel.states}
        states += tagged.values()
        for s, t, r in kernel.rate_items():
            rates[(tagged[s], tagged[t])] = r
    return Kernel(states, rates)


# --- JSON model files -------------------------------------------------------
#
# { "states": ["m", "m1", "m2"], "rates": { "m": { "m1": "1", "m2": "3/2" } } }
#
# Rate literals are decimal or "p/q" strings; missing entries mean 0. An
# optional "comment" field is ignored by the loader.


def loads_kernel(text: str) -> Kernel:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nested array or object
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
    # each distinct literal text is parsed once; a failed parse is never stored
    parsed: dict[str, Fraction] = {}
    for source, row in rates_doc.items():
        if not isinstance(row, dict):
            raise KernelError(f"rates.{source}: expected an object of target rates")
        for target, literal in row.items():
            if not isinstance(literal, str):
                raise KernelError(
                    f"rates.{source}.{target}: rate must be a string literal"
                )
            r = parsed.get(literal)
            if r is None:
                try:
                    r = parsed[literal] = parse_rate(literal)
                except RateError as exc:
                    raise KernelError(f"rates.{source}.{target}: {exc}") from exc
            rates[(source, target)] = r
    return Kernel(states, rates)


def kernel_to_doc(kernel: Kernel, comment: str | None = None) -> dict:
    rates: dict[str, dict[str, str]] = {}
    for s, t, r in kernel.rate_items():
        rates.setdefault(s, {})[t] = format_rate(r)
    doc: dict = {"states": list(kernel.states), "rates": rates}
    if comment is not None:
        doc["comment"] = comment
    return doc
