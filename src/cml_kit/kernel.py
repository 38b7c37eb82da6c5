"""Finite-state continuous Markov kernels.

A kernel is a finite list of states plus a total rate map theta(source, target);
entries absent from the map are 0. State sets are plain frozensets of state ids,
relations are frozensets of (state, state) pairs. A kernel is checked once,
when it is constructed, so every ``Kernel`` that exists is valid.

The integer core: at construction every rate is scaled by ``scale``, the least
common multiple D of the rate denominators, and the rates into each state are
kept as its column: (source position, rate * D) integer pairs sorted by
source, indexed by the target's position. Inside the core a state set is an
int bitmask, where bit i stands for the state at position i. The columns and
the scale are the only copy of the rates, in one layout whatever the size.
Every question the semantics asks of a kernel is a rate into a set,
theta(m)(S) * D, an integer sum over the columns of S, so every comparison
against a rate stays exact. Two values are derived from the columns once, in
the pass that builds them: ``totals``, each state's scaled exit total
theta(m)(M) * D, and ``full``, the mask of every state. ``scaled_measures``
gives every state's scaled rate into a mask: the totals for the full mask,
else the sum of the columns of the mask's set bits, so it reads only the
entries into the mask. ``measure`` reads ``scaled_measures``, and
``rate_items`` regroups the columns by source in one pass, in (source, target)
state order; they return Fractions, which with names and frozensets stay the
public boundary.

A kernel has two entry points. They share the state pass (duplicate check,
positions, bits, ``full``) and the assembly (each column sorted by source and
frozen, ``scale`` and ``totals`` set), so each owns only its loop over the
entries. ``Kernel(states, rates)`` takes a (source, target)-keyed map and
coerces and scales each distinct rate object once: a table keyed by the
object's id gives every later entry holding the same object its scaled
weight, so the per-entry work is two state lookups. ``rate_items`` returns one
Fraction per distinct rate, so a kernel built from another kernel's items (a
disjoint union, a shrunk kernel) takes that path. ``loads_kernel`` and
``load_kernel`` read a JSON model file straight into the columns, in two
passes over the document: the first collects the distinct rate literals,
parses each once and derives D and each literal's scaled weight; the second
walks the rows in document order, looks up each row's source once and
appends each entry to its target's column. Either raises the first fault of
a check entry by entry: for a model file, a bad literal first, then a
duplicate state, then an unknown endpoint in document order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import IO, Iterable, Mapping, NoReturn, Union

from .errors import KernelError, RateError
from .rational import Rate, ensure_rate, format_rate, parse_rate


class Kernel:
    """Immutable finite-state kernel, valid once constructed.

    ``rates`` maps (source, target) pairs to rates; each distinct value
    object is coerced exactly once (ints, Fractions or literal strings, never
    floats), both endpoints of every entry are checked, and zero entries are
    then dropped. The constructor raises KernelError for a duplicate state,
    an endpoint that is not a state or a negative rate, so every ``Kernel``
    holds unique states, known endpoints and nonnegative rates. ``cols`` and
    ``scale``, the integer core described in the module docstring, are the
    only copy of the rates: ``cols[t]`` lists (source position, scaled rate)
    for every nonzero rate into the state at position t, sorted by source.
    ``totals`` and ``full`` are derived from them once.
    """

    __slots__ = ("states", "_state_set", "_bit", "cols", "scale", "totals", "full")

    def __init__(
        self,
        states: Iterable[str],
        rates: Mapping[tuple[str, str], object] | None = None,
    ):
        position = self._index_states(states)
        # Each distinct rate object is coerced at its first entry, so a bad
        # one raises at the entry where a check of every entry would. Its
        # slot, keyed by id, is [numerator, denominator, the object]: holding
        # the object for the whole loop keeps a fresh value that a Mapping
        # yields from taking over its id. Once D is known, the object's
        # scaled weight replaces it.
        slot_of: dict[int, list] = {}
        keys = []  # (source position, target position, slot)
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
                keys.append((position[s], position[t], slot))
            except KeyError:
                if s not in position:
                    raise KernelError(f"rate source {s!r} is not a state") from None
                raise KernelError(f"rate target {t!r} is not a state") from None
        for slot in slot_of.values():
            slot[2] = slot[0] * (scale // slot[1])
        cols: list[list[tuple[int, int]]] = [[] for _ in self.states]
        totals = [0] * len(cols)
        for source, target, slot in keys:
            w = slot[2]
            if w:  # zero entries are dropped
                cols[target].append((source, w))
                totals[source] += w
        self._set_core(cols, scale, totals)

    def _index_states(self, states: Iterable[str]) -> dict[str, int]:
        """The state pass of both entry points: sets ``states``, the state
        set, the bits and ``full``, and returns each state's position; a
        duplicate state raises."""
        self.states: tuple[str, ...] = tuple(states)
        position: dict[str, int] = {}
        bit: dict[str, int] = {}
        for i, s in enumerate(self.states):
            if s in position:
                raise KernelError(f"duplicate state {s!r}")
            position[s] = i
            bit[s] = 1 << i
        self._state_set = frozenset(self.states)
        self._bit = bit
        self.full = (1 << len(self.states)) - 1
        return position

    def _set_core(self, cols: list[list[tuple[int, int]]], scale: int, totals: list[int]) -> None:
        """The assembly of both entry points: each column, filled in any
        source order, is sorted by source and frozen."""
        for col in cols:
            col.sort()
        self.cols: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, cols))
        self.scale = scale
        self.totals = totals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return (self.states, self.scale, self.cols) == (
            other.states, other.scale, other.cols
        )

    def __hash__(self) -> int:
        return hash((self.states, self.scale, self.cols))

    def __repr__(self) -> str:
        entries = sum(map(len, self.cols))
        return f"Kernel(states={list(self.states)!r}, rates={entries} entries)"

    @property
    def state_set(self) -> frozenset:
        return self._state_set

    def measure(self, source: str, targets: frozenset) -> Rate:
        """theta(source)(targets) = total rate from source into the set."""
        i = self._position(source)
        return Fraction(self.scaled_measures(self.mask_of(targets))[i], self.scale)

    def scaled_measures(self, mask: int) -> list[int]:
        """theta(m)(mask) * scale for every state m, by state position: the sum
        of the columns of mask's states. For the full mask this is ``totals``
        itself, which callers only read."""
        if mask == self.full:
            return self.totals
        sums = [0] * len(self.states)
        cols = self.cols
        while mask:
            low = mask & -mask
            for s, w in cols[low.bit_length() - 1]:
                sums[s] += w
            mask ^= low
        return sums

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
        """Nonzero entries sorted by state order, source first; deterministic."""
        states, scale = self.states, self.scale
        # one Fraction per distinct rate, so a Kernel built from the items
        # coerces and scales each rate once
        rate: dict[int, Fraction] = {}
        rows: list[list] = [[] for _ in states]
        for t, col in zip(states, self.cols):
            for s, w in col:
                r = rate.get(w)
                if r is None:
                    r = rate[w] = Fraction(w, scale)
                rows[s].append((states[s], t, r))
        return [item for row in rows for item in row]

    def _position(self, state: str) -> int:
        if state not in self._bit:
            raise KernelError(f"unknown state {state!r}")
        return self._bit[state].bit_length() - 1


def left_tag(state: str) -> str:
    return f"L:{state}"


def right_tag(state: str) -> str:
    return f"R:{state}"


def disjoint_union(k1: Kernel, k2: Kernel) -> Kernel:
    """Side-by-side union; states are tagged "L:"/"R:" so ids never collide.

    Cross rates are 0 and each side's rates are preserved under its tag; k1's
    states come first. So a formula's extension on the union is the tagged
    union of its extensions on the parts: the walk is state-local, no rate
    runs between the parts, and the integer core compares exactly at the
    union's scale (the lcm of the parts' scales) as it does at each part's.
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
    # pass 1: each distinct literal, parsed once, and its scaled weight
    literals: set = set()
    try:
        for row in rates_doc.values():
            if not isinstance(row, dict):
                raise TypeError("a row is not an object")
            literals.update(row.values())  # TypeError on an unhashable literal
        if not all(isinstance(literal, str) for literal in literals):
            raise TypeError("a literal is not a string")
        parsed = {literal: parse_rate(literal) for literal in literals}
    except (TypeError, RateError):
        # the scan in document order raises at the first faulty entry
        _raise_first_literal_fault(rates_doc)
        raise
    scale = lcm(*{r.denominator for r in parsed.values()})
    weight = {literal: r.numerator * (scale // r.denominator) for literal, r in parsed.items()}
    kernel = Kernel.__new__(Kernel)
    position = kernel._index_states(states)
    # pass 2: the entries, row by row in document order
    cols: list[list[tuple[int, int]]] = [[] for _ in states]
    totals = [0] * len(states)
    for source, row in rates_doc.items():
        s = position.get(source)
        if s is None:
            if row:
                raise KernelError(f"rate source {source!r} is not a state")
            continue
        total = 0
        for target, literal in row.items():
            t = position.get(target)
            if t is None:
                raise KernelError(f"rate target {target!r} is not a state")
            w = weight[literal]
            if w:  # zero entries are dropped
                cols[t].append((s, w))
                total += w
        totals[s] = total
    # a row with no entries names a source no entry checked
    for source in rates_doc:
        if source not in position:
            raise KernelError(f"rate source {source!r} is not a state")
    kernel._set_core(cols, scale, totals)
    return kernel


def _raise_first_literal_fault(rates_doc: dict) -> NoReturn:
    """Raise at the first entry, in document order, whose row is not an
    object or whose literal is not a string or does not parse."""
    for source, row in rates_doc.items():
        if not isinstance(row, dict):
            raise KernelError(f"rates.{source}: expected an object of target rates")
        for target, literal in row.items():
            if not isinstance(literal, str):
                raise KernelError(
                    f"rates.{source}.{target}: rate must be a string literal"
                )
            try:
                parse_rate(literal)
            except RateError as exc:
                raise KernelError(f"rates.{source}.{target}: {exc}") from exc


def kernel_to_doc(kernel: Kernel) -> dict:
    rates: dict[str, dict[str, str]] = {}
    # items holds one Fraction per distinct rate, so each is printed once,
    # keyed by its id while items keeps it alive
    items = kernel.rate_items()
    printed = {id(r): format_rate(r) for r in {id(r): r for _, _, r in items}.values()}
    for s, t, r in items:
        rates.setdefault(s, {})[t] = printed[id(r)]
    return {"states": list(kernel.states), "rates": rates}
