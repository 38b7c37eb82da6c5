"""Epsilon-parameterized satisfiability over finite kernels.

A state satisfies L r phi at slack e when its rate into the extension of phi
(computed at the same e) falls short of r by at most e. Boolean connectives
are classical: negation is exact complement at every e.

Extensions are computed on the kernel's integer core (see ``kernel``) by one
recursion over the formula tree: a subformula's extension is a state bitmask,
and an ``L r phi`` node takes each state's scaled rate w = theta(m)(phi) * D
into the child's mask. ``Evaluator.masks`` evaluates a list of formulas at
one slack e = ne/de: it scales e once, to ne * D and de, and the walk passes
those integers down; an ``L`` node scales its own r with them to integers
over one common denominator and passes each state's w, scaled the same way,
to ``_modal_holds``, the only place the semantics compares rates.

The walk labels subformulas bottom-up, as the model checker of Clarke,
Emerson and Sistla does (TOPLAS 1986): each node of the list is evaluated
once, so a formula whose operands came earlier in the list costs one
integer operation. ``enumerate_formulas``, an ``encode_down`` or
``encode_up`` call over a list and a list of ``Not(f)`` all build their
formulas that way. A memo of the call maps the id of each ``And`` and
``Not`` node walked to its mask; ``L`` nodes are keyed by id in a table of
their slack (below), and ``Top`` is a leaf. The memo holds no node and is dropped when the call
returns: ``masks`` freezes its input into a tuple, which keeps every node
the memo keys alive for the call, so no id is reused within it, even by
fresh nodes that a generator builds one at a time. ``margins`` reads each
formula's stability margin off the same walk: beside each node's mask, a
table of the call keeps the least positive deficit r - (theta(m)(phi) + e)
of any ``L`` node in that node's subtree, computed on the same integers.
``mask`` and ``stability_margin`` are the one-formula cases of ``masks``
and ``margins``. Every caller inside the package reads masks: ``sat``,
``valid_on`` and the property suites test bits and compare masks.
``extension`` and ``eval_formula`` return frozensets, for the CLI and
other callers outside the package.

An ``Evaluator`` keeps one table per scaled slack (ne, de), keyed by the id
of each ``L`` node it has evaluated at that slack, so an ``L`` node shared
by many calls' formulas is evaluated once per evaluator and slack. An entry
holds its node as well as the mask, so no id is reused while the entry
lives. The same table also keys each mask by the L node's rate and its
child's mask, (nr, dr, child mask): an ``L`` node's extension at a slack
depends on nothing else, so an equal node built afresh (as each
``axiom_instance`` call and each ``encode_abs`` call builds them) walks its
child but makes no modal comparison. Only ``L`` nodes are kept past a call:
``And``, ``Not`` and ``Top`` cost one integer operation each. No formula is hashed for the tables, only integers. The
tables live as long as the evaluator, which ``sat``, ``valid_on`` and
``eval_formula`` build once per call. ``margins`` walks with a table of its
own call instead, since an ``L`` node answered from an older table brings
no deficit.

``search_model`` enumerates rate assignments as tuples of grid indices in
row-major slot order and tries kernels only up to state relabeling: it
evaluates an assignment only when no relabeling of the states gives a
lexicographically smaller tuple. Satisfaction is invariant under relabeling,
so the first witness in enumeration order is such a canonical assignment and
the answer is the one a search over every assignment gives. Its budget counts
every enumerated assignment, the skipped ones included.

The canonical candidates are evaluated in batches. A batch is one ``Kernel``
that holds its n-state candidates side by side, candidate k on the states
s{k*n} to s{k*n+n-1}, and it is walked once. The answers are those of one
kernel per candidate, because satisfaction is invariant under disjoint union:

- the walk is state-local: a state's bit depends only on its row and on the
  bits of the states that row reaches;
- a batch has no rate between two candidates;
- the integer core compares exactly at any scale, so the batch's scale (the
  lcm over all its candidates) changes no comparison.

So the lowest set bit of the batch's extension names the first witnessing
candidate and its lowest state. A batch ends where its run ends, a run being
the g**n consecutive assignments that differ only in the last state's row, so
a batch never holds more than n * g**n states on a g-rate grid. It also ends
before it would pass ``STATES_CAP`` states, so a batch kernel stays small
however many rates the grid holds. A batch holds at most as many candidates
as the search evaluated before it: the first batch is one candidate, and a
batch of one is the candidate's own kernel. A witness found in a larger batch
is rebuilt as its own kernel. At the budget's cut the pending batch is
evaluated before the search gives up.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Optional

from .errors import KernelError, SearchBudgetExceeded
from .formula import And, Formula, L, Not, Top, modal_indices
from .kernel import Kernel
from .rational import Rate, ensure_rate

_ZERO = Fraction(0)
# rates the default search grid may hold before SearchBudgetExceeded; one state
# alone tries a kernel per rate, so a larger grid outruns any search budget
GRID_CAP = 1_000
# sizes a witness search may reach before SearchBudgetExceeded; a one-rate grid
# tries one kernel per size, so the kernel budget never binds on it
STATES_CAP = 64


def _modal_holds(total: int, e: int, r: int) -> bool:
    # The single comparison the whole semantics hinges on, on integers over
    # one common denominator.
    return total + e >= r


def _least(a: Optional[Rate], b: Optional[Rate]) -> Optional[Rate]:
    # the smaller of two deficits, None standing for no deficit
    return a if b is None or (a is not None and a < b) else b


class Evaluator:
    """Extensions on one kernel; it holds the kernel, its full mask and one
    table of ``L`` node masks per slack.

    ``masks`` gives the extensions of a list of formulas at one slack as
    state bitmasks (bit i is state i of the kernel), with one walk over the
    list, ``_walk``. The call scales its slack e = ne/de once, to the
    integers ne * D and de, and the walk passes them down; each ``L`` node
    then scales only its own rate. Each node is walked once per call: a memo
    of the call maps the id of each ``And`` and ``Not`` node to its mask,
    and the slack's table does the same for ``L`` nodes. The call freezes
    the list into a tuple first: the tuple keeps every node the memo keys
    alive for the call, so even fresh nodes from a generator never share an
    id, and the memo is dropped when the call returns.

    The slack's table outlives the call: an ``L`` node found there is not
    walked again, and one walked is entered as (node, mask) under its id. An
    ``L`` node not found walks its child, and its rate and child mask are
    looked up next: an equal node answered before gives the mask without a
    comparison.

    ``margins`` reads each formula's stability margin off the same walk. It
    walks with a table of its own call, never the evaluator's, since a node
    answered from an older table brings no deficit; a second table of the
    call maps each node's id to the least positive deficit in its subtree.
    ``mask`` and ``stability_margin`` are the one-formula cases: ``mask``
    runs the same walk on the same table with a memo of its own, which the
    formula it was passed keeps valid, and skips only the list. ``extension``
    and ``_compute`` read ``mask``.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._full = kernel.full
        # scaled slack (ne, de) -> {id(L node): (node, mask),
        #                           (nr, dr, child mask): (mask, deficit)}
        self._tables: dict[tuple[int, int], dict] = {}

    def masks(self, formulas: Iterable[Formula], e: Rate) -> list[int]:
        """The extension of each formula at slack e, as a state bitmask."""
        formulas = tuple(formulas)  # holds every node the memo keys
        slack, de, table = self._scaled(e)
        memo: dict[int, int] = {}
        walk = self._walk
        return [walk(f, slack, de, table, memo, None) for f in formulas]

    def mask(self, f: Formula, e: Rate) -> int:
        return self._walk(f, *self._scaled(e), {}, None)

    def _scaled(self, e: Rate) -> tuple[int, int, dict]:
        # e = ne/de scaled once, to ne * D and de, and the table of that slack
        ne, de = ensure_rate(e).as_integer_ratio()
        table = self._tables.get((ne, de))
        if table is None:
            table = self._tables[ne, de] = {}
        return ne * self.kernel.scale, de, table

    def extension(self, f: Formula, e: Rate) -> frozenset:
        return self._compute(f, e)

    def _compute(self, f: Formula, e: Rate) -> frozenset:
        return self.kernel.set_of(self.mask(f, e))

    def margins(
        self, formulas: Iterable[Formula], e: Rate
    ) -> list[tuple[int, Optional[Rate]]]:
        """Each formula's mask at e and its stability margin: the smallest
        positive deficit among its failed modal comparisons at e.

        Raising e by less than the margin cannot flip any comparison, so the
        extension of every subformula is unchanged on [e, e + margin). The
        margin is None when every comparison already holds (no finite flip
        point). The deficits come from the walk at e, one least positive
        deficit per ``L`` node.
        """
        formulas = tuple(formulas)  # holds every node the memo keys
        ne, de = ensure_rate(e).as_integer_ratio()
        slack = ne * self.kernel.scale
        memo: dict[int, int] = {}
        least: dict[int, Optional[Rate]] = {}
        table: dict = {}
        walk = self._walk
        return [(walk(f, slack, de, table, memo, least), least[id(f)]) for f in formulas]

    def stability_margin(self, f: Formula, e: Rate) -> Optional[Rate]:
        """The margin of ``margins`` for the one formula f."""
        return self.margins((f,), e)[0][1]

    def _walk(
        self, f: Formula, slack: int, de: int, table: dict, memo: dict,
        least: Optional[dict],
    ) -> int:
        # the extension of f at e = slack / (D * de) as a state bitmask; an L
        # node is entered in the table and an And or Not node in the memo,
        # under its id; with a least table, the least positive deficit of f's
        # subtree is entered there too, and the table is one of the call's
        cls = f.__class__
        key = id(f)
        if cls is L:
            known = table.get(key)
            if known is not None:
                return known[1]
            child = self._walk(f.child, slack, de, table, memo, least)
            nr, dr = f.rate.as_integer_ratio()
            same = (nr, dr, child)
            hit = table.get(same)
            if hit is None:
                hit = table[same] = self._modal(child, slack, de, nr, dr, least is not None)
            out, gap = hit
            table[key] = (f, out)
            if least is not None:
                least[key] = _least(least[id(f.child)], gap)
            return out
        if cls is Top:
            if least is not None:
                least[key] = None
            return self._full
        out = memo.get(key)
        if out is not None:
            return out
        if cls is And:
            out = (self._walk(f.left, slack, de, table, memo, least)
                   & self._walk(f.right, slack, de, table, memo, least))
            if least is not None:
                least[key] = _least(least[id(f.left)], least[id(f.right)])
        elif cls is Not:
            out = self._full ^ self._walk(f.child, slack, de, table, memo, least)
            if least is not None:
                least[key] = least[id(f.child)]
        else:
            raise TypeError(f"not a formula node: {f!r}")
        memo[key] = out
        return out

    def _modal(
        self, child: int, slack: int, de: int, nr: int, dr: int, deficit: bool
    ) -> tuple[int, Optional[Rate]]:
        # the mask of L (nr/dr) over the child mask and, when deficit is set,
        # the least positive deficit of its comparisons (else None):
        # theta(m)(child) + e >= r, multiplied through by D and by the
        # denominators of e and r: w * de * dr + ne * D * dr >= nr * D * de
        kernel = self.kernel
        unit = de * dr
        slack_r = slack * dr
        bound = nr * kernel.scale * de
        measures = kernel.scaled_measures(child)
        holds = _modal_holds
        out = 0
        bit = 1
        for w in measures:
            if holds(w * unit, slack_r, bound):
                out |= bit
            bit <<= 1
        if not deficit:
            return out, None
        # the deficit r - (w / D + e), over the denominator D * de * dr
        gap = min((g for w in measures if (g := bound - w * unit - slack_r) > 0),
                  default=0)
        return out, Fraction(gap, kernel.scale * unit) if gap else None


def eval_formula(kernel: Kernel, f: Formula, e: Rate) -> frozenset:
    """The extension {m | m satisfies f at slack e}."""
    return Evaluator(kernel).extension(f, e)


def sat(kernel: Kernel, state: str, f: Formula, e: Rate) -> bool:
    if state not in kernel.state_set:
        raise KernelError(f"unknown state {state!r}")
    return bool(Evaluator(kernel).mask(f, e) & kernel.mask_of((state,)))


def valid_on(kernel: Kernel, f: Formula, e: Rate) -> bool:
    """True when every state of this kernel satisfies f at slack e."""
    return Evaluator(kernel).mask(f, e) == kernel.full


def default_rate_grid(f: Formula, e: Rate) -> list[Rate]:
    """0 plus the modal indices of f, closed under sums of two different
    rates up to max+e.

    Each rate is joined once with every rate taken before it and never with
    itself, so ``L{1} T`` at slack 1 gives [0, 1], not [0, 1, 2]. Raises
    ``SearchBudgetExceeded`` once the grid holds more than ``GRID_CAP`` rates.
    """
    e = ensure_rate(e)
    base = set(modal_indices(f))
    cap = (max(base) if base else _ZERO) + e
    grid = {_ZERO} | base
    queue = sorted(grid)
    joined: list[Rate] = []  # the rates taken so far, ascending
    while queue:
        a = queue.pop()
        for b in joined:
            s = a + b
            if s > cap:
                break
            if s not in grid:
                grid.add(s)
                queue.append(s)
                if len(grid) > GRID_CAP:
                    raise SearchBudgetExceeded(
                        f"default rate grid exceeded {GRID_CAP} rates"
                    )
        bisect.insort(joined, a)
    return sorted(grid)


def _relabelings(n: int) -> list:
    # one getter per non-identity permutation p of n states: on an index tuple
    # in row-major slot order it gives the tuple of the kernel whose state i is
    # state p(i), that is slot (i, j) reads slot (p(i), p(j))
    return [
        operator.itemgetter(*(p[i] * n + p[j] for i in range(n) for j in range(n)))
        for p in itertools.islice(itertools.permutations(range(n)), 1, None)
    ]


def _batch_witness(
    f: Formula, e: Rate, states: list[str], rates: dict[tuple[str, str], Rate]
) -> Optional[tuple[Kernel, int]]:
    # the batch's candidates side by side in one kernel, walked once: the
    # kernel and the position of its lowest state that satisfies f, if any
    kernel = Kernel(states, rates)
    found = Evaluator(kernel).mask(f, e)
    return (kernel, (found & -found).bit_length() - 1) if found else None


def search_model(
    f: Formula,
    e: Rate,
    max_states: int,
    rate_grid: Iterable[Rate] | None = None,
    max_candidates: int = 500_000,
) -> Optional[tuple[Kernel, str]]:
    """Best-effort witness search over kernels up to max_states with grid rates.

    Returns the first (kernel, state) with state satisfying f at slack e, in a
    deterministic enumeration order; None when the bounded space has no
    witness (which proves nothing beyond the bounds). Kernels are tried up to
    state relabeling: an assignment of grid rates to the slots is evaluated
    only when no relabeling of its states enumerates earlier, which leaves the
    first witness unchanged. Candidates are evaluated in batches, one kernel
    per batch (see the module docstring); a witness found in a batch of more
    than one is rebuilt as its own kernel on s0 to s{n-1}, so the answer is
    the one a search that builds each candidate gives. Raises
    SearchBudgetExceeded when max_candidates assignments, skipped ones
    included, were enumerated first, or when the search reaches a size past
    ``STATES_CAP`` states.
    """
    e = ensure_rate(e)
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    grid = sorted({ensure_rate(r) for r in rate_grid}) if rate_grid is not None else None
    if grid is None:
        grid = default_rate_grid(f, e)
    g = len(grid)
    tried = evaluated = 0
    names: list[str] = []  # s0, s1, ...: the states of a batch
    for n in range(1, max_states + 1):
        if n > STATES_CAP:
            raise SearchBudgetExceeded(f"search_model exceeded {STATES_CAP} states")
        # one state has no relabeling, and one rate gives one assignment per
        # size, canonical by itself; building no n! maps for it lets that
        # search reach STATES_CAP quickly
        relabelings = _relabelings(n) if n > 1 and g > 1 else ()
        places: list[list[tuple[str, str]]] = []  # the slots of each batch position
        # a run: the g**n assignments that share all but the last state's row
        head = n * n - n
        # a batch passes no STATES_CAP states, whatever the grid's size
        room = STATES_CAP // n
        batch: list[tuple[int, ...]] = []
        rates: dict[tuple[str, str], Rate] = {}
        found = None
        for index in itertools.product(range(g), repeat=n * n):
            tried += 1
            if tried > max_candidates:
                break
            if relabelings and any(relabel(index) < index for relabel in relabelings):
                continue  # a relabeling of an assignment enumerated earlier
            # a batch ends where its run ends or when it holds room
            # candidates, and holds at most as many candidates as were
            # evaluated before it
            k = len(batch)
            if k and (k >= evaluated or k >= room or index[:head] != run):
                found = _batch_witness(f, e, names[:k * n], rates)
                if found:
                    break
                evaluated += k
                batch, rates, k = [], {}, 0
            if not k:
                run = index[:head]
            if k == len(places):
                names.extend([f"s{i}" for i in range(len(names), k * n + n)])
                own = names[k * n:k * n + n]
                places.append([(s, t) for s in own for t in own])
            for slot, i in zip(places[k], index):
                rates[slot] = grid[i]
            batch.append(index)
        if batch and not found:
            # the batch pending at the end of the size or at the budget's cut
            found = _batch_witness(f, e, names[:len(batch) * n], rates)
        if found:
            kernel, bit = found
            k, i = divmod(bit, n)
            if len(batch) > 1:  # candidate 0's slots are the witness's own
                kernel = Kernel(names[:n], {s: grid[j] for s, j in zip(places[0], batch[k])})
            return kernel, names[i]
        if tried > max_candidates:
            raise SearchBudgetExceeded(
                f"search_model exhausted its budget of {max_candidates} kernels"
            )
        evaluated += len(batch)
    return None
