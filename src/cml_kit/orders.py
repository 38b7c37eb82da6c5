"""Behavioral slack orders: the largest plain order and the essential variant.

A relation R (closed under bisimulation, i.e. a union of block products) is a
plain e-order when for every (m, n) in R and every definable C,
theta(n)(C) - theta(m)(C ∪ pullback_R(C)) <= e, where pullback_R(C) is the set
of states R-related *into* C. The essential variant bounds the same slack into
[0, e], quantified over every union of blocks, and uses the bare pullback
(no C term): including C would force theta(m)(C) = 0 for every C the target
cannot reach, which contradicts the worked examples this module must
reproduce.

The plain largest order is a greatest fixpoint (the deletion condition is
monotone in R). ``PlainDescent`` computes it from the full relation and keeps
each live pair's violation, its largest slack above, which deletions only
raise. The fixpoint only shrinks as the slack falls, so one descent can go on
to a lower slack from the fixpoint it holds; ``metric`` reads distances off
its ``stages``, which descend one peak violation at a time. The essential
condition's lower bound is antitone in R, so "largest" is read as membership:
(m, n) is essentially ordered when SOME essential order contains it.
Membership is decided by a backtracking witness search over the total-rate
band 0 <= s_n - s_m <= e (s the total exit rate), with band pairs as the only
candidates: one search per band pair that no witness found earlier in the same
call already contains.

Every essential R is a plain order, so no plain fixpoint is needed: for C a
union of blocks, theta_n(C) - theta_m(C ∪ R⁻¹C) <= [s_n - theta_m(dom R)] -
[theta_n(C̄) - theta_m(dom R ∖ R⁻¹C)], where the first bracket is at most e and
the second is >= 0 by the pullback bounds on R⁻¹C̄ ⊇ dom R ∖ R⁻¹C. The search
is complete: a minimal witness adds only new left blocks, each one for the
first pair whose total slack is still unmet.

Formulas, the orders and the pseudometric cannot tell bisimilar states
apart, so the solver runs on the quotient kernel: one state per block, each
block's rate into a block being its first state's, summed over the target
block's columns. It computes on the quotient's integer core (see ``kernel``)
at its scale D_q, which divides the kernel's scale D, so every block measure
and every slack is an integer multiple of 1/D_q. Sets of blocks are the
quotient's state bitmasks, and the family is the quotient's; every block
measure is one ``scaled_measures`` of the quotient. A slack x (an integer,
in units of 1/D_q) exceeds e exactly when x > floor(e·D_q), because x is an
integer; every comparison with e is made that way, so the plain fixpoint
depends on e only through floor(e·D_q). The stages rely on that: they
descend over integer limits only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .equivalence import Partition, bisimulation, generators
from .errors import KernelError, SearchBudgetExceeded
from .formula import Formula
from .kernel import Kernel, disjoint_union, left_tag, right_tag
from .rational import Rate, ensure_rate

BlockPair = tuple[int, int]

# steps one essential witness search may take before SearchBudgetExceeded
WITNESS_BUDGET = 200_000

# pair checks and closure updates one PlainDescent may make before
# SearchBudgetExceeded, about a second of work: the descent to 0 makes
# Theta(n^3) of them on an n-state chain, and fits up to 163 states
DESCENT_BUDGET = 3_000_000


class OrderSolver:
    """Per-kernel solver keeping the partition, its quotient kernel and the
    quotient's family."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.partition: Partition = bisimulation(kernel)
        self.blocks = self.partition.blocks
        self.n_blocks = len(self.blocks)
        self._block_index = {s: i for i, b in enumerate(self.blocks) for s in b}
        # the quotient kernel: one state per block, named by its first state.
        # Every state of a block has the same rate into each block, so block
        # i's rate into block j is its first state's, summed over j's columns
        block_at = [self._block_index[s] for s in kernel.states]
        firsts: dict[int, int] = {}
        for position, i in enumerate(block_at):
            firsts.setdefault(i, position)
        names = [kernel.states[firsts[i]] for i in range(self.n_blocks)]
        leads = {position: names[i] for i, position in firsts.items()}
        rates: dict[tuple[str, str], int] = {}
        for t, col in enumerate(kernel.cols):
            target = names[block_at[t]]
            for s, w in col:
                if s in leads:
                    key = (leads[s], target)
                    rates[key] = rates.get(key, 0) + w
        # each summed weight becomes its Fraction, one per distinct value,
        # which the constructor coerces once
        fractions = {w: Fraction(w, kernel.scale) for w in set(rates.values())}
        self.quotient = Kernel(names, {key: fractions[w] for key, w in rates.items()})
        # D_q, which divides the kernel's scale D
        self.scale = self.quotient.scale
        # sums[i]: scaled exit total of block i
        self.sums = self.quotient.totals
        # _masses[mask]: scaled theta of every block into the blocks of mask
        self._masses: dict[int, list[int]] = {}
        # the generator family of the quotient, built on first use
        self._family: Optional[dict[int, Formula]] = None

    # --- exact integer core ----------------------------------------------

    def _mass(self, i: int, mask: int) -> int:
        # the essential search asks the same few masks of many blocks, so each
        # mask's measures, one sum of its columns, are kept for every block
        masses = self._masses.get(mask)
        if masses is None:
            masses = self._masses[mask] = self.quotient.scaled_measures(mask)
        return masses[i]

    def _limit(self, e: Rate) -> int:
        # an integer slack x exceeds e exactly when x > floor(e * scale)
        return e.numerator * self.scale // e.denominator

    # --- family at block level -------------------------------------------

    @property
    def family(self) -> dict[int, Formula]:
        """The quotient's generator family (``generators``), keyed by block
        bitmask and built once per solver."""
        if self._family is None:
            self._family = generators(self.quotient)
        return self._family

    def family_blocks(self) -> list[int]:
        """The members of ``family``, block bitmasks, in the order added."""
        return list(self.family)

    # --- plain order: greatest fixpoint ----------------------------------

    def plain_pairs(self, e: Rate) -> frozenset:
        descent = PlainDescent(self)
        descent.descend(self._limit(ensure_rate(e)))
        return frozenset(descent.violation)

    # --- essential order: witness membership -----------------------------

    def essential_pairs(self, e: Rate) -> frozenset:
        """The block pairs that some essential e-order contains."""
        limit = self._limit(ensure_rate(e))
        n, sums = self.n_blocks, self.sums
        # total rates within [0, e] of each other, never smaller on the
        # dominating side: no witness repairs a pair outside this band
        band = [
            (i, j) for i in range(n) for j in range(n)
            if 0 <= sums[j] - sums[i] <= limit
        ]
        # every pair of a witness is essential, so a pair inside a witness
        # found earlier needs no search of its own
        proved: set[BlockPair] = set()
        for p in band:
            if p not in proved:
                witness = self._witness(p, band, limit)
                if witness is not None:
                    proved |= witness
        return frozenset(proved)

    def _unmet(self, rel: frozenset, limit: int) -> Optional[list[BlockPair]]:
        """None if a pullback bound theta_i(R⁻¹b) <= theta_j(b) fails, which no
        added pair repairs (pullbacks only grow); else the pairs of rel, in no
        particular order, whose total slack sums[j] - theta_i(dom R) exceeds
        limit.
        """
        into = [0] * self.n_blocks
        lefts = 0
        for (i, j) in rel:
            into[j] |= 1 << i
            lefts |= 1 << i
        pulled = [(b, into_b) for b, into_b in enumerate(into) if into_b]
        mass = self._mass
        unmet = []
        for (i, j) in rel:
            if any(mass(i, into_b) > mass(j, 1 << b) for b, into_b in pulled):
                return None
            if self.sums[j] - mass(i, lefts) > limit:
                unmet.append((i, j))
        return unmet

    def _witness(
        self, query: BlockPair, candidates: list[BlockPair], limit: int
    ) -> Optional[frozenset]:
        """An essential relation of candidate pairs containing query, or None.

        Depth first from {query}: while a pair's total slack is unmet, add a
        pair with a new left block that the least unmet pair's block reaches.
        """
        seen: set[frozenset] = set()
        ticks = 0

        def dfs(rel: frozenset) -> Optional[frozenset]:
            nonlocal ticks
            if rel in seen:
                return None
            seen.add(rel)
            ticks += 1
            if ticks > WITNESS_BUDGET:
                raise SearchBudgetExceeded(
                    f"essential witness search exceeded {WITNESS_BUDGET} steps"
                )
            unmet = self._unmet(rel, limit)
            if unmet is None:
                return None
            if not unmet:
                return rel
            first = min(unmet)[0]
            lefts = {bi for (bi, _) in rel}
            for cand in candidates:
                if cand[0] not in lefts and self._mass(first, 1 << cand[0]) > 0:
                    found = dfs(rel | {cand})
                    if found is not None:
                        return found
            return None

        return dfs(frozenset({query}))

    # --- public relation construction ------------------------------------

    def order(self, e: Rate, essential: bool = False) -> frozenset:
        """The state pairs of the largest plain (or essential) e-order."""
        pairs = self.essential_pairs(e) if essential else self.plain_pairs(e)
        relation = set()
        for (i, j) in pairs:
            for x in self.blocks[i]:
                for y in self.blocks[j]:
                    relation.add((x, y))
        return frozenset(relation)

    def block_pair_of(self, m: str, n: str) -> BlockPair:
        index = self._block_index
        for state in (m, n):
            if state not in index:
                raise KernelError(f"unknown state {state!r}")
        return (index[m], index[n])


class PlainDescent:
    """The plain greatest fixpoint, lowered one limit at a time.

    It starts from the full relation, the fixpoint at every limit from the
    largest exit total up. ``violation`` maps each live block pair (i, j) to
    its violation under the live relation R: the largest theta(j)(C) -
    theta(i)(C ∪ R⁻¹C) over family members C. R is the fixpoint at every
    limit from the largest violation up to the last limit descended to.
    Deleting pairs only shrinks closures, so a violation only grows: after a
    deletion, each live pair is rechecked against the members whose closure
    changed, one closure at a time, and keeps the larger violation.
    """

    def __init__(self, solver: OrderSolver):
        members = solver.family_blocks()
        n = solver.n_blocks
        self._measures = solver.quotient.scaled_measures
        # each member with the blocks it holds
        self._members = [(c, [j for j in range(n) if c >> j & 1]) for c in members]
        # theta[k][j]: scaled theta of block j into family member k
        self._theta = [self._measures(c) for c in members]
        # into[j]: the blocks R-related into block j
        everything = (1 << n) - 1
        self._into = [everything] * n
        # under the full relation every nonempty member's closure is every block
        self._closures = [everything if c else 0 for c in members]
        # every slack of (i, j) is at least -sums[i], so the recheck over
        # every member leaves each pair's exact violation
        self.violation: dict[BlockPair, int] = {
            (i, j): -solver.sums[i] for i in range(n) for j in range(n)
        }
        # pair checks and closure updates made so far, against DESCENT_BUDGET
        self._work = 0
        self._recheck(range(len(members)))

    def descend(self, limit: int) -> list[BlockPair]:
        """Delete pairs until every live violation is at most limit; return them."""
        violation, into = self.violation, self._into
        deleted: list[BlockPair] = []
        over = [p for p, v in violation.items() if v > limit]
        while over:
            deleted += over
            for (i, j) in over:
                del violation[(i, j)]
                into[j] &= ~(1 << i)
            self._work += len(self._members)
            changed = []
            for k, (c, blocks) in enumerate(self._members):
                closure = c
                for j in blocks:
                    closure |= into[j]
                if closure != self._closures[k]:
                    self._closures[k] = closure
                    changed.append(k)
            self._recheck(changed)
            if self._work > DESCENT_BUDGET:
                raise SearchBudgetExceeded(
                    f"plain order descent exceeded {DESCENT_BUDGET} steps"
                )
            over = [p for p, v in violation.items() if v > limit]
        return deleted

    def stages(self) -> Iterator[tuple[int, list[BlockPair]]]:
        """While the peak, the largest live violation, is above 0, descend to
        peak - 1 and yield (peak, the deleted pairs). A pair deleted at a stage
        holds at exactly the limits from that stage's peak up."""
        live = self.violation
        peak = max(live.values())
        while peak > 0:
            yield peak, self.descend(peak - 1)
            peak = max(live.values())

    def _recheck(self, changed) -> None:
        # the members that share a closure share its masses, so each live pair
        # is compared once per closure, with the largest theta into them
        tops: dict[int, list[int]] = {}
        for k in changed:
            closure, row = self._closures[k], self._theta[k]
            top = tops.get(closure)
            tops[closure] = row if top is None else list(map(max, top, row))
        violation = self.violation
        self._work += len(tops) * len(violation)
        for closure, top in tops.items():
            base = self._measures(closure)
            for (i, j), v in violation.items():
                slack = top[j] - base[i]
                if slack > v:
                    violation[(i, j)] = slack


def union_solver(
    k1: Kernel, m: str, k2: Kernel, n: str
) -> tuple[OrderSolver, BlockPair]:
    """The solver of the tagged union of k1 and k2, and the block pair of (m, n).

    States are checked in their own kernels, so an error never shows a tag.
    """
    for kernel, state in ((k1, m), (k2, n)):
        if state not in kernel.state_set:
            raise KernelError(f"unknown state {state!r}")
    solver = OrderSolver(disjoint_union(k1, k2))
    return solver, solver.block_pair_of(left_tag(m), right_tag(n))


def holds(
    k1: Kernel, m: str, k2: Kernel, n: str, e: Rate, essential: bool = False
) -> bool:
    """Whether (k1, m) is e-below (k2, n), lifted through the tagged disjoint union."""
    solver, pair = union_solver(k1, m, k2, n)
    pairs = solver.essential_pairs(e) if essential else solver.plain_pairs(e)
    return pair in pairs
