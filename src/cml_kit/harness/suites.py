"""Property suites over generated kernels and enumerated formulas.

Each suite replays one of the library's structural guarantees at desk scale
and records a checked-count plus counterexamples in the report it is handed;
``run_suite`` creates that report, runs the suite on it and times the run.
The formula suites (t2, c2, l1, l2) share one driver. It hands each check a
kernel's whole formula list at one slack, so the evaluator walks each shared
subformula once per list and slack (see ``semantics``), and the check returns
what failed for each formula. The driver reports those failures formula by
formula and, for each formula, slack by slack, the order of one check per
formula and slack. An exception has no formula, so a check that raises on
the list is run again on each formula alone, ``(f,)``: an exception there
fails that instance, with the slack in its description, and the other
formulas keep their own answers. Every failure is shrunk to a smaller kernel
and formula that still fail, with the one-formula check as the oracle. l5
counts an exception while checking a kernel's orders as a failure,
soundness a rejected example proof and l4 a failed translation; in every
other suite an exception aborts the run. Only the formula suites shrink their
counterexamples.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

from .. import equivalence as equivalence_mod
from ..equivalence import defining_formulas, generators, partition_from_family
from ..errors import Record
from ..formula import (
    And,
    Formula,
    Fragment,
    Implies,
    L,
    Not,
    Top,
    encode_abs,
    encode_down,
    encode_up,
    print_formula,
)
from ..kernel import Kernel, disjoint_union, kernel_to_doc
from ..orders import OrderSolver, PlainDescent
from ..proofcheck import (
    Axiom,
    Proof,
    ProofLine,
    RuleR1,
    Tautology,
    axiom_instance,
    check,
    translate_proof,
)
from ..rational import Rate, ensure_rate, format_rate
from ..semantics import Evaluator, valid_on
from .enumerate import enumerate_formulas
from .generate import corpus
from .oracles import pair_mask, transfer_essential, transfer_plain
from .shrink import shrink

_ZERO = Fraction(0)
# failures one report keeps; later ones are dropped unshrunk
FAILURE_CAP = 25
# State bound of the corpora that run exponential oracles: extension-pair
# saturation and the essential witness search grow exponentially with the
# states, so these corpora stay small at every budget.
ORACLE_STATES = 4


class Budget(Record):
    seed: int = 7
    kernels: int = 10
    max_states: int = 5
    depth: int = 2
    max_formulas: int = 400
    epsilons: tuple[Rate, ...] = (
        Fraction(0),
        Fraction(1, 10),
        Fraction(1, 3),
        Fraction(1),
        Fraction(5, 2),
    )
    epsilon_pairs: tuple[tuple[Rate, Rate], ...] = (
        (Fraction(0), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(3, 2)),
        (Fraction(1, 10), Fraction(2)),
    )


def small_budget(seed: int = 7) -> Budget:
    return Budget(seed=seed, kernels=6, max_states=4, depth=2, max_formulas=150)


def default_budget(seed: int = 7) -> Budget:
    return Budget(seed=seed)


def full_budget(seed: int = 7) -> Budget:
    return Budget(seed=seed, kernels=18, max_states=6, depth=3, max_formulas=900)


BUDGETS: dict[str, Callable[[int], Budget]] = {
    "small": small_budget,
    "default": default_budget,
    "full": full_budget,
}


class Failure(Record):
    description: str
    kernel_doc: Optional[dict] = None
    formula: Optional[str] = None

    def to_doc(self) -> dict:
        doc: dict = {"description": self.description}
        if self.kernel_doc is not None:
            doc["kernel"] = self.kernel_doc
        if self.formula is not None:
            doc["formula"] = self.formula
        return doc


class SuiteReport:
    """One suite run: its checked-count, failures, wall time and notes."""

    def __init__(self, suite: str, seed: int = 0):
        self.suite = suite
        self.checked = 0
        self.failures: list[Failure] = []
        self.elapsed_s = 0.0
        self.seed = seed
        self.notes: dict = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": [f.to_doc() for f in self.failures],
            "elapsed_s": round(self.elapsed_s, 3),
            "seed": self.seed,
            "notes": self.notes,
        }

    def fail(
        self,
        description: str,
        kernel: Optional[Kernel] = None,
        formula: Optional[Formula] = None,
        fails: Optional[Callable] = None,
    ) -> None:
        if len(self.failures) >= FAILURE_CAP:
            return
        if kernel is not None and fails is not None:
            kernel, formula = shrink(kernel, formula, fails)
        self.failures.append(
            Failure(
                description,
                kernel_doc=kernel_to_doc(kernel) if kernel is not None else None,
                formula=print_formula(formula) if formula is not None else None,
            )
        )


def _suite_corpus(budget: Budget, cap: Optional[int] = None) -> list[Kernel]:
    max_states = budget.max_states if cap is None else min(budget.max_states, cap)
    return corpus(kernels=budget.kernels, max_states=max_states, seed=budget.seed)


def _union_of_blocks(members: int, blocks: list[int]) -> bool:
    """Whether the state mask ``members`` is a union of the block masks."""
    return all(members & b in (0, b) for b in blocks)


def _family_grid(
    kernel: Kernel, family, extra: tuple[Rate, ...] = (_ZERO,)
) -> tuple[Rate, ...]:
    """The separating rate thresholds: every theta(x)(C) over states x and
    family members C, and the rates of ``extra``."""
    scaled = {w for c in family for w in kernel.scaled_measures(c)}
    return tuple(sorted({Fraction(w, kernel.scale) for w in scaled}.union(extra)))


def _shifted_grid(grid: tuple[Rate, ...], e: Rate) -> tuple[Rate, ...]:
    """The grid together with each of its rates shifted up by e."""
    return tuple(sorted(set(grid) | {v + e for v in grid}))


def _formulas(
    budget: Budget,
    grid: tuple[Rate, ...],
    fragment: Fragment,
    depth: Optional[int] = None,
) -> tuple[tuple[Formula, ...], bool]:
    return enumerate_formulas(
        budget.depth if depth is None else depth, grid, fragment, budget.max_formulas
    )


# --- individual suites --------------------------------------------------------


def _formula_suite(
    report: SuiteReport, budget: Budget, fragment: Fragment, slacks,
    check: Callable[..., list[tuple[str, ...]]], extra: tuple[Rate, ...] = (),
) -> bool:
    """Run ``check(ev, formulas, *slack)``, which returns what failed for
    each formula, on every corpus kernel's formulas of ``fragment`` over the
    family grid plus ``extra``, once per slack. A check encodes the whole
    list with one encoder call, so the encodings share nodes as the formulas
    do, and ``ev``'s walks evaluate each shared node once. Failures are
    reported formula by formula, and for each formula slack by slack. A check
    that raises is run again on each formula alone, and an exception there
    fails that instance; every failure is shrunk with the one-formula check
    as the oracle. Returns whether any enumeration was truncated."""
    truncated = False
    for kernel in _suite_corpus(budget):
        ev = Evaluator(kernel)
        grid = _family_grid(kernel, generators(kernel), (_ZERO, *extra))
        formulas, cut = _formulas(budget, grid, fragment)
        truncated |= cut
        found = []  # per slack, the problems of each formula
        for slack in slacks:
            try:
                found.append(check(ev, formulas, *slack))
            except Exception:
                found.append([_check_one(check, ev, f, slack) for f in formulas])
        for f, row in zip(formulas, zip(*found)):
            for slack, problems in zip(slacks, row):
                report.checked += 1
                for problem in problems:
                    report.fail(problem, kernel, f, lambda k, g: bool(
                        check(Evaluator(k), (g,), *slack)[0]))
    return truncated


def _check_one(check: Callable[..., list[tuple[str, ...]]], ev: Evaluator,
               f: Formula, slack) -> tuple[str, ...]:
    # the problems of the one formula f, an exception among them
    try:
        return check(ev, (f,), *slack)[0]
    except Exception as exc:
        at = ", ".join(f"{name}={format_rate(v)}" for name, v in zip(("e", "e'"), slack))
        return (f"exception at {at}: {exc}",)


def _pair_text(e: Rate, e2: Rate) -> str:
    return f"at e={format_rate(e)}, e'={format_rate(e2)}"


def _t2_check(ev: Evaluator, formulas, e: Rate, e2: Rate) -> list[tuple[str, ...]]:
    n = len(formulas)
    # each formula and its up encoding at e + e', and each and its down
    # encoding at e
    at_total = ev.masks([*formulas, *encode_up(formulas, e2)], e + e2)
    at_e = ev.masks([*formulas, *encode_down(formulas, e2)], e)
    return [(f"transfer (down) broken {_pair_text(e, e2)}",) if at_total[i] != at_e[n + i]
            else (f"transfer (up) broken {_pair_text(e, e2)}",) if at_e[i] != at_total[n + i]
            else () for i in range(n)]


def suite_t2(report: SuiteReport, budget: Budget) -> None:
    """Slack transfer: evaluating at e+e' equals evaluating the shifted formula."""
    extra = (Fraction(1, 2), Fraction(2))
    if _formula_suite(report, budget, Fragment.FULL, budget.epsilon_pairs, _t2_check, extra):
        report.notes["truncated"] = True


def _c2_check(ev: Evaluator, formulas, e: Rate) -> list[tuple[str, ...]]:
    n = len(formulas)
    # each formula and its down encoding at 0, and each formula, its
    # negation and its up encoding at e
    at_0 = ev.masks([*formulas, *encode_down(formulas, e)], _ZERO)
    at_e = ev.masks([*formulas, *map(Not, formulas), *encode_up(formulas, e)], e)
    full = ev.kernel.full
    problem = (f"0-transfer or complementation broken at e={format_rate(e)}",)
    return [() if at_e[i] == at_0[n + i] and at_0[i] == at_e[2 * n + i]
            and at_e[n + i] == full ^ at_e[i] else problem for i in range(n)]


def suite_c2(report: SuiteReport, budget: Budget) -> None:
    """Transfer against the 0-semantics, plus exact Boolean complementation."""
    slacks = [(e,) for e in budget.epsilons]
    _formula_suite(report, budget, Fragment.FULL, slacks, _c2_check, (Fraction(1, 2),))


def _l1_check(ev: Evaluator, formulas, e: Rate, e2: Rate) -> list[tuple[str, ...]]:
    n = len(formulas)
    # each formula and its negation at e and at e + e'
    lo = ev.masks(itertools.chain(formulas, map(Not, formulas)), e)
    hi = ev.masks(itertools.chain(formulas, map(Not, formulas)), e + e2)
    grows = f"positive monotonicity broken {_pair_text(e, e2)}"
    shrinks = f"negative antitonicity broken {_pair_text(e, e2)}"
    # each message once if its check fails
    return [(grows,) * bool(lo[i] & ~hi[i]) + (shrinks,) * bool(hi[n + i] & ~lo[n + i])
            for i in range(n)]


def suite_l1(report: SuiteReport, budget: Budget) -> None:
    """Positive formulas grow with the slack; negated positive formulas shrink."""
    _formula_suite(report, budget, Fragment.POSITIVE, budget.epsilon_pairs, _l1_check)


def _l2_check(ev: Evaluator, formulas, e: Rate) -> list[tuple[str, ...]]:
    margins = ev.margins(formulas, e)
    groups: dict[Optional[Rate], list[int]] = {}
    for i, (_, margin) in enumerate(margins):
        groups.setdefault(margin, []).append(i)
    found: list[tuple[str, ...]] = [()] * len(formulas)
    # formulas with equal margins share their probes, one walk per probe; a
    # formula fails at the first probe that moves its extension
    for margin, members in groups.items():
        for delta in ((margin / 2, margin / 3) if margin is not None
                      else (Fraction(1), Fraction(5))):
            still = []
            for i, m in zip(members, ev.masks([formulas[i] for i in members], e + delta)):
                if m == margins[i][0]:
                    still.append(i)
                else:
                    found[i] = (f"extension moved within the stability margin at "
                                f"e={format_rate(e)}, delta={format_rate(delta)}",)
            members = still
    return found


def suite_l2(report: SuiteReport, budget: Budget) -> None:
    """Below the minimal failing-comparison deficit the extension cannot move."""
    slacks = [(e,) for e in budget.epsilons]
    _formula_suite(report, budget, Fragment.POSITIVE, slacks, _l2_check)


def suite_t1(report: SuiteReport, budget: Budget) -> None:
    """Refinement partition equals the coarsest measure-agreement partition."""
    for kernel in _suite_corpus(budget):
        report.checked += 1
        refined = equivalence_mod.bisimulation(kernel)
        family = generators(kernel)
        if set(refined.blocks) != set(partition_from_family(kernel, family).blocks):
            report.fail("partition mismatch", kernel)
        blocks = [kernel.mask_of(b) for b in refined.blocks]
        if not all(_union_of_blocks(c, blocks) for c in family):
            report.fail("family member is not a union of blocks", kernel)


def suite_c1(report: SuiteReport, budget: Budget) -> None:
    """Positive extensions land in the definable-set family, and full-language
    extensions are unions of bisimulation blocks."""
    for kernel in _suite_corpus(budget):
        ev = Evaluator(kernel)
        family = defining_formulas(kernel)
        blocks = [kernel.mask_of(b) for b in equivalence_mod.bisimulation(kernel).blocks]
        grid = _family_grid(kernel, family, ()) or (_ZERO,)
        pos, _ = _formulas(budget, grid, Fragment.POSITIVE)
        full, _ = _formulas(budget, grid, Fragment.FULL)
        # the members by size, then by state positions
        bits = range(len(kernel.states))
        for c in sorted(family, key=lambda c: (c.bit_count(),
                                               [i for i in bits if c >> i & 1])):
            report.checked += 1
            if ev.mask(family[c], _ZERO) != c:
                report.fail("defining formula misses its member", kernel, family[c])
        # each formula's masks at the slacks, one walk per slack
        eps = budget.epsilons
        for f, row in zip(pos, zip(*(ev.masks(pos, e) for e in eps))):
            for e, m in zip(eps, row):
                report.checked += 1
                if m not in family:
                    report.fail(
                        f"positive extension escapes the family at e={format_rate(e)}",
                        kernel,
                        f,
                    )
        for f, row in zip(full, zip(*(ev.masks(full, e) for e in eps))):
            for e, m in zip(eps, row):
                report.checked += 1
                if not _union_of_blocks(m, blocks):
                    report.fail(
                        f"extension is not a union of blocks at e={format_rate(e)}",
                        kernel,
                        f,
                    )


def suite_l5(report: SuiteReport, budget: Budget) -> None:
    """Bisimulations sit inside both 0-orders; relations stay block-closed."""
    small_eps = (_ZERO, Fraction(1, 10), Fraction(1))
    for kernel in _suite_corpus(budget, ORACLE_STATES):
        try:
            _l5_one_kernel(report, kernel, small_eps)
        except Exception as exc:
            report.fail(f"exception while checking the orders: {exc}", kernel)


def _l5_one_kernel(report: SuiteReport, kernel: Kernel, small_eps) -> None:
    partition = equivalence_mod.bisimulation(kernel)
    blocks = partition.blocks
    solver = OrderSolver(kernel)
    relations = []
    for e in small_eps:
        report.checked += 1
        rel = solver.order(e)
        essential = solver.order(e, essential=True)
        relations.append(rel)
        # closed under bisimulation: block products only
        for candidate in (rel, essential):
            for (x, y) in candidate:
                bx, by = partition.block_of(x), partition.block_of(y)
                if not all((a, b) in candidate for a in bx for b in by):
                    report.fail(
                        f"order not closed under bisimulation at e={format_rate(e)}",
                        kernel,
                    )
                    break
        for block in blocks:
            for a in block:
                for b in block:
                    if (a, b) not in rel or (b, a) not in rel:
                        report.fail("bisimilar pair escapes the 0-order", kernel)
                    if (a, b) not in essential:
                        report.fail(
                            "bisimilar pair escapes the essential 0-order", kernel
                        )
        if not essential <= rel:
            report.fail(
                f"essential order not inside plain at e={format_rate(e)}", kernel
            )
    # monotonicity in the slack
    for lo, hi in zip(relations, relations[1:]):
        report.checked += 1
        if not lo <= hi:
            report.fail("order not monotone in the slack", kernel)
    # sampled block-diagonal sub-bisimulations satisfy the plain condition
    family = solver.family_blocks()
    n = solver.n_blocks
    for select in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(1, min(n, 3) + 1)
    ):
        rel_blocks = frozenset((i, i) for i in select)
        for e in small_eps:
            report.checked += 1
            limit = solver._limit(e)
            for (i, j) in rel_blocks:
                for c in family:
                    lefts = sum(1 << b for b in select if c >> b & 1)
                    slack = solver._mass(j, c) - solver._mass(i, c | lefts)
                    if slack > limit:
                        report.fail(
                            "sub-bisimulation violates the order condition",
                            kernel,
                        )


def suite_paramcharact(report: SuiteReport, budget: Budget) -> None:
    """Bisimilarity coincides with indistinguishability at every sampled slack.

    Agreement of bisimilar pairs is checked over blind enumeration; for
    non-bisimilar pairs a distinguishing formula is constructed from the
    definable-set family (a threshold over a member the pair measures
    differently) and verified by evaluation.
    """
    for kernel in _suite_corpus(budget):
        partition = equivalence_mod.bisimulation(kernel)
        family = defining_formulas(kernel)
        base_grid = _family_grid(kernel, family)
        measures = [kernel.scaled_measures(c) for c in family]
        for e in budget.epsilons:
            ev = Evaluator(kernel)
            rows = list(zip(encode_up(family.values(), e), measures))
            formulas, _ = _formulas(budget, _shifted_grid(base_grid, e), Fragment.FULL)
            # every formula's extension at e, computed on the first bisimilar pair
            extensions = None
            states = kernel.states
            for i, m in enumerate(states):
                for j in range(i + 1, len(states)):
                    n = states[j]
                    report.checked += 1
                    same = partition.same_block(m, n)
                    if same:
                        if extensions is None:
                            extensions = ev.masks(formulas, e)
                        if not all(ext >> i & 1 == ext >> j & 1 for ext in extensions):
                            report.fail(
                                f"bisimilar pair {m},{n} distinguished at "
                                f"e={format_rate(e)}",
                                kernel,
                            )
                        continue
                    witness = None
                    for body, row in rows:
                        wm, wn = row[i], row[j]
                        if wm == wn:
                            continue
                        candidate = L(Fraction(max(wm, wn), kernel.scale) + e, body)
                        ext = ev.mask(candidate, e)
                        if ext >> i & 1 != ext >> j & 1:
                            witness = candidate
                            break
                    if witness is None:
                        report.fail(
                            f"non-bisimilar pair {m},{n} not distinguished at "
                            f"e={format_rate(e)}",
                            kernel,
                        )


def _transfer_suite(
    report: SuiteReport, budget: Budget, oracle, pairs_of, fragment: Fragment,
    encode: Optional[Callable[[tuple[Formula, ...], Rate], list[Formula]]], order: str,
) -> int:
    """Compare ``pairs_of(solver, e)``, the ``order`` order, with the transfer
    verdicts of ``oracle(kernel, e)`` on every pair of states. Cross-check the
    oracle: each enumerated formula f of ``fragment`` has its pair (f at 0,
    f's image in ``encode(formulas, e)`` or, when None, f at e) among the
    saturated pairs, with one encoder call per (kernel, e), so the encodings
    share the nodes the enumeration shares. Returns the count of ordered
    pairs that the transfer refutes."""
    encoded = "" if encode is None else "encoded "
    incomplete = 0
    for kernel in _suite_corpus(budget, ORACLE_STATES):
        solver = OrderSolver(kernel)
        base_grid = _family_grid(solver.quotient, solver.family)
        for e in budget.epsilons:
            at = f"at e={format_rate(e)}"
            verdicts, reachable = oracle(kernel, e)
            pairs = pairs_of(solver, e)
            for m in kernel.states:
                for n in kernel.states:
                    report.checked += 1
                    holds = solver.block_pair_of(m, n) in pairs
                    if verdicts[(m, n)] and not holds:
                        report.fail(f"transfer-true pair ({m},{n}) escapes the "
                                    f"{order} order {at}", kernel)
                    if holds and not verdicts[(m, n)]:
                        incomplete += 1
                        report.fail(f"{order}ly ordered pair ({m},{n}) fails the "
                                    f"{encoded}transfer {at}", kernel)
            formulas, _ = _formulas(budget, _shifted_grid(base_grid, e), fragment)
            ev = Evaluator(kernel)
            sides = formulas if encode is None else encode(formulas, e)
            for f, at_0, at_e in zip(formulas, ev.masks(formulas, _ZERO), ev.masks(sides, e)):
                report.checked += 1
                if pair_mask(kernel, at_0, at_e) not in reachable:
                    report.fail(f"enumerated {encoded}behavior escapes the saturation "
                                f"{at}", kernel, f)
    return incomplete


def suite_characterization(report: SuiteReport, budget: Budget) -> None:
    """The plain order matches the positive-fragment transfer test pairwise.

    The transfer side is decided exactly by extension-pair saturation; a
    bounded formula enumeration cross-checks the oracle (every enumerated
    positive formula's behavior pair must be reachable by the saturation).
    """
    _transfer_suite(
        report, budget, transfer_plain, OrderSolver.plain_pairs,
        Fragment.POSITIVE, None, "plain",
    )


def suite_generalization(report: SuiteReport, budget: Budget) -> None:
    """Both directions of the essential-order characterization.

    The sound direction (transfer implies order membership) holds. The
    converse is a known defect of the asymmetric encoding: it fails already
    for reflexive pairs (a negated modality over a positive body whose
    extension inflates with the slack), so this suite stays red on any honest
    corpus; notes["incomplete"] counts those converse-direction failures.
    """
    report.notes["incomplete"] = _transfer_suite(
        report, budget, transfer_essential, OrderSolver.essential_pairs,
        Fragment.FULL, encode_abs, "essential",
    )


def _block_distances(solver: OrderSolver) -> dict[tuple[int, int], Fraction]:
    """Every block pair's distance, read off one descent of the kernel's own
    plain fixpoint as ``metric.distance`` reads it off a union's."""
    peaks = {p: peak for peak, deleted in PlainDescent(solver).stages() for p in deleted}
    blocks = range(solver.n_blocks)
    return {
        (i, j): Fraction(max(peaks.get((i, j), 0), peaks.get((j, i), 0)), solver.scale)
        for i in blocks for j in blocks
    }


def suite_pseudometric(report: SuiteReport, budget: Budget) -> None:
    """Pseudometric axioms, attainment, and the bisimilarity kernel."""
    for kernel in _suite_corpus(budget, ORACLE_STATES):
        states = kernel.states
        solver = OrderSolver(kernel)
        distances = _block_distances(solver)
        values: dict[tuple[str, str], Fraction] = {}
        for m in states:
            for n in states:
                report.checked += 1
                i, j = solver.block_pair_of(m, n)
                d = values[(m, n)] = distances[(i, j)]
                # both directions hold at d and, for d > 0, not one grid step lower
                both = {(i, j), (j, i)}
                if not both <= solver.plain_pairs(d) or (
                    d > 0 and both <= solver.plain_pairs(d - Fraction(1, solver.scale))
                ):
                    report.fail(f"distance not attained for ({m},{n})", kernel)
        for m in states:
            if values[(m, m)] != 0:
                report.fail(f"d({m},{m}) is not 0", kernel)
        for m in states:
            for n in states:
                report.checked += 1
                if values[(m, n)] != values[(n, m)]:
                    report.fail(f"asymmetric distance on ({m},{n})", kernel)
                for p in states:
                    if values[(m, p)] > values[(m, n)] + values[(n, p)]:
                        report.fail(
                            f"triangle inequality broken on ({m},{n},{p})", kernel
                        )
    # kernel characterization on the larger corpus
    for kernel in _suite_corpus(budget):
        partition = equivalence_mod.bisimulation(kernel)
        solver = OrderSolver(kernel)
        zero_pairs = solver.plain_pairs(_ZERO)
        for i, m in enumerate(kernel.states):
            for n in kernel.states[i + 1 :]:
                report.checked += 1
                both = (
                    solver.block_pair_of(m, n) in zero_pairs
                    and solver.block_pair_of(n, m) in zero_pairs
                )
                if both != partition.same_block(m, n):
                    report.fail(
                        f"zero-distance/bisimilarity mismatch on ({m},{n})", kernel
                    )


def _example_proofs(e: Rate) -> list[Proof]:
    e = ensure_rate(e)
    t = Top()
    proofs = [
        Proof(e, (), (ProofLine(L(e, t), Axiom("A1", t)),), L(e, t)),
        Proof(
            e,
            (),
            (
                ProofLine(
                    Implies(L(Fraction(3), t), L(Fraction(1), t)),
                    Axiom("A2", t, None, Fraction(1), Fraction(2)),
                ),
            ),
            Implies(L(Fraction(3), t), L(Fraction(1), t)),
        ),
        Proof(
            e,
            (),
            (
                ProofLine(Implies(And(t, t), t), Tautology()),
                ProofLine(
                    Implies(L(Fraction(2), And(t, t)), L(Fraction(2), t)),
                    RuleR1(1, Fraction(2)),
                ),
            ),
            Implies(L(Fraction(2), And(t, t)), L(Fraction(2), t)),
        ),
    ]
    body = And(t, Not(Top()))
    proofs.append(
        Proof(
            e,
            (),
            (
                ProofLine(
                    axiom_instance("A3", e, t, body, e, e),
                    Axiom("A3", t, body, e, e),
                ),
            ),
            axiom_instance("A3", e, t, body, e, e),
        )
    )
    return proofs


def suite_soundness(report: SuiteReport, budget: Budget) -> None:
    """Schema validity on every corpus kernel, and accepted proofs stay valid.

    Each instance and conclusion is evaluated once, on the corpus's disjoint
    union (see ``disjoint_union``): valid there is valid on every kernel. Only
    a formula the union finds invalid is evaluated kernel by kernel, so a
    failure names the kernel a loop over the corpus names: the first one for
    an instance, each one for a conclusion.
    """
    kernels = _suite_corpus(budget)
    union = reduce(disjoint_union, kernels)
    every = union.full
    pool_grid = (_ZERO, Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    formulas, _ = _formulas(budget, pool_grid[:3], Fragment.FULL, depth=1)
    substitutions = formulas[: min(len(formulas), 8)]
    instantiations = 0
    for e in budget.epsilons:
        # one evaluator per slack: its table dies with the slack's instances
        ev = Evaluator(union)
        for phi in substitutions:
            for psi in substitutions[:4]:
                for r in pool_grid:
                    for s in pool_grid[:3]:
                        for name in ("A1", "A2", "A3", "A4"):
                            if name in ("A3", "A4") and r + s - e < 0:
                                continue
                            instance = axiom_instance(
                                name, e, phi,
                                psi if name in ("A3", "A4") else None,
                                r, s,
                            )
                            instantiations += 1
                            report.checked += 1
                            if ev.mask(instance, e) != every:
                                kernel = next(k for k in kernels
                                              if not valid_on(k, instance, e))
                                report.fail(
                                    f"{name} instance invalid at "
                                    f"e={format_rate(e)}",
                                    kernel,
                                    instance,
                                )
    report.notes["instantiations"] = instantiations
    for e in budget.epsilons:
        ev = Evaluator(union)
        for proof in _example_proofs(e):
            report.checked += 1
            try:
                check(proof)
            except Exception as exc:
                report.fail(f"example proof rejected: {exc}")
                continue
            if proof.hypotheses:
                continue
            if ev.mask(proof.conclusion, proof.epsilon) != every:
                for kernel in kernels:
                    if not valid_on(kernel, proof.conclusion, proof.epsilon):
                        report.fail(
                            "accepted conclusion not valid at its slack",
                            kernel,
                            proof.conclusion,
                        )


def suite_deduction(report: SuiteReport, budget: Budget) -> None:
    """Detachment across slack levels, pointwise and corpus-wide.

    The corpus-wide reading asks whether a formula is valid on every corpus
    kernel, which it answers with one evaluation on the corpus's disjoint
    union (see ``disjoint_union``).
    """
    kernels = _suite_corpus(budget)
    positive_pairs = [
        (e2, e) for (e2, e) in budget.epsilon_pairs if e2 > 0 and e > 0
    ] or [(Fraction(1, 10), Fraction(1, 3))]
    # each premise slack e2 with its conclusion's level e2 + e, added once
    levels = [(e2, e2 + e) for e2, e in positive_pairs]
    for kernel in kernels:
        ev = Evaluator(kernel)
        grid = _family_grid(kernel, generators(kernel))
        pos, _ = _formulas(budget, grid, Fragment.POSITIVE, depth=1)
        full, _ = _formulas(budget, grid, Fragment.FULL, depth=1)
        phis, psis = pos[: min(len(pos), 12)], full[: min(len(full), 12)]
        pairs = list(itertools.product(phis, psis))
        n, m = len(psis), len(pairs)
        # per level, one walk for the premises at e2 and one for the
        # conclusions, implications and contrapositives at the level
        walks = [
            (ev.masks(phis, e2),
             ev.masks(itertools.chain(
                 psis, itertools.starmap(Implies, pairs),
                 (Implies(Not(psi), Not(phi)) for phi, psi in pairs)), level))
            for e2, level in levels
        ]
        for i, (phi, psi) in enumerate(pairs):
            for premises, at_level in walks:
                report.checked += 1
                premise = premises[i // n]
                conclusion = at_level[i % n]
                if at_level[n + i] & premise & ~conclusion:
                    report.fail(
                        "pointwise detachment broken", kernel, Implies(phi, psi)
                    )
                if at_level[n + m + i] & premise & ~conclusion:
                    report.fail(
                        "pointwise contrapositive detachment broken",
                        kernel,
                        phi,
                    )
    # corpus-level reading: premises valid on every kernel force the conclusion
    union = Evaluator(reduce(disjoint_union, kernels))
    every = union.kernel.full
    shared_grid = (_ZERO, Fraction(1), Fraction(2))
    pos, _ = _formulas(budget, shared_grid, Fragment.POSITIVE, depth=1)
    full, _ = _formulas(budget, shared_grid, Fragment.FULL, depth=1)
    nonvacuous = 0
    for phi in pos[: min(len(pos), 10)]:
        for psi in full[: min(len(full), 10)]:
            for e2, level in levels[:2]:
                report.checked += 1
                premises = (union.mask(Implies(phi, psi), level) == every
                            and union.mask(phi, e2) == every)
                if not premises:
                    continue
                nonvacuous += 1
                if union.mask(psi, level) != every:
                    report.fail("corpus-level detachment broken", formula=phi)
    report.notes["nonvacuous"] = nonvacuous


def suite_l4(report: SuiteReport, budget: Budget) -> None:
    """Proof translation up and down re-checks and round-trips."""
    shifts = (Fraction(1, 2), Fraction(1), Fraction(1, 10))
    for e in budget.epsilons:
        for proof in _example_proofs(e):
            for shift_by in shifts:
                report.checked += 1
                try:
                    up = translate_proof(proof, shift_by, "up")
                    back = translate_proof(up, shift_by, "down")
                except Exception as exc:
                    report.fail(f"translation failed: {exc}")
                    continue
                if back != proof:
                    report.fail("down(up(proof)) differs from the original")


SUITES: dict[str, Callable[[SuiteReport, Budget], None]] = {
    "t2": suite_t2,
    "c2": suite_c2,
    "l1-positive-monotonicity": suite_l1,
    "l2-limit": suite_l2,
    "t1-generators": suite_t1,
    "c1-extensions": suite_c1,
    "l5-orders": suite_l5,
    "paramcharact": suite_paramcharact,
    "characterization": suite_characterization,
    "generalization": suite_generalization,
    "pseudometric": suite_pseudometric,
    "soundness": suite_soundness,
    "deduction": suite_deduction,
    "l4-translation": suite_l4,
}


def run_suite(name: str, budget: Optional[Budget] = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    budget = budget or default_budget()
    report = SuiteReport(name, seed=budget.seed)
    start = time.monotonic()
    SUITES[name](report, budget)
    report.elapsed_s = time.monotonic() - start
    return report
