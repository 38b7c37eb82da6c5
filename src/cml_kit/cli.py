"""Command-line interface.

Exit codes: 0 success; 1 a domain answer is negative (unsatisfied, invalid,
not found, order fails, proof rejected, suite failures); 2 usage or input
errors; 3 internal self-check failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import __version__
from .errors import CMLError, InternalCheckError
from .formula import encode_abs, encode_down, encode_up, parse, print_formula
from .kernel import Kernel, kernel_to_doc, left_tag, load_kernel
from .rational import ASCII_WHITESPACE, format_rate, parse_rate
from .semantics import eval_formula, sat, search_model, valid_on

SCHEMA = "cml-kit/1"


def _emit(args, payload: dict, command: str) -> None:
    if getattr(args, "json", False):
        doc = {"schema": SCHEMA, "command": command}
        doc.update(payload)
        print(json.dumps(doc))
    else:
        print(json.dumps(payload))


def _ordered_states(kernel: Kernel, members) -> list[str]:
    order = {s: i for i, s in enumerate(kernel.states)}
    return sorted(members, key=order.__getitem__)


def cmd_eval(args) -> int:
    kernel = load_kernel(args.model)
    f = parse(args.formula)
    e = parse_rate(args.epsilon)
    states = eval_formula(kernel, f, e)
    payload = {"states": _ordered_states(kernel, states)}
    if args.json:
        payload = {
            "formula": print_formula(f),
            "epsilon": format_rate(e),
            "states": payload["states"],
        }
    _emit(args, payload, "eval")
    return 0


def cmd_sat(args) -> int:
    kernel = load_kernel(args.model)
    answer = sat(kernel, args.state, parse(args.formula), parse_rate(args.epsilon))
    _emit(args, {"sat": answer}, "sat")
    return 0 if answer else 1


def cmd_valid(args) -> int:
    kernel = load_kernel(args.model)
    answer = valid_on(kernel, parse(args.formula), parse_rate(args.epsilon))
    _emit(args, {"valid": answer}, "valid")
    return 0 if answer else 1


def cmd_search(args) -> int:
    grid = None
    if args.grid is not None:
        tokens = args.grid.split(",")
        grid = [parse_rate(tok) for tok in tokens if tok.strip(ASCII_WHITESPACE)]
    found = search_model(
        parse(args.formula),
        parse_rate(args.epsilon),
        args.max_states,
        grid,
        max_candidates=args.budget,
    )
    if found is None:
        _emit(args, {"found": False}, "search")
        return 1
    kernel, witness = found
    _emit(
        args,
        {"found": True, "witness": witness, "model": kernel_to_doc(kernel)},
        "search",
    )
    return 0


def _dot_id(text: str) -> str:
    # a DOT quoted string: backslash and double quote are escaped
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot(kernel: Kernel, partition) -> str:
    lines = ["digraph kernel {"]
    block_of = {s: i for i, b in enumerate(partition.blocks) for s in b}
    for s in kernel.states:
        q = _dot_id(s)
        lines.append(f'  "{q}" [label="{q}\\nblock {block_of[s]}"];')
    for s, t, r in kernel.rate_items():
        edge = f'"{_dot_id(s)}" -> "{_dot_id(t)}"'
        lines.append(f'  {edge} [label="{format_rate(r)}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_bisim(args) -> int:
    from .equivalence import bisimulation

    kernel = load_kernel(args.model)
    partition = bisimulation(kernel)
    if args.dot:
        print(_dot(kernel, partition))
        return 0
    # one state order for every block, so the output stays O(n log n)
    order = {s: i for i, s in enumerate(kernel.states)}
    blocks = [sorted(b, key=order.__getitem__) for b in partition.blocks]
    _emit(args, {"blocks": blocks}, "bisim")
    return 0


def cmd_order(args) -> int:
    from .orders import union_solver

    k1 = load_kernel(args.model1)
    k2 = load_kernel(args.model2)
    e = parse_rate(args.epsilon)
    solver, pair = union_solver(k1, args.state1, k2, args.state2)
    pairs = (
        solver.essential_pairs(e) if args.essential else solver.plain_pairs(e)
    )
    answer = pair in pairs
    # the L->R state pairs of the relation: L-states of block i times R-states of j
    tagged = {left_tag(s) for s in k1.states}
    lefts = [len(block & tagged) for block in solver.blocks]
    witness_size = sum(
        lefts[i] * (len(solver.blocks[j]) - lefts[j]) for (i, j) in pairs
    )
    _emit(args, {"holds": answer, "witness_size": witness_size}, "order")
    return 0 if answer else 1


def cmd_distance(args) -> int:
    from .metric import distance

    k1 = load_kernel(args.model1)
    k2 = load_kernel(args.model2)
    d = distance(k1, args.state1, k2, args.state2)
    _emit(
        args,
        {"distance": format_rate(d.value), "attained_at": format_rate(d.attained_at)},
        "distance",
    )
    return 0


def cmd_encode(args) -> int:
    f = parse(args.formula)
    e = parse_rate(args.epsilon)
    if args.down:
        encoded = encode_down(f, e)
    elif args.up:
        encoded = encode_up(f, e)
    else:
        encoded = encode_abs(f, e)
    text = print_formula(encoded)
    if args.json:
        _emit(args, {"formula": text}, "encode")
    else:
        print(text)
    return 0


def cmd_prove(args) -> int:
    from .proofcheck import check_result, load_proof

    proof = load_proof(args.proof)
    ok, error = check_result(proof)
    payload: dict = {"ok": ok}
    if error is not None:
        payload["error"] = error
    _emit(args, payload, "prove")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .harness.suites import BUDGETS, SUITES, run_suite

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    budget = BUDGETS[args.budget](args.seed)
    reports = []
    failed = False
    # the report is opened before the first suite runs, so an unwritable path
    # fails at once rather than after the whole run
    with open(args.report, "w", encoding="utf-8") if args.report else nullcontext() as fh:
        for name in names:
            report = run_suite(name, budget)
            reports.append(report.to_doc())
            status = "ok" if report.ok else f"{len(report.failures)} FAILURES"
            print(
                f"{report.suite}: {status} ({report.checked} checks, "
                f"{report.elapsed_s:.1f}s)"
            )
            for failure in report.failures[:5]:
                print(f"  - {failure.description}")
            failed = failed or not report.ok
        if fh is not None:
            json.dump({"schema": SCHEMA, "reports": reports}, fh, indent=2)
    if args.report:
        print(f"report written to {args.report}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cml",
        description="Slack-parameterized Markovian logic toolkit "
        "(exact rational arithmetic throughout; no floats accepted).",
    )
    parser.add_argument("--version", action="version", version=f"cml {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, formula=True, epsilon=True):
        if model:
            p.add_argument("-m", "--model", required=True, help="kernel JSON file")
        if formula:
            p.add_argument("-f", "--formula", required=True, help="formula text")
        if epsilon:
            p.add_argument(
                "-e", "--epsilon", required=True, help="slack, e.g. 0, 1/10, 0.25"
            )
        p.add_argument("--json", action="store_true", help="schema-tagged output")

    p = sub.add_parser("eval", help="states satisfying a formula at a slack")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sat", help="does one state satisfy the formula")
    common(p)
    p.add_argument("-s", "--state", required=True)
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("valid", help="does every state satisfy the formula")
    common(p)
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("search", help="bounded witness-model search")
    common(p, model=False)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--grid", help="comma-separated rate grid, e.g. 0,1,3/2")
    p.add_argument("--budget", type=int, default=500_000)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("bisim", help="bisimulation blocks of a kernel")
    common(p, formula=False, epsilon=False)
    p.add_argument("--dot", action="store_true", help="DOT rendering instead")
    p.set_defaults(fn=cmd_bisim)

    def two_models(p):
        p.add_argument("-m1", "--model1", required=True)
        p.add_argument("-m2", "--model2", required=True)
        p.add_argument("-s1", "--state1", required=True)
        p.add_argument("-s2", "--state2", required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("order", help="behavioral slack order between two states")
    two_models(p)
    p.add_argument("-e", "--epsilon", required=True)
    p.add_argument("--essential", action="store_true")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("distance", help="behavioral pseudometric between states")
    two_models(p)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("encode", help="index-shift encodings of a formula")
    common(p, model=False)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--down", action="store_true")
    direction.add_argument("--up", action="store_true")
    direction.add_argument("--abs", action="store_true")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("prove", help="check a proof file")
    p.add_argument("-p", "--proof", required=True, help="proof JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--budget", default="default")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--report", help="write a JSON report to this file")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        from .harness.suites import BUDGETS, SUITES

        for flag, known in ("suite", ["all", *SUITES]), ("budget", BUDGETS):
            value = getattr(args, flag)
            if value not in known:
                choices = ", ".join(map(repr, sorted(known)))
                parser.error(
                    f"argument --{flag}: invalid choice: {value!r} (choose from {choices})"
                )
    if args.command == "search":
        if args.max_states < 1:
            parser.error(
                f"argument --max-states: must be at least 1, got {args.max_states}"
            )
        if args.budget < 1:
            parser.error(f"argument --budget: must be at least 1, got {args.budget}")
        if args.grid is not None and not any(
            tok.strip(ASCII_WHITESPACE) for tok in args.grid.split(",")
        ):
            parser.error(f"argument --grid: holds no rate, got {args.grid!r}")
    try:
        return args.fn(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (CMLError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
