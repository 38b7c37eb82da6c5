"""Operations: each item is run the way `cml` runs it, and its answer is
reduced to a canonical JSON value whose fingerprint is compared with the
reference recorded for the item.

Calls go through module attributes (``semantics.eval_formula``, not a bound
name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

from cml_kit import cli, equivalence, formula, kernel, metric, orders, rational, semantics
from cml_kit.harness import suites

from pools import Item

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = os.path.join(ROOT, "src", "cml_kit", "models")
DOCS = os.path.join(ROOT, "docs", "examples.md")
PROOF = os.path.join(ROOT, "perfbench", "proof.json")

# Commands beyond docs/examples.md; $MODELS and $PROOF expand at run time.
# Every kind gets at least three commands, so its median is not one command's.
EXTRA_COMMANDS = (
    'cml sat -m $MODELS/fig1.json -s m1 -f "L{1} T" -e 0',
    'cml valid -m $MODELS/fig1.json -f "L{0} T" -e 0',
    'cml valid -m $MODELS/fig1.json -f "L{5} T" -e 1',
    "cml bisim -m $MODELS/fig3m.json",
    "cml bisim -m $MODELS/fig4n.json --json",
    'cml search -f "L{3} T & !L{1} T" -e 0 --max-states 2 --grid 0,1,2',
    'cml search -f "L{2} T" -e 0 --max-states 2 --grid 0,1 --json',
    "cml order -m1 $MODELS/fig4m.json -m2 $MODELS/fig4n.json -s1 m -s2 n -e 1/10",
    "cml order -m1 $MODELS/fig3m.json -m2 $MODELS/fig3o.json -s1 m -s2 o -e 1/5 --json",
    "cml distance -m1 $MODELS/fig3m.json -m2 $MODELS/fig3n.json -s1 m -s2 n",
    "cml prove -p $PROOF",
    "cml verify --suite l5-orders --budget small",
)
CLI_KINDS = {
    "eval": "eval", "sat": "eval", "valid": "eval", "bisim": "bisim",
    "search": "search", "order": "order", "distance": "distance",
}
_ELAPSED = re.compile(r"(\d+ checks), \d+\.\ds\)")


def fingerprint(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    if len(text) <= 64:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _load(text: str):
    return kernel.load_kernel(io.StringIO(text))


def _ordered(k, members) -> list:
    order = {s: i for i, s in enumerate(k.states)}
    return sorted(members, key=order.__getitem__)


def _pair(args):
    text1, m, text2, n = args[:4]
    return _load(text1), m, _load(text2), n


def _eval(item: Item):
    text, f, eps, state = item.args
    k = _load(text)
    phi = formula.parse(f)
    e = rational.parse_rate(eps)
    if item.op == "sat":
        return semantics.sat(k, state, phi, e)
    if item.op == "valid":
        return semantics.valid_on(k, phi, e)
    return _ordered(k, semantics.eval_formula(k, phi, e))


def _bisim(item: Item):
    k = _load(item.args[0])
    return [_ordered(k, b) for b in equivalence.bisimulation(k).blocks]


def _search(item: Item):
    f, eps, max_states, grid = item.args
    found = semantics.search_model(
        formula.parse(f),
        rational.parse_rate(eps),
        max_states,
        [rational.parse_rate(tok) for tok in grid.split(",")],
    )
    if found is None:
        return None
    k, witness = found
    return [witness, kernel.kernel_to_doc(k)]


def _order(item: Item):
    k1, m, k2, n = _pair(item.args)
    e = rational.parse_rate(item.args[4])
    return orders.holds(k1, m, k2, n, e, essential=item.op == "essential")


def _distance(item: Item):
    d = metric.distance(*_pair(item.args))
    return [rational.format_rate(d.value), rational.format_rate(d.attained_at)]


def _suite(item: Item):
    name, seed = item.args
    report = suites.run_suite(name, suites.default_budget(seed))
    return [report.checked, len(report.failures), report.notes]


def expand(command: str) -> list:
    text = command.replace("$MODELS", MODELS).replace("$PROOF", PROOF)
    return shlex.split(text)[1:]


# The console script's entry point, calibrating as the parent does around an
# in-process execution: before the import, every 0.05 s and after the command.
# The calibrations go to a last stderr line so the parent can use them.
CHILD = (
    "import signal, sys, calibration\n"
    "speeds = [calibration.seconds()]\n"
    "signal.signal(signal.SIGALRM, lambda s, f: speeds.append(calibration.seconds()))\n"
    "signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)\n"
    "from cml_kit.cli import main\n"
    "code = main()\n"
    "signal.setitimer(signal.ITIMER_REAL, 0)\n"
    "speeds.append(calibration.seconds())\n"
    "print('calibration', *(x for pair in speeds for x in pair), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_process(item: Item):
    """Run a ``cml`` command as its own process.

    Returns the answer and the child's calibrations, each a pair of
    fastest-run and spent seconds.
    """
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *expand(item.args[0])],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120,
    )
    last = proc.stderr.rstrip("\n").rpartition("\n")[2].split()
    values = [float(x) for x in last[1:]] if last[:1] == ["calibration"] else []
    speeds = list(zip(values[::2], values[1::2]))
    return [_ELAPSED.sub(r"\1, Xs)", proc.stdout), proc.returncode], speeds


def cli_in_process(item: Item):
    """The same command replayed through ``cli.main`` in this process."""
    out = io.StringIO()
    sys_stdout, sys.stdout = sys.stdout, out
    try:
        code = cli.main(expand(item.args[0]))
    finally:
        sys.stdout = sys_stdout
    return [_ELAPSED.sub(r"\1, Xs)", out.getvalue()), code]


RUNNERS = {
    "eval": _eval, "sat": _eval, "valid": _eval, "bisim": _bisim,
    "search": _search, "order": _order, "essential": _order,
    "distance": _distance, "suite": _suite, "cli": lambda item: run_process(item)[0],
}


def run(item: Item):
    return RUNNERS[item.op](item)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def documented_examples() -> list[tuple[str, str]]:
    """(command, golden stdout) for every fenced example in docs/examples.md."""
    with open(DOCS, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"```console\n\$ (.+?)\n(.*?)```", text, re.DOTALL)


def cli_items() -> list[Item]:
    commands = [c for c, _ in documented_examples()] + list(EXTRA_COMMANDS)
    items = []
    for command in commands:
        argv = shlex.split(command)
        kind = "essential" if "--essential" in argv else CLI_KINDS.get(argv[1], "other")
        items.append(Item(kind, "cli", argv[1], (command,)))
    return items


def _flags(argv: list) -> dict:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("-")}


def probe_items() -> list[Item]:
    """The documented examples as in-process API calls, one item each.

    Workloads that do not load a kind run these so that every workload
    reports every per-kind median.
    """
    items = []
    for command, _ in documented_examples():
        argv = expand(command)
        flags = _flags(argv)

        def model(flag):
            with open(flags[flag], encoding="utf-8") as fh:
                return fh.read()

        sub = argv[0]
        if sub in ("eval", "sat", "valid"):
            args = (model("-m"), flags["-f"], flags["-e"], flags.get("-s", ""))
            items.append(Item("eval", sub, "probe", args))
        elif sub == "bisim":
            items.append(Item("bisim", "bisim", "probe", (model("-m"),)))
        elif sub == "search":
            args = (flags["-f"], flags["-e"], int(flags["--max-states"]), flags["--grid"])
            items.append(Item("search", "search", "probe", args))
        elif sub in ("order", "distance"):
            args = (model("-m1"), flags["-s1"], model("-m2"), flags["-s2"])
            if sub == "distance":
                items.append(Item("distance", "distance", "probe", args))
            else:
                op = "essential" if "--essential" in argv else "order"
                items.append(Item(op, op, "probe", args + (flags["-e"],)))
    return items
