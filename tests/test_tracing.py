"""The benchmark's per-layer tracer wraps library names by hand.

``perfbench/tracing.py`` patches functions and methods it looks up by name, so
renaming or deleting one of them breaks ``perfbench/run.py --trace 1``. These
tests install the tracer around one evaluation, one transfer oracle, one
`cml distance` run and one plain `cml order` run, so such a change fails here.
The CLI imports `metric` and `orders` inside its commands, so the wrappers
apply there too.
"""

import importlib.util
import os
from fractions import Fraction

from cml_kit import cli, eval_formula, parse, semantics
from cml_kit.harness import oracles
from cml_kit.models import model_path

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores(fig1):
    tracer = _tracing_module().Tracer()
    compute = semantics.Evaluator._compute
    saturate_pairs = oracles.saturate_pairs
    try:
        tracer.install()
        out = semantics.eval_formula(fig1, parse("L{5} L{4} T"), 0)
        _, pairs = oracles.transfer_plain(fig1, Fraction(1, 10))
    finally:
        tracer.restore()
    assert out == frozenset({"m"})
    assert semantics.eval_formula is eval_formula
    assert semantics.Evaluator._compute is compute
    assert oracles.saturate_pairs is saturate_pairs
    metrics = tracer.metrics([])
    assert metrics["semantics.eval_formula.calls"][0] == 1
    assert metrics["semantics.extension.calls"][0] == 1
    assert tracer.computes == 1
    assert metrics["harness.transfer.calls"][0] == 1
    assert metrics["harness.saturate_pairs.calls"][0] == 1
    assert metrics["harness.saturate_pairs.pairs"][0] == len(pairs)


def _traced_cli(capsys, argv):
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        code = cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    return capsys.readouterr().out, tracer.metrics([])


def test_benchmark_tracer_sees_the_cli_commands(capsys):
    argv = ["distance", "-m1", model_path("fig4m"), "-m2", model_path("fig4o"),
            "-s1", "m", "-s2", "o"]
    out, metrics = _traced_cli(capsys, argv)
    assert '"distance": "3/10"' in out
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["metric.distance.calls"][0] == 1
    assert metrics["orders.OrderSolver.calls"][0] == 1
    assert metrics["orders.family_blocks.calls"][0] >= 1
    assert metrics["equivalence.generators.calls"][0] >= 1
    assert metrics["equivalence.generators.family_size"][0] > 0


def test_benchmark_tracer_sees_the_family_of_cml_order(capsys):
    # the tracer patches generators in both equivalence and orders
    argv = ["order", "-m1", model_path("fig3m"), "-m2", model_path("fig3n"),
            "-s1", "m", "-s2", "n", "-e", "1/5"]
    out, metrics = _traced_cli(capsys, argv)
    assert '"holds": true' in out
    assert metrics["equivalence.generators.calls"][0] >= 1
    assert metrics["equivalence.generators.family_size"][0] > 0
