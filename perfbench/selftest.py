"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

It runs each workload once at its smallest size, untraced and traced, and
checks that the printed metric names and units are the ones BENCHMARK.json
declares. It checks that a deliberately corrupted reference answer is counted
as a failed operation, that the benchmark's kernel generator builds the
library generator's kernels, that the recorded ``cml`` answers are the
docs/examples.md goldens byte for byte, and that a directory holding only the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run as bench

bench._import_library()

import ops  # noqa: E402  (needs the library on sys.path)
import pools  # noqa: E402

SPEC = os.path.join(bench.ROOT, "BENCHMARK.json")
FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def invoke(workload: str, trace: int, *extra: str, cwd: str = bench.ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    argv = [sys.executable, script, "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--max-ops", "2", *extra]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = invoke(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = result_of(proc)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{label}: metric names and units match BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: {result['attempted']} attempted, {result['failed']} failed")

    # a corrupted reference answer must count as a failed operation
    with open(bench.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    bisim_probe = next(i for i in ops.probe_items() if i.kind == "bisim")
    tally = bench.Tally()
    bench.execute(bisim_probe, {bisim_probe.key: "corrupted"}, tally)
    check(tally.failed == 1 and len(tally.errors) == 1 and bisim_probe.key in tally.errors[0],
          f"corrupted reference counted as failed: {tally.errors}")

    from cml_kit import loads_kernel
    from cml_kit.harness.generate import KernelGenConfig, gen_kernel

    for n, density, seed in ((16, Fraction(1, 4), 3), (128, Fraction(1, 4), 9), (4, Fraction(1, 2), 5)):
        built = loads_kernel(pools.dumps(pools.gen_kernel_doc(n, density, seed)))
        check(built == gen_kernel(KernelGenConfig(max_states=n, density=density, seed=seed)),
              f"generator matches gen_kernel(n={n}, density={density}, seed={seed})")

    items = {item.args[0]: item for item in ops.cli_items()}
    for command, golden in ops.documented_examples():
        # exit 1 is the documented negative answer (for example `holds: false`)
        answers = {ops.fingerprint([golden, code]) for code in (0, 1)}
        check(refs["answers"].get(items[command].key) in answers,
              f"reference equals the docs golden: {command}")

    # only BENCHMARK.json and the benchmark's own directory: must refuse
    bare = os.path.join(bench.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(SPEC, bare)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke("queries", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory exits {proc.returncode} without a result")
    shutil.rmtree(bare)

    print(f"{len(FAILURES)} failed checks" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
