"""Record the reference answer of every item any workload can run.

    python3 perfbench/record.py

Run it on the commit whose answers are the reference. It runs every probe
and every workload's pool, writes a fresh ``reference.json`` (answer
fingerprints keyed by item) and refuses to write
when a documented ``cml`` example does not print its docs/examples.md golden
byte for byte.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench

bench._import_library()

import ops  # noqa: E402  (needs the library on sys.path)


def main() -> int:
    goldens = {command: golden for command, golden in ops.documented_examples()}
    items = ops.probe_items()
    for workload in bench.workloads().values():
        items += workload.build()
    answers: dict = {}
    for item in items:
        start = time.perf_counter()
        answer = ops.run(item)
        if item.op == "cli" and item.args[0] in goldens:
            stdout = answer[0]
            if stdout != goldens[item.args[0]]:
                print(f"{item.args[0]!r} printed {stdout!r}, docs say "
                      f"{goldens[item.args[0]]!r}", file=sys.stderr)
                return 1
        answers[item.key] = ops.fingerprint(answer)
        print(f"{item.kind:9} {item.cls:8} {time.perf_counter() - start:8.3f}s "
              f"{answers[item.key][:60]}", flush=True)
    with open(bench.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"answers": dict(sorted(answers.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"{len(answers)} reference answers written to {bench.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
