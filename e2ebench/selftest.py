#!/usr/bin/env python3
"""Tests of the benchmark itself, at test sizes (--small, fixed op counts).

Run from the repository root:

    python3 e2ebench/selftest.py

It builds the benchmark like run.py does, then checks that:
  * every workload prints each metric BENCHMARK.json names, with its unit,
    and nothing else;
  * two runs with one seed give identical counts (listed workloads);
  * a crashing op counts as attempted and failed, and the run goes on.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

# The workloads BENCHMARK.json lists, and the ones it does not.
LISTED = ["stream", "relay", "fleet"]
UNLISTED = ["figures"]
FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL:", message)


def bench(binary, workload, *extra, seed=5):
    args = [binary, "--workload", workload, "--seed", str(seed), "--small",
            "--out", os.path.join(run.build_root(), "e2ebench-selftest")]
    out = subprocess.run(args + list(extra), capture_output=True, text=True,
                         timeout=300)
    check(out.returncode == 0, f"{workload} {extra}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: result keys {sorted(result)}")
    return result, out.stdout


def check_metrics(workload, result, declared):
    metrics = result["metrics"]
    for name, unit in declared.items():
        check(name in metrics, f"{workload}: metric {name} missing")
        if name in metrics:
            check(metrics[name]["unit"] == unit,
                  f"{workload}: {name} unit {metrics[name]['unit']} != {unit}")
            check(isinstance(metrics[name]["value"], (int, float)),
                  f"{workload}: {name} value is not a number")
    extra = sorted(set(metrics) - set(declared))
    check(not extra, f"{workload}: undeclared metrics {extra}")


def counts(result):
    return (result["attempted"], result["failed"],
            {k: v["value"] for k, v in result["metrics"].items()
             if v["unit"] in ("count", "share") and not k.endswith("self_share")
             and k != "bench.unattributed_share"})


def main():
    binary = run.build()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in LISTED + UNLISTED:
        result, text = bench(binary, workload, "--ops", "60", "--trace", "0")
        check_metrics(workload, result, end_to_end)
        check("op_tail_ms" in text and "beyond" in text,
              f"{workload}: the tail percentile and op count are not printed")
        check("engine_pool=" in text and "gf256=" in text,
              f"{workload}: host cores, pool size or backend not printed")
        result, text = bench(binary, workload, "--ops", "12", "--trace", "1")
        check_metrics(workload, result, per_layer)
        check("chrome trace:" in text, f"{workload}: no Chrome trace written")

    for workload in LISTED:
        def both_modes():
            return [counts(bench(binary, workload, "--ops", "40", "--trace",
                                 trace)[0]) for trace in ("0", "1")]
        first, second = both_modes(), both_modes()
        check(first == second, f"{workload}: counts differ between runs "
                               f"with one seed: {first} vs {second}")
        modeled = [bench(binary, workload, "--ops", "40", "--trace", "0")[0]
                   ["metrics"]["modeled_session_p99_ms"]["value"]
                   for _ in range(2)]
        check(modeled[0] == modeled[1],
              f"{workload}: modeled_session_p99_ms does not repeat: {modeled}")

        for crash_op in ("0", "5"):
            result, text = bench(binary, workload, "--ops", "12", "--trace",
                                 "0", "--crash-op", crash_op)
            check(result["attempted"] == 12 and result["failed"] == 1,
                  f"{workload}: crash at op {crash_op} gave attempted "
                  f"{result['attempted']} failed {result['failed']}")
            check(result["correct"], f"{workload}: a crash is not a wrong "
                                     "output, yet correct is false")
            share = result["metrics"]["completed_share"]["value"]
            check(abs(share - 11 / 12) < 1e-12,
                  f"{workload}: completed_share {share} after one crash")
            check(f"failed op {crash_op}: child killed by signal" in text,
                  f"{workload}: the crashed op is not reported")

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
