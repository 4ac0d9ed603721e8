"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
the last line of each run is the result object ``BENCHMARK.json``
promises, with exactly its metrics, all checks passed. It also checks
that a process exiting non-zero (an invalid config, exit 2) is counted
as failed, that a traced name the package lacks is reported as absent,
and that the benchmark refuses to run where there are no flic sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import tracing

SEED = 1


def check_result(label: str, stdout: str, expected: dict) -> tuple[list[str], dict]:
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"{label}: no output"], {}
    doc = json.loads(lines[-1])
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0 or doc.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={doc.get('correct')} failed={doc.get('failed')}")
    metrics = doc.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{label}: {name} unit {m.get('unit')!r}, expected {expected[name]!r}")
    return problems, {k: m.get("value") for k, m in metrics.items()}


def run_tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if set(per_layer.items()) != set(run.per_layer_names()):
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_names()")

    # Every workload run.py knows, local_lm too, which BENCHMARK.json leaves out.
    for workload in list(run.WORKLOADS):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            proc = run_tiny(workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            found, values = check_result(label, proc.stdout, expected)
            problems += found
            if trace and workload == "flic_lm" and values.get("gaussian.eigh_per_class_step") != 5.0:
                problems.append(f"{label}: eigh per class step {values.get('gaussian.eigh_per_class_step')}")
            if trace and workload == "local_lm" and values.get("nets.alignment_loss_grad.calls") != 0:
                problems.append(f"{label}: alignment ran in local mode")
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)

    # A process that exits non-zero counts as failed and does not stop the run.
    run.WORKLOADS["invalid"] = {"mode": "no-such-mode"}
    record = run.measure("invalid", SEED, 0.0, trace=False)
    codes = {r["code"] for r in record["runs"]}
    if record["correct"] or record["failed"] != record["attempted"] or codes != {2}:
        problems.append(f"invalid config: attempted={record['attempted']} failed={record['failed']} codes={codes}")

    # A traced name the package lacks is reported as absent, not raised.
    sys.path.insert(0, str(run.SRC))
    import flic  # noqa: F401

    tracing.WRAPPED = (*tracing.WRAPPED, "nets.no_such_function", "no_such_module.f")
    tracer = tracing.Tracer()
    tracer.install()
    summary = tracer.summary()
    if summary["absent"] != ["nets.no_such_function", "no_such_module.f"]:
        problems.append(f"absent names reported as {summary['absent']}")

    # With only BENCHMARK.json and the benchmark present, the run fails without a result.
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "flic_lm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
