"""The flic benchmark: one workload, measured in fresh program processes.

Run from the repository root:

    python3 perfbench/run.py --workload flic_lm --seed 0 --seconds 40 --trace 0

Every timed process (``child.py``) takes the path of ``flic run``: a flat
JSON config file written here from the workload and the seed,
``config.parse_config``, then ``experiment.run_command``. The program
gets only that config file and, for ``flic_cov_nf``, a dataset directory
that ``flic datagen`` writes before timing starts. BLAS is pinned to one
thread in every process.

With ``--trace 0`` the run reports the end-to-end metrics: the mean
``run_s`` over the processes, the medians of ``setup_s`` and
``peak_rss_mb``, and the run's ``final_score``. With ``--trace 1`` it
alternates untraced and traced processes and reports calls and self time
per wrapped function (see ``tracing.py``), two ratios, the communicated
volume, the theory rounds to tolerance and the tracing overhead.

Every process's outputs are checked (see ``check_outputs``); a failed
check fails that process, counts in ``failed``, and does not stop the
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with the environment, is written to ``perfbench/_out/<label>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ALIGNMENT_CLASSES, WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# One BLAS thread: on a 2-core machine a second OpenBLAS thread made flic
# runs slower, and its spinning competes with the process running this file.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Every process of a run is stopped by this many seconds after the run
# starts, so a run that hangs still ends, with failures, well within 180 s.
RUN_LIMIT_S = 150
THEORY_TOL = 1e-8

# Keys the output checks read are set explicitly, not left to defaults.
WORKLOADS = {
    # W2 alignment is most of client time here: the alignment-kernel target.
    "flic_lm": {
        "mode": "flic", "variant": "lm", "clients": 40, "participation": 0.25,
        "n_classes": 20, "latent_dim": 64, "cov_learnable": False, "rounds": 2,
    },
    # Learnable anchor covariances, data read from a dataset directory, and
    # evaluation over 100 clients each round.
    "flic_cov_nf": {
        "mode": "flic", "variant": "nf", "clients": 100, "participation": 0.1,
        "n_classes": 20, "latent_dim": 64, "cov_learnable": True, "rounds": 2,
    },
    # No alignment and no anchors: MLP forward, backward and Adam only.
    "local_lm": {
        "mode": "local", "variant": "lm", "clients": 100,
        "n_classes": 20, "latent_dim": 64, "rounds": 2,
    },
    # The separate linear-regression pipeline.
    "theory": {
        "mode": "theory", "theory_clients": 100, "theory_samples": 2000,
        "theory_participation": 0.5, "theory_rounds": 250,
    },
}
# Workloads whose data is read from a ``flic datagen`` directory.
FROM_DATASET = {"flic_cov_nf"}
# Overrides for ``--tiny``, the self-test size.
TINY = {
    "flic_lm": {"clients": 20, "samples_per_class": 100, "latent_dim": 8, "rounds": 2},
    "flic_cov_nf": {"clients": 20, "samples_per_class": 100, "latent_dim": 8, "rounds": 2},
    "local_lm": {"clients": 20, "samples_per_class": 100, "latent_dim": 8, "rounds": 2},
    "theory": {
        "theory_clients": 20, "theory_samples": 300, "theory_participation": 1.0,
        "theory_rounds": 300,
    },
}


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    cfg = dict(WORKLOADS[name], seed=seed, workers=1)
    if tiny:
        cfg.update(TINY.get(name, {}))
    return cfg


def child_env() -> dict:
    """This environment without ``FLIC_*`` overrides, BLAS pinned, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLIC_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(args, limit: float) -> tuple[int | None, str, str]:
    """Run a Python process in the repository root, stopping it at the
    ``time.perf_counter()`` value ``limit``; None as code on timeout."""
    timeout = max(1.0, limit - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, *map(str, args)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"stopped after {timeout:.0f} s"
    return proc.returncode, proc.stdout, proc.stderr


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def datagen(cfg: dict, work: Path, data_dir: Path, limit: float) -> list[str]:
    """Write the workload's dataset with ``flic datagen``."""
    config = work / "datagen.json"
    write_json(config, {k: v for k, v in cfg.items() if k != "dataset_path"})
    code, _, err = run_python(
        ["-m", "flic.cli", "datagen", "--config", config, "--out", data_dir], limit
    )
    return [] if code == 0 else [f"flic datagen exited {code}: {err.strip()[-300:]}"]


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def check_messages(cfg: dict, out: Path, summary: dict) -> list[str]:
    """Every payload is exactly the shared layer plus the anchor set."""
    lines = (out / "messages.log").read_text().splitlines()
    if cfg["mode"] == "local":
        if lines or summary["bytes_up"] or summary["bytes_down"]:
            return ["local run logged communication"]
        return []
    k, n_classes = cfg["latent_dim"], cfg["n_classes"]
    payload = 8 * (k * k + k) + 8 * n_classes * k
    if cfg["cov_learnable"]:
        payload += 8 * n_classes * k * k
    per_direction = cfg["rounds"] * max(1, math.floor(cfg["participation"] * cfg["clients"]))
    count = {"up": 0, "down": 0}
    total = {"up": 0, "down": 0}
    for line in lines:
        msg = json.loads(line)
        if msg["nbytes"] != payload:
            return [f"message of {msg['nbytes']} bytes, expected {payload}: {line}"]
        count[msg["direction"]] += 1
        total[msg["direction"]] += msg["nbytes"]
    failures = []
    if count != {"up": per_direction, "down": per_direction}:
        failures.append(f"message counts {count}, expected {per_direction} each way")
    if (total["up"], total["down"]) != (summary["bytes_up"], summary["bytes_down"]):
        failures.append("summary.json bytes disagree with messages.log")
    return failures


def check_outputs(cfg: dict, out: Path) -> tuple[list[str], str | None, dict]:
    """Check one run's output directory.

    Returns ``(failures, fingerprint, values)``: the fingerprint must be
    bit-identical across runs of one config, and ``values`` holds the
    quality numbers the metrics report.
    """
    try:
        summary = json.loads((out / "summary.json").read_text())
        if not all(math.isfinite(v) for v in _numbers(summary)):
            return ["summary.json has a non-finite value"], None, {}
        if cfg["mode"] == "theory":
            trace = (out / "trace.csv").read_text()
            rows = list(csv.DictReader(trace.splitlines()))
            reached = [int(r["round"]) for r in rows if float(r["dist"]) < THEORY_TOL]
            failures = []
            if len(rows) != cfg["theory_rounds"] + 1:
                failures.append(f"trace.csv has {len(rows)} rows")
            if not reached:
                failures.append(f"distance never below {THEORY_TOL} in {len(rows) - 1} rounds")
                return failures, trace, {}
            values = {"final_score": 1.0 - summary["final_dist"], "rounds_to_tol": reached[0]}
            return failures, trace, values
        accs = summary["per_client_accuracy"]
        failures = []
        bounded = [summary[k] for k in ("mean_accuracy", "min_accuracy", "max_accuracy")]
        if not all(0.0 <= a <= 1.0 for a in [*accs.values(), *bounded]):
            failures.append("an accuracy lies outside [0, 1]")
        if len(accs) != cfg["clients"]:
            failures.append(f"{len(accs)} client accuracies for {cfg['clients']} clients")
        failures += check_messages(cfg, out, summary)
        values = {
            "final_score": summary["mean_accuracy"],
            "comm_mb": (summary["bytes_up"] + summary["bytes_down"]) / 1e6,
        }
        return failures, json.dumps(accs, sort_keys=True), values
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"], None, {}


def check_eval(out: Path, data_dir: Path, limit: float) -> list[str]:
    """``flic eval`` on the checkpoint reproduces summary.json's accuracies."""
    code, stdout, err = run_python(
        ["-m", "flic.cli", "eval", "--checkpoint", out / "checkpoint", "--data", data_dir],
        limit,
    )
    if code != 0:
        return [f"flic eval exited {code}: {err.strip()[-300:]}"]
    summary = json.loads((out / "summary.json").read_text())
    accs = summary["per_client_accuracy"]
    expected = [f"client {c}: accuracy {accs[c]:.4f}" for c in sorted(accs, key=int)]
    expected.append(f"mean_accuracy {summary['mean_accuracy']:.4f}")
    if stdout.splitlines() != expected:
        return ["flic eval does not reproduce summary.json"]
    return []


def run_process(cfg: dict, rep_dir: Path, kind: str, limit: float) -> dict:
    """One program process; ``kind`` is "plain" or "traced"."""
    rep_dir.mkdir(parents=True)
    config = rep_dir / "config.json"
    write_json(config, dict(cfg, out_dir=str(rep_dir / "out")))
    args = [HERE / "child.py", "--config", config, "--result", rep_dir / "result.json"]
    if kind == "traced":
        args += ["--spans", rep_dir / "spans.json"]
    code, _, err = run_python(args, limit)
    rec = {"kind": kind, "dir": rep_dir.name, "code": code, "failures": []}
    if code != 0:
        rec["failures"].append(f"exit code {code}: {err.strip()[-300:]}")
        return rec
    rec["result"] = json.loads((rep_dir / "result.json").read_text())
    failures, rec["fingerprint"], rec["values"] = check_outputs(cfg, rep_dir / "out")
    rec["failures"] += failures
    return rec


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flic").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_reference(label: str, cfg: dict, fingerprint: str) -> list[str]:
    """Outputs match those of earlier runs of this code, config and seed."""
    key = hashlib.sha256((source_hash() + json.dumps(cfg, sort_keys=True)).encode())
    path = OUT / "ref" / f"{label}-{key.hexdigest()[:16]}.txt"
    if path.exists():
        if path.read_text() != fingerprint:
            return ["outputs differ from an earlier run of this code at this seed"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fingerprint)
    return []


def environment(name: str, seed: int, cfg: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": source_hash(),
        "workload": name,
        "seed": seed,
        "config": cfg,
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def end_to_end_metrics(reps: list[dict]) -> dict:
    plain = [r for r in reps if r["kind"] == "plain" and not r["failures"]]
    return {
        "setup_s": (_median(r["result"]["setup_s"] for r in plain), "s"),
        "run_s": (_mean(r["result"]["run_s"] for r in plain), "s"),
        "peak_rss_mb": (_median(r["result"]["peak_rss_mb"] for r in plain), "MB"),
        "final_score": (plain[0]["values"]["final_score"] if plain else None, "share"),
    }


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for name in WRAPPED:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return names + [
        (ALIGNMENT_CLASSES, "count"),
        ("gaussian.eigh_per_class_step", "calls/step"),
        ("theory.phi_hat_per_round", "calls/round"),
        ("federation.comm_mb", "MB"),
        ("theory.rounds_to_tol", "rounds"),
        ("trace.overhead_s", "s"),
    ]


def per_layer_metrics(reps: list[dict]) -> dict:
    ok = [r for r in reps if not r["failures"]]
    plain = [r["result"] for r in ok if r["kind"] == "plain"]
    traced = [r["result"] for r in ok if r["kind"] == "traced"]
    values = {}
    if traced:
        for name in WRAPPED:
            values[f"{name}.calls"] = statistics.median_low(t["layers"][name]["calls"] for t in traced)
            values[f"{name}.self_s"] = _median(t["layers"][name]["self_s"] for t in traced)
        classes = statistics.median_low(t["counts"][ALIGNMENT_CLASSES] for t in traced)
        rounds = values["theory.fedrep_linear_round.calls"]
        outputs = next(r["values"] for r in ok if r["kind"] == "traced")
        values.update(
            {
                ALIGNMENT_CLASSES: classes,
                "gaussian.eigh_per_class_step":
                    values["numpy.linalg.eigh.calls"] / classes if classes else 0.0,
                "theory.phi_hat_per_round":
                    values["theory.phi_hat.calls"] / rounds if rounds else 0.0,
                "federation.comm_mb": outputs.get("comm_mb", 0.0),
                "theory.rounds_to_tol": outputs.get("rounds_to_tol", 0),
            }
        )
        if plain:
            values["trace.overhead_s"] = _mean(t["run_s"] for t in traced) - _mean(
                p["run_s"] for p in plain
            )
    return {name: (values.get(name), unit) for name, unit in per_layer_names()}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload for about ``seconds``; return the full record."""
    limit = time.perf_counter() + RUN_LIMIT_S
    cfg = workload_config(name, seed, tiny)
    label = f"{name}{'-tiny' if tiny else ''}-s{seed}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data_dir = work / "data"
    prepare_failures = []
    if name in FROM_DATASET:
        cfg["dataset_path"] = str(data_dir)
        prepare_failures = datagen(cfg, work, data_dir, limit)

    # Cycles of processes until the next cycle would end past the deadline.
    # On a shared host a process runs either at the host's quiet speed or
    # about 1.4 times slower, and the share of slow processes changes from
    # minute to minute. So a run starts many short processes and reports
    # their mean ``run_s``, which follows that share smoothly; a median
    # jumps between the two speeds.
    reps = []
    deadline = time.perf_counter() + seconds
    kinds = ("plain", "traced") if trace else ("plain",)
    min_cycles = 1 if trace else 2  # two runs at least, for the bit-identity check
    longest, cycles = 0.0, 0
    while True:
        start = time.perf_counter()
        for kind in kinds:
            reps.append(run_process(cfg, work / f"{kind}{len(reps)}", kind, limit))
        longest = max(longest, time.perf_counter() - start)
        cycles += 1
        if cycles >= min_cycles and time.perf_counter() + longest > deadline:
            break

    for r in reps:
        r["failures"] = prepare_failures + r["failures"]
    prints = [r for r in reps if r.get("fingerprint") is not None]
    if prints:
        for r in prints:
            if r["fingerprint"] != prints[0]["fingerprint"]:
                r["failures"].append("outputs differ from the first run of this config")
        prints[0]["failures"] += check_reference(label, cfg, prints[0]["fingerprint"])
    checked = next((r for r in reps if r["kind"] == "plain" and not r["failures"]), None)
    if cfg["mode"] == "flic" and checked is not None:
        failures = [] if data_dir.exists() else datagen(cfg, work, data_dir, limit)
        out = work / checked["dir"] / "out"
        checked["failures"] += failures or check_eval(out, data_dir, limit)

    # Keep the first run's outputs and every run's record; the rest is large.
    for r in reps[1:]:
        shutil.rmtree(work / r["dir"] / "out", ignore_errors=True)
    shutil.rmtree(data_dir, ignore_errors=True)

    metrics = per_layer_metrics(reps) if trace else end_to_end_metrics(reps)
    record = {
        "environment": environment(name, seed, cfg),
        "seconds": seconds,
        "trace": trace,
        "runs": [{k: v for k, v in r.items() if k != "fingerprint"} for r in reps],
        "correct": not any(r["failures"] for r in reps),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json(work / "result.json", record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    if not (SRC / "flic" / "__init__.py").is_file():
        print(f"no flic sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # numpy is imported here too, for the environment record

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for r in record["runs"]:
        res = r.get("result", {})
        times = [f"{k}={res[k]:.4f}" for k in ("setup_s", "run_s") if k in res]
        values = [f"{k}={v}" for k, v in r.get("values", {}).items()]
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"process {r['dir']} {r['kind']} {' '.join(times + values)} {status}")
    print(f"failed_share {record['failed'] / record['attempted']:.4f}")
    for key, m in record["metrics"].items():
        print(f"metric {key} {m['value']} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
