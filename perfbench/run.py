"""Benchmark of the biposet library and CLI: three workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload claims|large|n4|all --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: biposet is imported from ./src of
the checkout this file sits in, and the benchmark writes only under
perfbench/.work/. Nothing is installed or built.

Workloads (BENCHMARK.json says why each one is there):
  claims  verify_claim(c, 3, seed) for all 15 registered claims, replay_finding
          on each result, and `biposet hunt DOUBLE_DUAL` seven times
  large   one large structure per call through core, axioms, constructions,
          extremal, morphisms, galois and io_cli, plus six CLI subcommands
  n4      seeded n=4 reflexive draws through validity_kernel, duality_sample
          and per-structure check_axioms, and a leading slice of
          enumerate_biposets(4)

Each timed pass runs in a worker process (workloads.py) started from a fresh
interpreter, so library caches start cold; claims runs one pass per worker.
Passes repeat until --seconds have gone by, with at least one. Times are in
reference seconds: the run pins itself to one CPU and scales every interval
by that CPU's measured speed (speed.py), because a shared host's speed
drifts by up to 1.7x over minutes; raw wall times are printed next to them
as *_raw_*. wall_s is the median pass, setup_s the median of fresh
`import biposet` starts, cli_p50_ms the median call of each CLI command line
combined by geometric mean, peak_rss_mb the largest worker ru_maxrss. The
run prints
the provenance, one row per workload with every metric, its unit and its
sample count, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json; with --trace 1 the workload runs once
more with spans around every public call and the metrics are the per_layer
list. The exit code is 1 when an output check failed and 2 when the
checkout holds no biposet source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import Speedometer, pin_to_one_cpu

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
WORKLOADS = ("claims", "large", "n4")
MODULES = ("core", "axioms", "constructions", "extremal", "morphisms", "galois", "oracle", "io_cli")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
SWEEP_INSTANCES = 311_892_412    # GALOIS_THM11_FWD instances_checked at n_max=3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Raw and reference seconds from starting a fresh interpreter to `import biposet` returning."""
    code = "import time, biposet; print(time.perf_counter())"   # same clock as the parent's
    speedo = Speedometer()
    intervals = []
    for i in range(SETUP_SAMPLES + 1):          # the first run writes bytecode caches
        if i:
            speedo.sample(with_import=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import biposet failed: {proc.stderr.strip()[-2000:]}")
        if i:
            intervals.append((t0, float(proc.stdout)))
    speedo.sample(with_import=True)
    return [t1 - t0 for t0, t1 in intervals], speedo.ref_seconds(intervals)


def run_phase(workload: str, seed: int, seconds: int, trace: bool, env: dict,
              work: Path) -> dict:
    """Worker processes, one after another, until `seconds` have gone by."""
    deadline = time.monotonic() + seconds
    merged = {"walls": [], "ref_walls": [], "cli_ms": [], "attempted": 0, "failed": 0, "failures": [],
              "counters": defaultdict(int), "spans": [], "rss_mb": [], "versions": None}
    while not merged["walls"] or time.monotonic() < deadline:
        remaining = max(deadline - time.monotonic(), 0.0)
        cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{remaining:.3f}", "--trace", str(int(trace)),
               "--first-pass", str(len(merged["walls"])), "--work", str(work)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{workload} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("walls", "ref_walls", "cli_ms", "failures", "spans"):
            merged[key] += rep[key]
        merged["attempted"] += rep["attempted"]
        merged["failed"] += rep["failed"]
        for key, n in rep["counters"].items():
            merged["counters"][key] += n
        merged["rss_mb"].append(rep["rss_mb"])
        merged["versions"] = rep["versions"]
    return merged


def end_to_end(setup: tuple[list[float], list[float]], phase: dict) -> tuple[dict, dict]:
    """name -> (value, sample count), in reference time and in raw wall time.

    cli_p50_ms is the median call time of each distinct command line,
    combined over the workload's command lines by geometric mean: a plain
    median over calls of different commands sits on the gap between two of
    them and jumps with noise.
    """
    def median(values):
        return statistics.median(values), len(values)

    def cli_p50(column: int) -> tuple[float, int]:
        by_command = defaultdict(list)
        for call in phase["cli_ms"]:
            by_command[call[0]].append(call[column])
        typical = [statistics.median(times) for times in by_command.values()]
        return statistics.geometric_mean(typical), len(phase["cli_ms"])

    memory = (max(phase["rss_mb"]), len(phase["rss_mb"]))
    ref = {
        "setup_s": median(setup[1]),
        "wall_s": median(phase["ref_walls"]),
        "peak_rss_mb": memory,
        "cli_p50_ms": cli_p50(2),
    }
    raw = {
        "setup_raw_s": median(setup[0]),
        "wall_raw_s": median(phase["walls"]),
        "cli_raw_p50_ms": cli_p50(1),
    }
    return ref, raw


def per_layer(traced: dict, untraced: dict) -> dict:
    """name -> (value, sample count) from the spans of the traced phase.

    A span's self time is its duration minus that of its child spans; the
    root span of each pass is the benchmark's own code (bench.overhead_s).
    Time metrics are medians over passes of the per-pass total; a span that
    a workload never records reads 0.
    """
    spans = traced["spans"]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["run_id"], s["parent"]] += s["ref"]
    passes = sorted({s["pass"] for s in spans})
    total = {p: defaultdict(float) for p in passes}
    count = {p: defaultdict(int) for p in passes}
    self_time = {p: defaultdict(float) for p in passes}
    calls = defaultdict(list)
    for s in spans:
        dur = s["ref"]
        total[s["pass"]][s["name"]] += dur
        count[s["pass"]][s["name"]] += s["count"]
        self_time[s["pass"]][s["name"].split(".")[0]] += dur - child_time[s["run_id"], s["id"]]
        calls[s["name"]].append(dur)

    def over_passes(fn) -> tuple[float, int]:
        return statistics.median(fn(p) for p in passes), len(passes)

    def span_s(name: str) -> tuple[float, int]:
        return over_passes(lambda p: total[p][name])

    def rate(name: str, scale: float, per_count: bool) -> tuple[float, int]:
        def one(p):
            t, n = total[p][name], count[p][name]
            if not (t and n):
                return 0.0
            return scale * t / n if per_count else n / t
        return over_passes(one)

    def claim_share(p) -> float:
        claims = sum(t for name, t in total[p].items() if name.startswith("oracle.claim."))
        return total[p]["oracle.claim.GALOIS_THM11_FWD"] / claims if claims else 0.0

    def sweep_rate(p) -> float:
        t = total[p]["oracle.claim.GALOIS_THM11_FWD"]
        return SWEEP_INSTANCES / t if t else 0.0

    def ratio(num: str, den: str) -> tuple[float, int]:
        c = traced["counters"]
        return (c[num] / c[den] if c[den] else 0.0), c[den]

    out = {
        "oracle.sweep_instances_per_s": over_passes(sweep_rate),
        "oracle.sweep_share": over_passes(claim_share),
        "oracle.kernel_ns_per_struct": rate("oracle.validity_kernel", 1e9, True),
        "oracle.enum4_valid_per_s": rate("oracle.enum4", 1.0, False),
        "oracle.valid_share": ratio("valid", "draws"),
        "axioms.check_small_us": rate("axioms.check_small", 1e6, True),
        "axioms.invalid_share": ratio("small_invalid", "small_checks"),
        "bench.overhead_s": over_passes(lambda p: self_time[p]["bench"]),
        "trace.overhead_s": (statistics.median(traced["ref_walls"])
                             - statistics.median(untraced["ref_walls"]), len(traced["ref_walls"])),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = over_passes(lambda p, m=module: self_time[p][m])
    for name in {s["name"] for s in spans}:
        if name.startswith("io_cli.cli."):
            out[f"{name}_ms"] = (1e3 * statistics.median(calls[name]), len(calls[name]))
        elif name != "bench.pass":
            out[f"{name}_s"] = span_s(name)
    return out


def declared_metrics(key: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def fmt_row(workload: str, values: dict, units: dict, attempted: int, failed: int) -> str:
    cells = [f"{name}={v:.6g} {units[name]} (n={n})" for name, (v, n) in values.items()]
    cells.append(f"error_rate={failed / attempted:.6g} ({failed}/{attempted})")
    return f"{workload}: " + "  ".join(cells)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 host: dict) -> tuple[dict, str]:
    """One benchmark run: the result object and the printed row."""
    env = child_env()
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(env)
        untraced = run_phase(workload, seed, seconds, False, env, work)
        traced = run_phase(workload, seed, seconds, True, env, work) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e_decl = declared_metrics("end_to_end")
    layer_decl = declared_metrics("per_layer")
    units = {m["name"]: m["unit"] for m in e2e_decl + layer_decl}
    units.update(setup_raw_s="s", wall_raw_s="s", cli_raw_p50_ms="ms")
    values, raw = end_to_end(setup, untraced)
    reported = [m["name"] for m in e2e_decl]
    if traced is not None:
        layers = per_layer(traced, untraced)
        values.update((m["name"], layers.get(m["name"], (0.0, 0))) for m in layer_decl)
        reported = [m["name"] for m in layer_decl]

    phases = [untraced] + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]} for name in reported},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        **host, "machine": platform.machine(),
        **untraced["versions"],
    }
    print("provenance: " + json.dumps(record))
    for failure in sum((p["failures"] for p in phases), []):
        print(f"FAILED {failure}")
    with open(WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**record, "result": result,
                   "samples": {name: n for name, (_, n) in values.items()},
                   "passes": {key: untraced[key] for key in ("walls", "ref_walls", "cli_ms")},
                   "spans": traced["spans"] if traced else []}, fh)
    return result, fmt_row(workload, {**values, **raw}, units, attempted, failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biposet" / "__init__.py").is_file():
        print(f"no biposet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = {"nproc": len(os.sched_getaffinity(0)), "pinned_cpu": pin_to_one_cpu()}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, rows = {}, []
    try:
        for name in names:
            results[name], row = run_workload(name, args.seed, args.seconds, bool(args.trace), host)
            rows.append(row)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(rows))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
