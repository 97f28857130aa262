"""Pipeline benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload many_blogs --seed 1 --seconds 25 --trace 0

Set-up generates the workload's corpus with precursor.synth from --seed,
SETUP_REPEATS times; setup_s is the median. The measured part runs the whole
pipeline (`precursor run`, all stages, default config with --seed as the
scoring seed, --jobs 1) as one child process at a time: MIN_RUNS children,
then more while the next can end within --seconds. The first child's outputs
are checked, and every later child must write byte-identical artifacts. With
--trace 1 one child runs, then the pipeline runs again in-process under the
tracer (tracing.py), which gives the per-layer metrics and must write the
same artifacts. The last line of standard output is the result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here and inherited by every child:
# extra threads only add noise to the CPU time of the score stage.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_RUNS = 2
DEADLINE_S = 150.0  # children still running this long after start are killed


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _metric_specs(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found next to {BENCH_DIR.name}/")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup(workload: dict, seed: int, corpus_path: Path):
    """Generate and write the corpus SETUP_REPEATS times; median time."""
    from precursor import synth
    make_spec = getattr(synth, workload["spec"])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        records, truth = synth.generate(make_spec(**workload["params"], seed=seed))
        synth.write_corpus(records, corpus_path)
        times.append(time.perf_counter() - start)
    return records, truth, statistics.median(times)


def run_child(corpus_path: Path, workdir: Path, seed: int,
              deadline: float) -> dict:
    """One `precursor run` child: exit code, wall time, CPU time, own max RSS."""
    cmd = [sys.executable, "-m", "precursor.cli", "run", "--input",
           str(corpus_path), "--workdir", str(workdir), "--seed", str(seed),
           "--jobs", "1"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_path = workdir.with_suffix(".log")
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
            # maximum over every child this process has waited for
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "log_tail": tail}


def measure(args, workload: dict, workdir: Path) -> tuple[dict, list[str]]:
    """Set up, run and check. Each failed attempt adds one failure."""
    import checks  # imports precursor, so only once src/ is on sys.path
    problems: list[str] = []
    result = {"e2e": {}, "layers": {}, "measures": {}, "runs": [],
              "attempted": 0, "failed": 0}

    def attempt_failed(*messages: str) -> None:
        problems.extend(messages)
        result["failed"] += 1

    corpus_path = workdir / "input.jsonl"
    records, truth, result["e2e"]["setup_s"] = setup(workload, args.seed,
                                                      corpus_path)
    runs = result["runs"]
    first_hashes = None
    started = time.perf_counter()
    while True:
        run_dir = workdir / f"run{len(runs)}"
        run = run_child(corpus_path, run_dir, args.seed, args.deadline)
        runs.append(run)
        result["attempted"] += 1
        if run["exit"] != 0:
            attempt_failed(f"{run_dir.name} exited with {run['exit']}: "
                           f"{run['log_tail']}")
            break
        hashes = checks.artifact_hashes(run_dir)
        if first_hashes is None:
            first_hashes = hashes
        else:
            diff = checks.hash_mismatches(first_hashes, hashes)
            if diff:
                attempt_failed(f"{run_dir.name} artifacts differ from run0: "
                               f"{diff[:5]}")
            shutil.rmtree(run_dir)
        # Traced, one child: the traced run repeats it in-process.
        if args.trace or (len(runs) >= MIN_RUNS and time.perf_counter()
                          - started + run["wall_s"] > args.seconds):
            break
    if first_hashes is None:
        return result, problems

    e2e = result["e2e"]
    e2e["pipeline_s"] = statistics.median(r["wall_s"] for r in runs)
    e2e["pipeline_cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
    e2e["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in runs)
    try:
        found, measures = checks.check_run(workdir / "run0", records,
                                           truth.topics)
    except Exception as exc:  # a malformed artifact fails the run, not us
        found, measures = [f"checking run0 raised {exc!r}"], {}
    if found:
        attempt_failed(*found)
    result["measures"] = measures
    if "gamma_abs_err_max" in measures:
        e2e["gamma_accuracy"] = 1.0 - measures["gamma_abs_err_max"]
    for name in ("leader_gamma_margin", "planted_topic_recall"):
        if name in measures:
            e2e[name] = measures[name]

    if args.trace:
        import tracing
        traced_dir = workdir / "traced"
        result["attempted"] += 1
        try:
            layers = tracing.traced_run(corpus_path, traced_dir, args.seed)
        except Exception as exc:
            attempt_failed(f"traced run raised {exc!r}")
            return result, problems
        layers["trace_overhead_s"] = sum(
            v for k, v in layers.items()
            if k.startswith("stage.") and k.endswith(".wall_s")) - e2e["pipeline_s"]
        result["layers"] = layers
        diff = checks.hash_mismatches(first_hashes, checks.artifact_hashes(traced_dir))
        if diff:
            attempt_failed(f"traced run artifacts differ from run0: {diff[:5]}")
    return result, problems


def main(argv=None) -> int:
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    args.trace = args.trace == "1"
    args.deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "precursor" / "__init__.py").is_file():
        _fail(f"no program source at {SRC.name}/precursor; run from a checkout")
    specs = _metric_specs(args.trace)
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, problems = measure(args, workloads[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["layers"] if args.trace else result["e2e"]
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": _machine(),
                      "runs": [{k: v for k, v in r.items() if k != "log_tail"}
                               for r in result["runs"]],
                      "setup_s": result["e2e"].get("setup_s"),
                      "measures": result["measures"], "problems": problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs if m["name"] in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
