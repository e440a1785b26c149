"""End-to-end trial benchmark for the all-to-all compilers.

Runs one workload (see ``workloads.py``) through the public campaign entry
point ``repro.experiments.runner.run_campaign`` in this single process, as
a closed loop: campaign repeats run back to back until ``--seconds`` of
measurement have passed and the workload's ``min_repeats`` are done.
Usage, from the root of a checkout::

    python3 trialbench/run.py --workload adv-detlogn-n256 --seed 1 \
        --seconds 10 --trace 0

Times are scaled to a reference host.  A shared host's speed can swing by
up to 1.8x within minutes (measured on a 2-core x86-64 VM), so a fixed probe
(:func:`host_probe_s`, pure Python and NumPy, no ``repro`` code) runs
before and after every timed stretch, and each stretch's wall time is
multiplied by ``PROBE_REF_S`` over the mean of its two probe readings.
``trials_per_s`` and ``setup_s`` are therefore trials and seconds on a
host where the probe takes ``PROBE_REF_S``; the raw wall-clock figures
and every probe reading are kept in the result record.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` additionally runs a traced window with every layer wrapped in
spans (``spans.py``) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any correctness-gate violation (``gate.py``)
is printed to standard error and makes the exit code 1.  A full record
(environment, workload reason, digests, violations) goes to
``.trialbench/results/`` and, for traced runs, the spans to
``.trialbench/spans/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".trialbench"

from gate import (check_adversary_armed, check_digests,  # noqa: E402
                  check_parity, check_rows, digest, row_failure)
from workloads import WARM_SEED, WORKLOADS, Workload  # noqa: E402

#: thread-count variables of the BLAS builds NumPy may use
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed == WARM_SEED:
        parser.error(f"--seed {WARM_SEED} is the warm-up campaign's seed")
    return args


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src/``; seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program at {src / 'repro'}")
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import repro
    import repro.experiments.runner  # noqa: F401 — the entry point
    elapsed = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    return elapsed


def benchmark_metrics() -> Dict[str, Dict[str, Dict]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment(seed: int) -> Dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS
                        if k in os.environ},
        "repro_vars": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("REPRO_")},
        "seed": seed,
    }


#: what the probe reads on the reference host (a quiet 2-core x86-64 VM)
PROBE_REF_S = 0.02


def _probe_once() -> float:
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    # in place, so the reading does not depend on the allocator's state
    planes = np.arange(1 << 14, dtype=np.uint64)
    shifted = np.empty_like(planes)
    for _ in range(400):
        np.multiply(planes, np.uint64(0x9E3779B97F4A7C15), out=planes)
        np.right_shift(planes, np.uint64(7), out=shifted)
        np.bitwise_xor(planes, shifted, out=planes)
    return time.perf_counter() - start


def host_probe_s() -> float:
    """Seconds a fixed pure-Python and NumPy loop takes (median of five):
    how fast this host runs right now.  It calls no ``repro`` code, so only
    the host moves it."""
    return statistics.median(_probe_once() for _ in range(5))


def host_scaled(wall_s: float, probe_before: float,
                probe_after: float) -> float:
    """``wall_s`` as it would read on the reference host."""
    return wall_s * PROBE_REF_S / ((probe_before + probe_after) / 2)


class Window:
    """One measured window: campaign repeats of one spec, back to back,
    with a host probe before the first repeat and after every repeat."""

    def __init__(self):
        self.repeats: List[List[Dict]] = []
        self.walls: List[float] = []
        self.probes: List[float] = []
        self.wall_s = 0.0

    @property
    def host_s(self) -> float:
        """The repeats' wall time scaled to the reference host."""
        return sum(host_scaled(wall, before, after) for wall, before, after
                   in zip(self.walls, self.probes, self.probes[1:]))

    def passed_per_s(self) -> float:
        """Trials that pass the gate per reference-host second."""
        return sum(not row_failure(row) for row in self.rows) / self.host_s

    @property
    def rows(self) -> List[Dict]:
        return [row for rows in self.repeats for row in rows]

    @property
    def digests(self) -> List[str]:
        return [digest(rows) for rows in self.repeats]


def run_repeat(workload: Workload, spec, scratch: str) -> List[Dict]:
    from repro.experiments import runner
    from repro.experiments.store import TrialStore
    path = os.path.join(scratch, "store.jsonl") if workload.jsonl_store \
        else None
    with TrialStore(path) as store:
        result = runner.run_campaign(spec, store=store,
                                     backend=workload.backend)
        rows = result.rows()
    if path is not None:
        os.unlink(path)
    return rows


def measure(workload: Workload, seed: int, seconds: float,
            scratch: str) -> Window:
    window = Window()
    spec = workload.spec(seed)
    start = time.perf_counter()
    window.probes.append(host_probe_s())
    while (len(window.repeats) < workload.min_repeats
           or time.perf_counter() - start < seconds):
        began = time.perf_counter()
        window.repeats.append(run_repeat(workload, spec, scratch))
        window.walls.append(time.perf_counter() - began)
        window.probes.append(host_probe_s())
    window.wall_s = time.perf_counter() - start
    return window


def parity_violations(rows: List[Dict]) -> List[str]:
    """Re-run the first trial of every vmap cell through ``run_single``."""
    from repro.experiments.runner import run_single
    from repro.experiments.spec import TrialSpec
    firsts: Dict[tuple, Dict] = {}
    for row in rows:
        trial = TrialSpec.from_dict(row["trial"])
        firsts.setdefault(trial.cell, row)
    problems = []
    for row in firsts.values():
        serial, _ = run_single(TrialSpec.from_dict(row["trial"]))
        problems += check_parity(row, serial)
    return problems


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> Dict:
    rows = window.rows
    ok = [row for row in rows if not row_failure(row)]
    attempted = len(rows)
    simulated = [row for row in rows if row.get("status") == "ok"]

    def mean(field: str) -> float:
        return (sum(row[field] for row in simulated) / len(simulated)
                if simulated else 0.0)
    return {
        "setup_s": setup_s,
        "trials_per_s": window.passed_per_s(),
        "peak_rss_mb": rss_mb,
        "delivery_accuracy": (
            sum(row["correct_entries"] for row in simulated)
            / max(1, sum(row["total_entries"] for row in simulated))),
        "passed_trial_share": len(ok) / attempted,
        "rounds_per_trial": mean("rounds"),
        "bits_per_trial": mean("bits_sent"),
        "corrupted_per_trial": mean("entries_corrupted"),
    }


def window_violations(window: Window) -> List[str]:
    return (check_rows(window.rows)
            + check_adversary_armed(window.repeats[0])
            + check_digests(window.digests))


def traced_run(workload: Workload, seed: int, seconds: float, scratch: str,
               untraced: Window, record: Dict):
    """Measure a second window with every layer wrapped; returns the
    window, the per-layer metrics and the gate violations it adds."""
    import spans
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        window = measure(workload, seed, seconds, scratch)
    finally:
        installed.restore()
    problems = window_violations(window)
    if window.digests[0] != untraced.digests[0]:
        problems.append(f"traced digest {window.digests[0]} != untraced "
                        f"{untraced.digests[0]}")
    never = [site for site in workload.expected_calls
             if not tracer.site_calls.get(site)]
    if never:
        problems.append(f"wrapped functions never called: {never}")
    # the repeats' wall time, without the host probes between them
    wall_s = sum(window.walls)
    layers = tracer.layer_metrics(wall_s)
    traced_rate, untraced_rate = window.passed_per_s(), untraced.passed_per_s()
    layers.update({
        "trace.wall_s": wall_s,
        "trace.traced_trials_per_s": traced_rate,
        "trace.untraced_trials_per_s": untraced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "trace.spans": len(tracer.spans),
    })
    record["wrapped_sites"] = installed.sites
    record["site_calls"] = dict(sorted(tracer.site_calls.items()))
    record["traced_digests"] = window.digests
    record["traced_probes"] = window.probes
    path = OUT / "spans" / f"{workload.name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in tracer.span_records():
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    record["spans_file"] = str(path.relative_to(ROOT))
    return window, layers, problems


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"trialbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    declared = benchmark_metrics()
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "why": workload.why,
              "backend": workload.backend,
              "environment": environment(args.seed),
              "seconds": args.seconds, "trace": args.trace}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        # set-up: the import plus one warm-up campaign on a seed disjoint
        # from the measured one, which fills the construction caches
        before = host_probe_s()
        began = time.perf_counter()
        warm_rows = run_repeat(workload, workload.warm_spec(), scratch)
        setup_wall_s = import_s + time.perf_counter() - began
        setup_s = host_scaled(setup_wall_s, before, host_probe_s())
        window = measure(workload, args.seed, args.seconds, scratch)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check_rows(warm_rows) + window_violations(window)
        if workload.backend == "vmap":
            problems += parity_violations(window.repeats[0])
        metrics = end_to_end(window, setup_s, rss_mb)
        reported = window
        kind = "end_to_end"
        if args.trace:
            reported, metrics, traced_problems = traced_run(
                workload, args.seed, args.seconds, scratch, window, record)
            problems += traced_problems
            kind = "per_layer"
    if set(metrics) != set(declared[kind]):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared[kind]))}"
                        f" differ from BENCHMARK.json {kind}")
    failed = sum(bool(row_failure(row)) for row in reported.rows)
    record.update({"metrics": metrics, "violations": problems,
                   "digests": window.digests, "repeat_walls": window.walls,
                   "probes": window.probes, "setup_wall_s": setup_wall_s,
                   "wall_trials_per_s": (
                       sum(not row_failure(row) for row in window.rows)
                       / window.wall_s),
                   "attempted": len(reported.rows), "failed": failed})
    path = OUT / "results" / (f"{workload.name}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name} ({workload.backend}), seed {args.seed}: "
          f"{len(window.repeats)} repeats, {len(window.rows)} trials in "
          f"{window.wall_s:.2f} s; record {path.relative_to(ROOT)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name in declared[kind]:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:>16.6g} "
                  f"{declared[kind][name]['unit']}")
    for problem in problems:
        print(f"trialbench: GATE: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reported.rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": declared[kind][name]["unit"]}
                    for name in declared[kind] if name in metrics},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
