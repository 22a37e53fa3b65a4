"""boltzq benchmark: one workload per run, closed loop, oracle-checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload region_atlas --seed 1 --seconds 12 --trace 0

One client issues one op at a time in one thread, each after the previous
returned.  A run does a fixed amount of work: ``--seconds`` times the
workload's repetitions per second on the reference host, so attempted and
failed ops repeat exactly for a seed.  ``--trace 0`` times the workload
untraced and prints every
end-to-end metric; ``--trace 1`` runs a traced slice of every workload and
prints every per-layer metric plus the tracing overhead of the named
workload.  The last line of standard output is the result as JSON; the
line before it holds provenance, failure reasons and run details.  The
library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; subprocesses inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import calib
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fresh interpreters timed for setup_s; the benchmark's own import of
#: boltzq has already written the bytecode they load
SETUP_REPEATS = 3
#: runs of each of the workload's CLI commands, one process at a time; a
#: single CLI process varies by about 20% on a shared host
CLI_PASSES = 5
#: ``-X importtime`` runs of each CLI command in a traced run (layer metrics
#: have no bound, so fewer runs do)
IMPORTTIME_PASSES = 3
#: a run has at least this many repetitions ...
MIN_REPS = 3
#: ... and this many ops beyond the tail percentile
MIN_TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def declared_metrics(kind: str) -> dict:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# --- ops -----------------------------------------------------------------

def run_op(wl, tracer, item, op_id: int, keep: bool):
    """Time one op (library calls only), calibrate, then check it untimed."""
    from workloads import Record, raised
    start = time.perf_counter()
    try:
        result = tracer.op(wl.name + ".op", op_id, wl.op, item)
    except Exception as exc:  # a raise on valid input fails the op
        result = exc
    if tracer.enabled:  # the tracer calibrated after the op's span
        wall, scale = tracer.last_wall, tracer.last_factor
    else:
        wall = time.perf_counter() - start
        scale = tracer.scaler.after(wall)
    verdict = ([raised(result)] if isinstance(result, Exception)
               else wl.check(item, result))
    counts = None if isinstance(result, Exception) else wl.counts(item, result)
    if not keep:  # so peak RSS does not grow with the number of ops
        item = result = None
    elif isinstance(result, Exception):
        result = None
    return Record(op_id, item, result, wall * scale, wall, verdict, counts)


def run_rep(wl, tracer, rep: int, first_id: int, keep: bool = False):
    return [run_op(wl, tracer, item, first_id + i, keep)
            for i, item in enumerate(wl.items(rep))]


def warm_up(wl) -> None:
    for i, item in enumerate(wl.items(-1)[:wl.warmup_ops]):
        run_op(wl, Tracer(False), item, -1 - i, False)


def counts_repeat(wl, records) -> bool:
    """Machine-independent counts of repetition 0 must come out the same
    when it runs again, untimed and untraced."""
    again = run_rep(wl, Tracer(False), 0, 0)
    return [r.counts for r in again] == [r.counts for r in records]


# --- child processes -----------------------------------------------------

def run_child(args) -> tuple[float, str, str, int]:
    """One Python process from the checkout root; (wall, out, err, code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.stdout, proc.stderr, proc.returncode


def bracketed(args) -> tuple[float, str, str, int, float]:
    """:func:`run_child` between two calibrations; adds their mean factor."""
    before = calib.measure(calib.CHILD_CAL_S)
    wall, out, err, rc = run_child(args)
    return wall, out, err, rc, 0.5 * (before + calib.measure(calib.CHILD_CAL_S))


def setup_child(wl) -> float:
    """``import boltzq`` plus the workload's first calls, timed in a fresh
    interpreter, so lazy set-up moved out of the timed ops still shows.
    Returns reference seconds."""
    code = ("import time; _t = time.perf_counter(); import boltzq as bq; "
            f"{wl.setup_code}; print(time.perf_counter() - _t)")
    _, out, err, rc, scale = bracketed(["-c", code])
    if rc:
        raise RuntimeError(f"setup child failed: {err.strip()[-500:]}")
    return float(out.strip().splitlines()[-1]) * scale


def cli_child(argv, check, importtime: bool):
    """One CLI process: (wall, stderr, verdict, calibration factor)."""
    flags = ["-X", "importtime"] if importtime else []
    wall, out, err, rc, scale = bracketed(flags + ["-m", "boltzq.cli"] + list(argv))
    return wall, err, ([f"cli_exit:{rc}"] if rc else check(out)), scale


class Children:
    """Setup and CLI processes, spread through the timed loop.

    They run one at a time between repetitions, evenly over the loop, so
    their medians cover the same host states as the ops; the repetition
    times exclude them.  Whatever is left when the loop ends runs afterwards.
    """

    def __init__(self, wl, reps: int):
        self.wl = wl
        self.todo = [("setup", None, None)] * SETUP_REPEATS
        self.todo += [("cli", argv, check) for _ in range(CLI_PASSES)
                      for argv, check in wl.cli]
        self.spacing = reps / len(self.todo)
        self.done = 0
        self.setup, self.cli, self.verdicts = [], {}, []

    def due(self, reps_done: int) -> None:
        if self.todo and reps_done >= self.done * self.spacing:
            self._run_next()

    def finish(self) -> None:
        while self.todo:
            self._run_next()

    def _run_next(self) -> None:
        kind, argv, check = self.todo.pop(0)
        if kind == "setup":
            self.setup.append(setup_child(self.wl))
        else:
            wall, _, verdict, scale = cli_child(argv, check, importtime=False)
            self.cli.setdefault(tuple(argv), []).append(wall * scale)
            self.verdicts.append(verdict)
        self.done += 1

    def setup_s(self) -> float:
        return median(self.setup)

    def cli_wall_s(self) -> float:
        return sum(median(walls) for walls in self.cli.values())


def import_times(stderr: str) -> tuple[float, float, float]:
    """(boltzq cumulative, scipy self total, all top-level imports) in
    seconds, from ``-X importtime`` output (nesting shows as indentation)."""
    boltzq = scipy = top = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        head, cum, name = line.split("|", 2)
        try:
            self_us, cum_us = float(head.split(":", 1)[1]), float(cum)
        except ValueError:
            continue  # the column header
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        if depth == 0:
            top += cum_us
            if name == "boltzq":
                boltzq = cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    return boltzq * 1e-6, scipy * 1e-6, top * 1e-6


# --- runs ----------------------------------------------------------------

def tail(latencies, pct: float) -> tuple[float, int]:
    import numpy as np
    value = float(np.percentile(np.asarray(latencies), pct))
    return value, sum(lat > value for lat in latencies)


def rep_count(wl, seconds: float) -> int:
    """Repetitions in a run: ``seconds`` of work on the reference host, at
    least MIN_REPS, and enough ops for MIN_TAIL_BEYOND beyond the tail.
    Work, not a deadline, ends the loop, so every count repeats exactly."""
    min_ops = MIN_TAIL_BEYOND / (1.0 - wl.tail_pct / 100.0)
    return max(MIN_REPS, math.ceil(seconds * wl.reps_per_s),
               math.ceil(min_ops / len(wl.items(0))))


def timed_run(wl, seconds: float):
    """Untraced repetitions, :func:`rep_count` of them; every end-to-end
    metric."""
    warm_up(wl)
    tracer = Tracer(False)
    n_reps = rep_count(wl, seconds)
    children = Children(wl, n_reps)
    records, reps = [], []
    for rep in range(n_reps):
        batch = run_rep(wl, tracer, rep, len(records))
        reps.append(batch)
        records += batch
        children.due(len(reps))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children.finish()
    repeat_ok = counts_repeat(wl, reps[0])
    verdicts = [r.failures for r in records] + children.verdicts
    latencies = [r.latency for r in records]
    tail_s, beyond = tail(latencies, wl.tail_pct)
    failed = sum(bool(v) for v in verdicts)
    metrics = {
        "setup_s": (children.setup_s(), "s"),
        "wall_s": (median(sum(r.latency for r in b) for b in reps), "s"),
        "op_p50_ms": (1e3 * median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_share": (1.0 - failed / len(verdicts), "share"),
        "cli_wall_s": (children.cli_wall_s(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"reps": len(reps), "ops": len(records),
            "tail_pct": wl.tail_pct, "tail_beyond": beyond,
            "wall_s_unscaled": median(sum(r.wall for r in b) for b in reps),
            "op_p50_ms_unscaled": 1e3 * median(r.wall for r in records),
            "counts_repeat": repeat_ok, "failed_share": failed / len(verdicts)}
    return metrics, info, verdicts, repeat_ok and beyond >= MIN_TAIL_BEYOND


def traced_slice(wl):
    """Traced repetitions 0..slice_reps-1, the emitters and the workload's
    extra calls; returns (tracer, records, verdicts, layer metrics)."""
    tracer = Tracer(True)
    records = []
    for rep in range(wl.slice_reps):
        records += run_rep(wl, tracer, rep, len(records), keep=True)
    good = [r for r in records if r.result is not None]
    for record in good:
        wl.emit(tracer, record)
    extra = wl.slice_extras(tracer, good)
    metrics = wl.layer_metrics(tracer, good)
    return tracer, records, [r.failures for r in records] + extra, metrics


def overhead_share(wl, seconds: float) -> tuple[float, list]:
    """Traced minus untraced repetition time, as a share of untraced.

    Repetitions alternate between the two modes on fresh inputs, so both
    see the same mix and no input reaches a library cache twice.  Each
    mode gets ``seconds / 2`` worth of repetitions, at least MIN_REPS."""
    walls = {False: [], True: []}
    verdicts = []
    first = 1000  # past every repetition that slices and counts use
    per_mode = max(MIN_REPS, math.ceil(seconds / 2.0 * wl.reps_per_s))
    for rep in range(first, first + 2 * per_mode):
        traced = rep % 2 == 1
        batch = run_rep(wl, Tracer(traced), rep, 0)
        walls[traced].append(sum(r.latency for r in batch))
        verdicts += [r.failures for r in batch]
    return median(walls[True]) / median(walls[False]) - 1.0, verdicts


def traced_run(wl, seconds: float, seed: int, workload_classes):
    """Per-layer metrics from a traced slice of every workload, tracing
    overhead and CLI import split of the named one."""
    metrics, verdicts = {}, []
    emit_s = 0.0
    repeat_ok = True
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for cls in workload_classes.values():
        other = cls(seed)
        warm_up(other)
        tracer, records, slice_verdicts, layer = traced_slice(other)
        metrics.update(layer)
        verdicts += slice_verdicts
        names = {s.name for s in tracer.spans if s.name.startswith("fileio.")}
        emit_s += sum(sum(tracer.seconds(n)) for n in names)
        if other.name == wl.name:
            repeat_ok = counts_repeat(wl, records[:len(wl.items(0))])
        tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}-{other.name}.jsonl")
    metrics["fileio.emit_ms"] = (1e3 * emit_s, "ms")
    share, loop_verdicts = overhead_share(wl, seconds)
    metrics["trace.overhead_share"] = (share, "share")
    verdicts += loop_verdicts
    splits = {}
    for _ in range(IMPORTTIME_PASSES):
        for argv, check in wl.cli:
            wall, err, verdict, scale = cli_child(argv, check, importtime=True)
            verdicts.append(verdict)
            boltzq_s, scipy_s, imports_s = import_times(err)
            splits.setdefault(tuple(argv), []).append(
                (boltzq_s * scale, scipy_s * scale, (wall - imports_s) * scale))
    for i, name in enumerate(("cli.import_s", "cli.import_scipy_s",
                              "cli.compute_emit_s")):
        metrics[name] = (sum(median(s[i] for s in runs)
                             for runs in splits.values()), "s")
    failed = sum(bool(v) for v in verdicts)
    info = {"counts_repeat": repeat_ok, "failed_share": failed / len(verdicts)}
    return metrics, info, verdicts, repeat_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    calib.pin_to_one_cpu()
    if not (SRC / "boltzq" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import boltzq
    if Path(boltzq.__file__).resolve().parent != SRC / "boltzq":
        print(f"error: boltzq imported from {boltzq.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    self_check = workloads.self_check()
    if args.trace:
        metrics, info, verdicts, checks_ok = traced_run(
            wl, args.seconds, args.seed, workloads.WORKLOADS)
    else:
        metrics, info, verdicts, checks_ok = timed_run(wl, args.seconds)
    reasons = Counter(f for v in verdicts for f in set(v))
    non_finite = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    mismatch = sorted(set(declared) ^ set(metrics)) + sorted(
        k for k, (_, unit) in metrics.items() if declared.get(k, unit) != unit)
    correct = (all(self_check.values()) and checks_ok and not non_finite
               and not mismatch)
    print(json.dumps({"provenance": provenance(), "workload": wl.name,
                      "seed": args.seed, "trace": args.trace, **info,
                      "self_check": self_check, "non_finite": non_finite,
                      "undeclared_or_missing": mismatch,
                      "failure_reasons": dict(reasons.most_common())}))
    print(json.dumps({
        "correct": correct, "attempted": len(verdicts),
        "failed": sum(bool(v) for v in verdicts),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
