"""The qdesigns benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of `qdesigns` CLI invocations (ops); a pass runs the
list once.  The loop is closed: one op at a time, each in a fresh interpreter
started after the previous one has exited.  Wall time is taken around each
child; CPU time and peak RSS come from the child's own rusage (os.wait4).  An
untimed warm-up pass runs first and fixes the reference bytes: every later
pass must reproduce each op's stdout and --out file exactly.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced passes
with passes whose children run under trace_child.py and prints the per-layer
metrics.  A report goes first, and the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.
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
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import analysis
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_pass_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES_FIRST = 5  # cold starts before the timed passes; one more follows each pass
OP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRun:
    exit_code: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: bytes
    out: bytes | None
    problems: list
    spans: list | None = None


@dataclass
class Pass:
    ops: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)


def run_child(cmd: list, cwd: Path, env: dict) -> tuple:
    """Run one child with stdout and stderr in files in `cwd`; returns (exit
    code, wall s, cpu s, max RSS KiB, stdout bytes).  A child still running
    after OP_TIMEOUT_S is killed."""
    stdout_path = cwd / ".stdout"
    with open(stdout_path, "wb") as out, open(cwd / ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            stdout_path.read_bytes())


class Bench:
    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.reference = None  # (stdout, out bytes) per op, from the warm-up pass
        for name, text in workload.files.items():
            (workdir / name).write_text(text)

    def run_pass(self, traced: bool = False) -> Pass:
        result = Pass()
        for i, op in enumerate(self.workload.ops):
            out_path = self.workdir / op.out if op.out else None
            if out_path is not None and out_path.exists():
                out_path.unlink()
            spans_path = self.workdir / ".spans.json"
            spans_path.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(TRACE_CHILD), str(spans_path), *op.argv]
            else:
                cmd = [sys.executable, "-m", "qdesigns.cli", *op.argv]
            code, wall, cpu, rss, stdout = run_child(cmd, self.workdir, self.env)
            out = out_path.read_bytes() if out_path is not None and out_path.exists() else None
            problems = workloads.check_op(op, code, stdout.decode(errors="replace"), out)
            if code != op.exit_code:
                stderr = (self.workdir / ".stderr").read_text(errors="replace").strip()
                problems.append(f"stderr: {stderr.splitlines()[-1] if stderr else '(empty)'}")
            if self.reference is not None and self.reference[i] != (stdout, out):
                problems.append("output bytes differ from the warm-up pass")
            spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
            if traced and spans is None:
                problems.append("traced child wrote no spans")
            result.ops.append(OpRun(code, wall, cpu, rss, stdout, out, problems, spans))
        if self.reference is None:
            self.reference = [(r.stdout, r.out) for r in result.ops]
        return result

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter that imports qdesigns.cli."""
        code, wall, *_ = run_child([sys.executable, "-c", "import qdesigns.cli"], self.workdir, self.env)
        if code != 0:
            raise RuntimeError(f"importing qdesigns.cli exited {code}")
        return wall


def cpu_steal_s() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far, in seconds, or
    None where /proc/stat does not report it."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(bench: Bench, seconds: float) -> tuple:
    setup = [bench.setup_sample() for _ in range(SETUP_SAMPLES_FIRST)]
    passes = []
    steal0, start = cpu_steal_s(), time.perf_counter()
    deadline = start + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(bench.run_pass())
        setup.append(bench.setup_sample())
    steal1, elapsed = cpu_steal_s(), time.perf_counter() - start
    walls = [p.wall for p in passes]
    op_walls = [statistics.median([p.ops[i].wall for p in passes]) for i in range(len(passes[0].ops))]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(op_walls),
        "ops_per_s": sum(len(p.ops) for p in passes) / sum(walls),
        "cpu_pass_s": sum(statistics.median([p.ops[i].cpu for p in passes]) for i in range(len(op_walls))),
        "peak_rss_mb": max(r.maxrss_kb for p in passes for r in p.ops) / 1024,
    }
    tail = analysis.tail_percentile(walls)
    notes = [
        f"passes timed: {len(passes)}; setup samples: {len(setup)}",
        "pass walls (s): " + " ".join(f"{w:.3f}" for w in walls),
        "median op walls (s): " + " ".join(f"{w:.3f}" for w in op_walls),
        "cpu steal while timing: " + ("not reported" if steal0 is None else
                                      f"{100 * (steal1 - steal0) / (elapsed * os.cpu_count()):.1f}% of all CPUs"),
        "pass_s_tail: " + (f"{tail[1]:.4f} s at p{tail[0]:.1f} of {len(walls)} passes" if tail else
                           f"undefined: {len(walls)} passes, the rule needs at least 11"),
    ]
    return passes, metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple:
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(bench.run_pass())
        traced.append(bench.run_pass(traced=True))
    per_pass = []
    for p in traced:
        totals = {}
        for r in p.ops:
            for key, value in analysis.op_totals(r.spans or [], r.wall).items():
                totals[key] = totals.get(key, 0.0) + value
        totals["cli.out_bytes"] = float(sum(len(r.stdout) + len(r.out or b"") for r in p.ops))
        per_pass.append(analysis.layer_metrics(totals))
    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["trace_overhead_s"] = (statistics.median([p.wall for p in traced])
                                   - statistics.median([p.wall for p in plain]))
    notes = [f"passes: {len(plain)} untraced, {len(traced)} traced; per-layer values are per-pass medians"]
    return plain + traced, metrics, notes


def environment(args) -> list:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not found)"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return [
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("blas", blas_text),
        ("thread settings", " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)),
        ("nproc", f"{os.cpu_count()} (usable: {len(os.sched_getaffinity(0))})"),
        ("cpu", cpu_model),
        ("git commit", commit),
        ("workload", f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdesigns" / "cli.py").is_file():
        print(f"error: no qdesigns sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        bench = Bench(workload, workdir)
        warmup = bench.run_pass()
        measure = per_layer if args.trace else end_to_end
        passes, metrics, notes = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for p in [warmup, *passes] for r in p.ops]
    failed = [(i % len(workload.ops), r.problems) for i, r in enumerate(runs) if r.problems]
    units = dict(END_TO_END) | {n: u for n, u, _ in analysis.PER_LAYER}
    for key, value in environment(args):
        print(f"env {key}: {value}")
    for i, op in enumerate(workload.ops):
        print(f"op {i}: qdesigns {' '.join(op.argv)}" + (f"  (expects exit {op.exit_code})" if op.exit_code else ""))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(f"{'fail_frac':48s} {len(failed) / len(runs):.6g} ({len(failed)} of {len(runs)} ops)")
    for i, problems in failed[:20]:
        print(f"FAILED op {i} ({' '.join(workload.ops[i].argv)}): {'; '.join(problems)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
