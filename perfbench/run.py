#!/usr/bin/env python3
"""Stage-timed benchmark of `artifact train` followed by `artifact score`.

Run from the repository root:

    python3 perfbench/run.py --workload paper-21d-jsonl --seed 1 --seconds 15 --trace 0

A run generates the workload's inputs from the seed at least three times,
to time set-up, then repeats train+score pairs for about `--seconds`. Each
command runs in a fresh child process, one at a time, as a user would run
the CLI. Every invocation's outputs are checked. The last line of standard
output is one JSON object:

* `--trace 0`: the end-to-end metrics (time and peak RSS of each command,
  set-up time), medians over the pairs. Times are wall times rescaled to a
  fixed host speed with `probe`;
* `--trace 1`: per-layer metrics from in-process runs with every stage
  wrapped by `spans.py`, and the tracing overhead against the same runs
  untraced. Spans and counters go to `.perfbench_work/trace-*.json`.

BLAS libraries are held to one thread unless the environment already says
otherwise, and the run is pinned to one CPU; both are printed with the
results.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up repeats: at least this many, and until this much time is spent, so
# a quick set-up (widenet's ~0.7 s) gets enough samples for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
MODEL_SEED = "7"
# Seconds `probe` takes in the faster phases of the host the bounds were set
# on (2-vCPU KVM guest, Xeon Sapphire Rapids, Python 3.11.7). Rescaled times
# read as seconds on a host where the probe takes this long.
PROBE_REF_S = 0.6
CLI = "import sys; from artifact.cli import main; sys.exit(main())"

E2E_UNITS = {
    "train_s": "s", "score_s": "s", "train_peak_rss_mb": "MB",
    "score_peak_rss_mb": "MB", "setup_s": "s",
}


def probe() -> float:
    """Time a fixed job of JSON parsing, grouping and sorting: the kind of
    work ingest does, in code outside the program under test.

    The speed of a shared host drifts by a third or more over minutes, as
    other tenants load it. Wall times × `PROBE_REF_S` ÷ the run's median
    probe, timed on the same CPU between the set-ups and commands, take the
    drift out.
    """
    rng = random.Random(0)
    t0 = time.perf_counter()
    lines = [json.dumps({"ts": rng.random(), "sig": str(rng.randrange(1000)),
                         "ip": f"10.0.{i % 250}.{i % 7}"}) for i in range(60_000)]
    groups: dict[tuple[str, str], list[float]] = {}
    for row in map(json.loads, lines):
        groups.setdefault((row["sig"], row["ip"]), []).append(row["ts"])
    for values in groups.values():
        values.sort()
    return time.perf_counter() - t0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; at least one pair always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One benchmark run: inputs, invocations, checks and their tallies."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_scores: bytes | None = None
        self.probes = [probe()]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    # -- set-up --------------------------------------------------------------

    def set_up(self) -> dict[str, float]:
        from artifact.scenario import generate_scenario
        from workloads import render

        gen, ren, total = [], [], []
        while len(total) < SETUP_REPEATS or sum(total) < SETUP_MIN_S:
            t0 = time.perf_counter()
            stream = generate_scenario(self.workload.scenario(self.seed))
            t1 = time.perf_counter()
            self.files = render(self.workload, stream, self.work / "inputs")
            t2 = time.perf_counter()
            gen.append(t1 - t0)
            ren.append(t2 - t1)
            total.append(t2 - t0)
            self.n_records = len(stream)
            del stream
            self.probes.append(probe())
        print("# setup_s (wall): " + " ".join(f"{v:.4f}" for v in total), flush=True)
        return {"setup_s": statistics.median(total),
                "scenario.generate_s": statistics.median(gen),
                "scenario.render_s": statistics.median(ren)}

    def argv(self, command: str, out: Path) -> list[str]:
        from workloads import input_args, window_args

        args = [command, *input_args(self.workload, self.files),
                "--out", str(out), "--seed", MODEL_SEED]
        if command == "train":
            return args + window_args(self.workload)
        return args + ["--model", str(out / "model")]

    # -- invocations ---------------------------------------------------------

    def child(self, command: str, out: Path) -> tuple[float, float]:
        """Run one command in a fresh interpreter; return wall seconds and
        peak RSS in MB."""
        out.mkdir(parents=True, exist_ok=True)
        log = out / f"{command}.log"
        with open(log, "w") as fp:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI, *self.argv(command, out)],
                                    stdout=fp, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.verify(command, out, proc.returncode, log)
        return wall, usage.ru_maxrss / 1024.0

    def in_process(self, command: str, out: Path, tracer=None) -> float:
        """Run one command through `artifact.cli.main` in this process."""
        import artifact.cli

        out.mkdir(parents=True, exist_ok=True)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = artifact.cli.main(self.argv(command, out))
            else:
                tracer.run = command
                with tracer.span("cli.main"):
                    code = artifact.cli.main(self.argv(command, out))
        wall = time.perf_counter() - t0
        self.verify(command, out, code, None)
        return wall

    # -- output checks -------------------------------------------------------

    def verify(self, command: str, out: Path, code: int, log: Path | None) -> None:
        self.attempted += 1
        if code != 0:
            tail = log.read_text()[-2000:] if log is not None else ""
            found = [f"{command} exited with {code}\n{tail}"]
        elif command == "train":
            found = self.check_train(out / "model" / "training_summary.txt")
        else:
            found = self.check_score(out / "scores.csv")
        if found:
            self.failed += 1
            self.problems.extend(found)

    def check_train(self, summary: Path) -> list[str]:
        text = summary.read_text(encoding="utf-8")
        parsed = re.search(r"records parsed: (\d+) \(skipped (\d+) of (\d+) lines\)", text)
        expected = (self.n_records, 0, self.n_records)
        found = []
        if parsed is None or tuple(map(int, parsed.groups())) != expected:
            found.append(f"train parse counts {parsed and parsed.groups()} != {expected}")
        for label in ("unresolved hostnames", "hostname collisions"):
            if f"{label}: 0\n" not in text:
                found.append(f"train reports nonzero {label}")
        return found

    def check_score(self, path: Path) -> list[str]:
        from workloads import GRID

        data = path.read_bytes()
        with open(path, newline="", encoding="utf-8") as fp:
            rows = list(csv.DictReader(fp))
        found = []
        if len(rows) != self.workload.scored_windows:
            found.append(f"scores.csv has {len(rows)} rows, "
                         f"expected {self.workload.scored_windows}")
        scores = {}
        for row in rows:
            start = datetime.fromisoformat(row["window_start_utc"].replace("Z", "+00:00"))
            scores[GRID.window_of(start.timestamp())] = (
                float(row["score"]), row["flagged"] == "1")
        if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s, _ in scores.values()):
            found.append("a score lies outside [0, 1]")
        attack, spike = self.workload.attack_window, self.workload.spike_window
        if attack is not None:
            attack_score, flagged = scores.get(attack, (math.nan, False))
            if not flagged:
                found.append(f"attack window {attack} is not flagged")
            if not scores.get(spike, (math.inf,))[0] < attack_score:
                found.append(f"spike window {spike} does not score below the attack")
        if self.first_scores is None:
            self.first_scores = data
        elif data != self.first_scores:
            found.append("scores.csv differs from the first run on the same inputs")
        return found

    # -- measurement loops ---------------------------------------------------

    def budget_left(self, measure_start: float, seconds: float, rounds: list[float]) -> bool:
        if not rounds:
            return True
        # Start another round if it should end nearer `seconds` than this one.
        spent = time.perf_counter() - measure_start
        return spent + statistics.median(rounds) / 2 <= seconds and not self.failed

    def measure(self, seconds: float) -> dict[str, float]:
        samples: dict[str, list[float]] = {k: [] for k in E2E_UNITS if k != "setup_s"}
        rounds: list[float] = []
        t0 = time.perf_counter()
        while self.budget_left(t0, seconds, rounds):
            t1 = time.perf_counter()
            out = self.work / f"pair{len(rounds)}"
            for command in ("train", "score"):
                wall, rss = self.child(command, out)
                self.probes.append(probe())
                samples[f"{command}_s"].append(wall)
                samples[f"{command}_peak_rss_mb"].append(rss)
                if self.failed:
                    break
            shutil.rmtree(out, ignore_errors=True)
            rounds.append(time.perf_counter() - t1)
        for key, values in samples.items():
            label = f"{key} (wall)" if key.endswith("_s") else key
            print(f"# {label}: " + " ".join(f"{v:.4f}" for v in values), flush=True)
        return {k: statistics.median(v) for k, v in samples.items() if v}

    def measure_traced(self, seconds: float) -> tuple[dict[str, float], dict]:
        from spans import Tracer, layer_metrics, median_dicts, traced
        from workloads import GRID

        per_round: list[dict[str, float]] = []
        rounds: list[float] = []
        dumps = []
        t0 = time.perf_counter()
        while self.budget_left(t0, seconds, rounds):
            t1 = time.perf_counter()
            n = len(rounds)
            child = sum(self.child(c, self.work / f"child{n}")[0] for c in ("train", "score"))
            plain = sum(self.in_process(c, self.work / f"plain{n}") for c in ("train", "score"))
            tracer = Tracer()
            with traced(tracer):
                wall = sum(self.in_process(c, self.work / f"traced{n}", tracer)
                           for c in ("train", "score"))
            metrics = layer_metrics(tracer, GRID)
            metrics["trace.overhead_s"] = wall - plain
            metrics["cli.startup_s"] = (child - plain) / 2
            per_round.append(metrics)
            dumps.append(tracer.dump())
            for prefix in ("child", "plain", "traced"):
                shutil.rmtree(self.work / f"{prefix}{n}", ignore_errors=True)
            rounds.append(time.perf_counter() - t1)
        print(f"# traced rounds: {len(rounds)}", flush=True)
        return median_dicts(per_round), {"rounds": dumps}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: no artifact package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import artifact
    from spans import unit_of
    from workloads import WORKLOADS

    if not Path(artifact.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported artifact from {artifact.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # The probes and the children they rescale share one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"# python {platform.python_version()}, cpus {os.cpu_count()}, pinned to cpu "
          f"{cpu}, blas threads {os.environ['OPENBLAS_NUM_THREADS']} "
          f"(OPENBLAS_NUM_THREADS)", flush=True)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        setup = bench.set_up()
        print(f"# {args.workload} seed {args.seed}: {bench.n_records} alerts", flush=True)
        if args.trace:
            metrics, dump = bench.measure_traced(args.seconds)
            metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
            units = {k: unit_of(k) for k in metrics}
            trace_path = WORK_ROOT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps(dump))
        else:
            metrics = {**bench.measure(args.seconds), "setup_s": setup["setup_s"]}
            speed = PROBE_REF_S / statistics.median(bench.probes)
            print("# probe s: " + " ".join(f"{v:.4f}" for v in bench.probes)
                  + f"; wall times scaled by {speed:.4f}", flush=True)
            for key in ("train_s", "score_s", "setup_s"):
                metrics[key] *= speed
            units = E2E_UNITS
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
