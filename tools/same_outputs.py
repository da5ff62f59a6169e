"""Check that two checkouts of this repository give byte-identical outputs.

    python3 tools/same_outputs.py OTHER_SRC [--seeds 2027 11]

OTHER_SRC is the root of another checkout (its ``src/`` and ``perfbench/``
are used); this script's own checkout is the first tree. For every workload
of ``perfbench/workloads.py`` and every input seed, each tree renders the
workload's inputs with its own generator and renderer, then runs its own
``train`` and ``score`` on them with model seed 7, as ``perfbench/run.py``
does, ``score`` with ``-v``. The two trees must agree byte for byte on the
rendered inputs' digest, ``scores.csv``, ``anomalies.json``, every bundle
file, the stdout and exit code of both commands, and the parse counts
``score`` logs (``read N lines: ... in the training span``). At every
input seed each tree also runs ``artifact simulate --config
configs/default.ini --seed S``, the full 21-day scenario of its own config,
then ``train`` and ``score`` on that stream with the same config and model
seed 7. The two must agree on the stream, and on every output, stdout,
exit code and parse count of the three commands, as above. Each difference
is printed, and the exit code is 1 if there is any.

Every run is a fresh interpreter in its own directory under a temporary
directory, with relative paths, so the printed paths match.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

THIS = Path(__file__).resolve().parents[1]
MODEL_SEED = "7"
PARSE_COUNTS = re.compile(r"^.*: read \d+ lines: .* in the training span$", re.M)

# Render one workload at one seed into ./inputs; print the inputs' digest and
# the train and score arguments, one per line, tab-separated.
RENDER = """
import sys
from pathlib import Path
from artifact.scenario import generate_scenario
from workloads import WORKLOADS, digest, input_args, render, window_args
workload = WORKLOADS[sys.argv[1]]
files = render(workload, generate_scenario(workload.scenario(int(sys.argv[2]))), Path("inputs"))
inputs = input_args(workload, files)
print(digest(files))
print("\\t".join(["train", *inputs, "--out", "out", *window_args(workload)]))
print("\\t".join(["score", *inputs, "--out", "out", "--model", "out/model"]))
"""


def workload_names(root: Path) -> list[str]:
    code = "from workloads import WORKLOADS; print('\\n'.join(WORKLOADS))"
    return run(root, root, [sys.executable, "-c", code]).stdout.split()


def run(root: Path, cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def outputs(root: Path, work: Path, workload: str, seed: int) -> dict[str, str | bytes]:
    """Everything one tree makes of one workload at one seed, by name."""
    work.mkdir(parents=True)
    rendered = run(root, work, [sys.executable, "-c", RENDER, workload, str(seed)])
    if rendered.returncode:
        raise SystemExit(f"{root}: rendering {workload} failed:\n{rendered.stderr}")
    digest, *commands = rendered.stdout.splitlines()
    return {"inputs digest": digest,
            **detect(root, work, [line.split("\t") for line in commands], workload)}


def detect(root: Path, work: Path, commands: list[list[str]], what: str) -> dict[str, str | bytes]:
    """Run `train` and `score` in `work` with model seed 7, `score` with
    -v; their stdout, exit codes, parse counts and every file under
    ./out, by name."""
    found: dict[str, str | bytes] = {}
    for argv in commands:
        if argv[0] == "score":
            argv = [*argv, "-v"]
        done = run(root, work, [sys.executable, "-m", "artifact.cli", *argv, "--seed", MODEL_SEED])
        found[f"{argv[0]} exit code"] = str(done.returncode)
        found[f"{argv[0]} stdout"] = done.stdout
        if argv[0] == "score":
            counts = PARSE_COUNTS.findall(done.stderr)
            if not counts and not done.returncode:
                raise SystemExit(f"{root}: score logged no parse counts for {what}")
            found["score parse counts"] = "\n".join(counts)
    out = work / "out"
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        found[str(path.relative_to(out))] = path.read_bytes()
    return found


def full_scale(root: Path, work: Path, seed: int) -> dict[str, str | bytes]:
    """The full-scale `simulate` run of one tree at one seed, then `train`
    and `score` on its stream, by name; the stream by its sha256."""
    work.mkdir(parents=True)
    config = str(root / "configs" / "default.ini")
    done = run(root, work, [sys.executable, "-m", "artifact.cli", "simulate", "--config",
                            config, "--seed", str(seed), "--out", "sim"])
    found: dict[str, str | bytes] = {"simulate exit code": str(done.returncode),
                                     "simulate stdout": done.stdout}
    stream = work / "sim" / "alerts.jsonl"
    if stream.exists():
        h = hashlib.sha256()
        with open(stream, "rb") as fp:
            while block := fp.read(1 << 22):
                h.update(block)
        found["simulate alerts.jsonl"] = h.hexdigest()
        inputs = ["--config", config, "--jsonl", "sim/alerts.jsonl", "--out", "out"]
        found.update(detect(root, work, [["train", *inputs],
                                         ["score", *inputs, "--model", "out/model"]],
                            f"the full-scale stream at seed {seed}"))
        stream.unlink()
    return found


def compare(label: str, found: dict[str, dict]) -> int:
    """Print whether the two trees' outputs agree; return how many differ."""
    differ = sorted(key for key in found["this"].keys() | found["other"].keys()
                    if found["this"].get(key) != found["other"].get(key))
    print(f"{label}: " + (f"DIFFERENT {', '.join(differ)}" if differ
                          else f"identical ({len(found['this'])} items)"), flush=True)
    return len(differ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", metavar="OTHER_SRC", type=Path,
                        help="root of the other checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2027, 11],
                        help="input seeds (default: 2027 11)")
    args = parser.parse_args(argv)
    trees = {"this": THIS, "other": args.other.resolve()}
    names = workload_names(THIS)
    if workload_names(trees["other"]) != names:
        print("the two trees define different workloads")
        return 1
    differences = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name in names:
            for seed in args.seeds:
                found = {label: outputs(root, Path(tmp) / label / f"{name}-{seed}", name, seed)
                         for label, root in trees.items()}
                differences += compare(f"{name} seed {seed}", found)
        for seed in args.seeds:
            found = {label: full_scale(root, Path(tmp) / label / f"simulate-{seed}", seed)
                     for label, root in trees.items()}
            differences += compare(f"full-scale simulate, train and score seed {seed}", found)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
