#!/usr/bin/env python3
"""Run one measured run of the dagscope benchmark and print its result.

    python3 perfbench/run.py --workload characterize-2m --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Steps:

1. Build the `dagscope` CLI (the repository's workspace) and the
   benchmark's worker binary (`perfbench/`, a workspace of its own) into
   `$CARGO_TARGET_DIR` (default `.bench_build`).
2. Prepare the workload's inputs for the seed in a separate process,
   unless they are cached under `$CARGO_TARGET_DIR/perfbench/`. The cache
   is keyed by the seed and by a hash of both binaries, because the
   snapshot and the reference outputs come from the program. Only the
   latest preparation of each workload is kept.
3. Start one measured run as a fresh process, in its own process group.
4. Take the metrics `BENCHMARK.json` names from the run (`end_to_end`
   for `--trace 0`, `per_layer` for `--trace 1`, where a layer the
   workload leaves idle reports 0), append the full record (metrics,
   diagnostics, input hashes) to `$CARGO_TARGET_DIR/perfbench/results.jsonl`
   and print, as the last line, `{"correct", "attempted", "failed", "metrics"}`.

Exits non-zero without a result if any step fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("characterize-2m", "serve-50k", "replay-8x4k")
ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, capture=False):
    """Run `cmd` in its own process group; on timeout kill the group."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[0]} {cmd[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd[:2]))} exited with {proc.returncode}")
    return out.decode() if capture else None


def build(target):
    os.environ["CARGO_TARGET_DIR"] = str(target)
    for args in (
        ["-p", "dagscope-cli"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    ):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=ROOT,
            stdout=sys.stderr,
            check=True,
        )
    release = target / "release"
    return release / "dagscope", release / "dagscope-perfbench"


def program_hash(*binaries):
    """Content hash of the binaries that prepare and check the inputs."""
    h = hashlib.sha256()
    for path in binaries:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def prepare(worker, dagscope, data, workload, seed, scale, program):
    """Prepared inputs for (workload, seed, scale, program); cached on disk."""
    home = data / scale / workload
    cell = home / f"seed-{seed}-{program}"
    if (cell / "manifest.txt").is_file():
        return cell
    if home.is_dir():
        shutil.rmtree(home)
    home.mkdir(parents=True)
    log(f"preparing {workload} seed {seed} ({scale})")
    run_group(
        [worker, "prep", "--workload", workload, "--seed", str(seed),
         "--dir", cell, "--dagscope", dagscope, "--scale", scale],
        timeout=600,
    )
    return cell


def select_metrics(record, trace):
    """The metrics BENCHMARK.json lists for this kind of run, in its order
    and with its units. A missing end-to-end metric is an error; a missing
    per-layer metric belongs to a layer the workload leaves idle and is 0."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted, source = (
        (bench["per_layer"], record["layers"]) if trace == "1"
        else (bench["end_to_end"], record["metrics"])
    )
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None and trace == "0":
            raise ValueError(f"the run reported no {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a whole number")

    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    dagscope, worker = build(target)
    data = target / "perfbench"
    program = program_hash(dagscope, worker)
    cell = prepare(worker, dagscope, data, args.workload, args.seed, args.scale, program)
    spans = data / f"spans-{args.workload}-{args.seed}.jsonl"
    out = run_group(
        [worker, "run", "--workload", args.workload, "--dir", cell,
         "--dagscope", dagscope, "--seconds", str(args.seconds),
         "--trace", args.trace, "--spans", spans],
        timeout=RUN_TIMEOUT_S,
        capture=True,
    )
    record = json.loads(out.strip().splitlines()[-1])
    record["metrics"] = select_metrics(record, args.trace)
    record["trace"] = int(args.trace)
    record["seconds"] = args.seconds
    record["program"] = program
    with open(data / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        log(f"check failed: {problem}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
