"""Pipeline benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload grid240 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Setup generates the workload's inputs from
the seed (at least three times; the median is `setup_s`).  Each timed command of the
workload's chain then runs the real CLI (`python -m genderedlang.cli`) in a
fresh child process, one at a time, against `src/`.  With `--trace 0` the
chain repeats while another run fits in `--seconds` (at least once) and the
end-to-end metrics are printed; with `--trace 1` the chain runs once
untraced and once with every public call of the package wrapped in spans,
and the per-layer metrics are printed.  Every run checks the outputs and
compares their sha256 digests with those recorded in `digests.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs every
workload in turn, each ending with its own JSON line.  Work files go to
`.perfbench_work/` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
# BLAS runs on one thread, in setup and in every child.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
COMMAND_TIMEOUT_S = 150.0


@dataclass
class Command:
    stage: str
    argv: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None


@dataclass
class Chain:
    out: Path
    commands: list[Command]
    wall_s: float = 0.0
    checks: list = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)

    def stage_s(self, stage: str) -> float:
        return sum(c.wall_s for c in self.commands if c.stage == stage)

    @property
    def attempted(self) -> int:
        return sum(c.code is not None for c in self.commands)

    @property
    def failures(self) -> int:
        """Commands that exited non-zero plus output checks that failed."""
        return (sum(c.code not in (None, 0) for c in self.commands)
                + sum(not c.ok for c in self.checks))


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, CPU s, peak RSS in MB, exit code)."""
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # reaps the child; gives its own rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_chain(workload, inputs, out: Path, logs: Path, spans: Path | None) -> Chain:
    """Run the workload's commands one after another; traced when `spans` is a directory."""
    from workloads import digests

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs.mkdir(parents=True, exist_ok=True)
    chain = Chain(out, [Command(stage, argv) for stage, argv in workload.commands(inputs, out)])
    start = time.perf_counter()
    for i, cmd in enumerate(chain.commands):
        if spans is None:
            argv = [sys.executable, "-m", "genderedlang.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "cli",
                    "--spans", str(spans / f"{i}.json"), "--run-id", f"{out.name}.{i}",
                    "--", *cmd.argv]
        cmd.wall_s, cmd.cpu_s, cmd.rss_mb, cmd.code = run_process(argv, logs / f"{i}.log")
        if cmd.code != 0:
            tail = (logs / f"{i}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"command failed with exit {cmd.code}: {' '.join(cmd.argv)}\n{tail}")
            break
    chain.wall_s = time.perf_counter() - start
    if all(c.code == 0 for c in chain.commands):
        try:
            chain.checks = workload.checks(inputs, out)
            chain.quality = workload.quality(inputs, out)
        except (OSError, KeyError, IndexError, ValueError) as err:
            from workloads import Check
            chain.checks.append(Check(f"{workload.name}.outputs_readable", False, repr(err)))
        chain.digests = digests(out)
    return chain


def timed_chains(workload, inputs, work: Path, seconds: float) -> list[Chain]:
    """Run the chain untraced, again while another run fits in `seconds` (at least once)."""
    chains: list[Chain] = []
    measured = 0.0
    while True:
        i = len(chains)
        chains.append(run_chain(workload, inputs, work / f"run{i}", work / f"logs{i}", None))
        measured += chains[-1].wall_s
        if measured + measured / len(chains) > seconds or chains[-1].failures:
            return chains


def traced_chains(workload, inputs, work: Path) -> tuple[list[Chain], Path | None]:
    """One untraced and one traced chain, then the model micro-benchmark.

    Returns both chains and the micro-benchmark samples file (None if it failed).
    """
    from workloads import Check

    spans = work / "spans"
    spans.mkdir(parents=True)
    untraced = run_chain(workload, inputs, work / "untraced", work / "logs0", None)
    traced = run_chain(workload, inputs, work / "traced", work / "logs1", spans)
    traced.checks.append(Check("trace.outputs_identical", untraced.digests == traced.digests,
                               "traced and untraced chains wrote byte-identical outputs"))
    micro = work / "micro.json"
    argv = [sys.executable, str(HERE / "child.py"), "micro",
            "--corpus", str(workload.micro_corpus(inputs, traced.out)), "--out", str(micro)]
    checkpoint = workload.micro_checkpoint(inputs, traced.out)
    if checkpoint is not None:
        argv += ["--checkpoint", str(checkpoint)]
    if "sentiment" in inputs.files:
        argv += ["--sentiment-lexicon", str(inputs.files["sentiment"])]
    log = work / "micro.log"
    if all(c.code == 0 for c in traced.commands) and run_process(argv, log)[-1] == 0:
        return [untraced, traced], micro
    detail = log.read_text(encoding="utf-8", errors="replace")[-2000:] if log.exists() else ""
    traced.checks.append(Check("trace.micro", False, f"model micro-benchmark failed {detail}"))
    return [untraced, traced], None


def setup(workload, seed: int, work: Path):
    """Set the workload up repeatedly; keep the first, return (inputs, times, spans).

    At least SETUP_MIN_REPEATS setups, more while they take under
    SETUP_BUDGET_S in total, so a sub-second setup gets a steadier median.
    """
    from tracer import Tracer

    tracer = Tracer("setup")
    times, inputs = [], None
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_BUDGET_S
                                             and len(times) < SETUP_MAX_REPEATS):
        target = work / f"setup{len(times)}"
        start = time.perf_counter()
        made = workload.setup(seed, target, tracer)
        times.append(time.perf_counter() - start)
        if inputs is None:
            inputs = made
        else:
            shutil.rmtree(target)
    return inputs, times, tracer.spans


def stamp(inputs) -> str:
    import numpy

    shape = " ".join(f"{k}={v}" for k, v in inputs.shape.items())
    return (f"stamp nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads={BLAS_ENV['OMP_NUM_THREADS']} {shape}")


def report_digests(workload: str, seed: int, got: dict[str, str], record: bool) -> None:
    book = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    want = book.get(workload, {}).get(str(seed))
    if record:
        book.setdefault(workload, {})[str(seed)] = got
        DIGESTS.write_text(json.dumps(book, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"digests recorded: {len(got)} files for {workload} seed {seed}")
    elif want is None:
        print(f"digests unrecorded: no entry for {workload} seed {seed}")
    else:
        moved = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
        print(f"digests {'match' if not moved else 'MOVED'}: "
              f"{len(got) - len(moved)}/{len(set(want) | set(got))} files unchanged")
        for name in moved:
            print(f"  moved {name}: recorded {want.get(name)} now {got.get(name)}")


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


def run_workload(workload, seed: int, seconds: float, trace: int, record: bool) -> None:
    """Set up, run, check and report one workload; the last line printed is its JSON result."""
    from metrics import end_to_end, per_layer

    work = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_times, setup_spans = setup(workload, seed, work)
        print(stamp(inputs))
        print(f"workload {workload.name} seed {seed}: {workload.why}")
        micro = None
        if trace == 0:
            chains = timed_chains(workload, inputs, work, seconds)
        else:
            chains, micro = traced_chains(workload, inputs, work)

        attempted = sum(c.attempted for c in chains)
        failed = min(attempted, sum(c.failures for c in chains))
        for chain in chains:
            for check in chain.checks:
                print(f"check {chain.out.name} {'ok' if check.ok else 'FAILED'} "
                      f"{check.name}: {check.detail}")
        report_digests(workload.name, seed, chains[0].digests, record)
        for chain in chains:
            print(f"chain {chain.out.name}: wall {chain.wall_s:.3f} s, CPU "
                  f"{sum(c.cpu_s for c in chain.commands):.3f} s, peak RSS "
                  f"{chain.peak_rss_mb:.1f} MB, " + ", ".join(
                      f"{s} {chain.stage_s(s):.3f} s" for s in ("ingest", "train", "report")))
            for name, value in chain.quality.items():
                print(f"quality {chain.out.name} {name} = {value!r}")
        print(f"metric error_rate = {failed / attempted:.6g} (failed/attempted = "
              f"{failed}/{attempted})")
        if trace == 0:
            metrics = end_to_end(chains, setup_times)
        else:
            metrics = per_layer(chains, setup_spans, work / "spans", micro)
        print_metrics(metrics)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {name: {"value": float(value), "unit": unit}
                                      for name, (value, unit) in metrics.items()}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in digests.json")
    args = parser.parse_args()

    if not (SRC / "genderedlang" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'genderedlang'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running child is killed and reaped and work files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_ENV)  # before numpy loads
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    for name in names:
        run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, args.record_digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
