"""adjhier benchmark: one workload, end to end or as a traced replay.

    python3 perfbench/run.py --workload plain-deep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs as a closed loop with one client:
one fresh ``python -m adjhier ...`` child at a time, each command's
output checked.  Passes over the workload repeat until ``--seconds``
would be exceeded, and each command's median over the passes feeds the
end-to-end metrics.  ``setup_s`` is the median start-up time of a fresh
interpreter importing ``adjhier.cli``.

With ``--trace 1`` the same commands run in this process through
``adjhier.cli.main``, once untraced and once with spans recorded around
every call into adjhier's modules (see tracing.py); the per-layer
metrics are medians over the traced replays.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import OutputChecker
from tracing import (COUNTERS, ROOT, SPAN_NAMES, Patched, Tracer,
                     self_metric, write_spans)
from workloads import WORKLOADS, Planner, Step

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
TMP_ROOT = CHECKOUT / ".perfbench_tmp"
SPANS_DIR = CHECKOUT / ".perfbench_out"

# a command past this is killed and counted failed; today's slowest
# command takes about 5 s
COMMAND_LIMIT_S = 30.0
# no command starts after this, so a run ends well within 180 s
RUN_LIMIT_S = 140.0


@dataclass
class Outcome:
    code: int | None  # None: killed at the time limit
    stdout: bytes
    wall: float
    cpu: float = 0.0
    rss_kb: int = 0


@dataclass
class Record:
    step: Step
    outcome: Outcome | None  # None: not started, no time was left
    failure: str | None
    cache_bytes: int = 0     # cold runs: size of the cache file written
    hit: bool = False        # warm runs: cache file left untouched


def _file_state(path: Path):
    try:
        data = path.read_bytes()
        return hashlib.sha256(data).hexdigest(), path.stat().st_mtime_ns, len(data)
    except FileNotFoundError:
        return None


def run_pass(steps, execute, cache_dir: Path, checker: OutputChecker,
             deadline: float) -> list:
    """Run one pass's steps in order, checking outputs and cache files."""
    cache_dir.mkdir()
    cold = {}
    records = []
    for step in steps:
        limit = min(COMMAND_LIMIT_S, deadline - perf_counter())
        if limit <= 0:
            records.append(Record(step, None, "not started: run time limit"))
            continue
        out = execute(step.argv(cache_dir), limit)
        if out.code is None:
            failure = f"killed after {limit:.0f} s"
        else:
            failure = checker.check(step, out.code, out.stdout)
        record = Record(step, out, failure)
        state = _file_state(cache_dir / step.cache_name) if step.phase else None
        if step.phase == "cold":
            if state is None and record.failure is None:
                record.failure = "cold run wrote no cache file"
            record.cache_bytes = state[2] if state else 0
            cold[step.cache_name] = (out.stdout, state)
        elif step.phase == "warm":
            cold_stdout, cold_state = cold[step.cache_name]
            record.hit = cold_state is not None and state == cold_state
            if record.failure is None and out.stdout != cold_stdout:
                record.failure = "warm stdout differs from the cold run"
        records.append(record)
    shutil.rmtree(cache_dir)
    return records


# -- end to end: fresh child processes ----------------------------------------

class Launcher:
    """Client of spawner.py, which runs each child and measures it."""

    def __init__(self, scratch: Path):
        self.stdout_path = scratch / "stdout"
        # bytecode writing stays on, so the first child fills the cache
        # that every later one starts from, as an installed program does
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(env, PYTHONPATH=str(SRC)), cwd=CHECKOUT)

    def run(self, argv, limit: float) -> Outcome:
        """Run one child to completion or kill it at ``limit`` seconds."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "stdout": str(self.stdout_path),
            "limit": limit}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"error: spawner.py exited {self.proc.wait()}")
        r = json.loads(reply)
        return Outcome(r["code"], self.stdout_path.read_bytes(), r["wall"],
                       r["cpu"], r["rss_kb"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return False


def setup_sample(launcher: Launcher) -> float:
    """Start-up time of a fresh interpreter that imports adjhier.cli."""
    out = launcher.run([sys.executable, "-c", "import adjhier.cli"],
                       COMMAND_LIMIT_S)
    if out.code != 0:
        raise SystemExit(f"error: `import adjhier.cli` exited {out.code}")
    return out.wall


def end_to_end(workload: str, seed: int, seconds: float, scratch: Path):
    with Launcher(scratch) as launcher:
        return _end_to_end(workload, seed, seconds, scratch, launcher)


def _end_to_end(workload, seed, seconds, scratch, launcher):
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setup_sample(launcher)  # compiles bytecode and warms the file cache
    checker, planner = OutputChecker(), Planner(workload, seed)
    setup = []

    def execute(argv, limit):
        # start-up speed drifts over seconds on a shared machine, so its
        # samples are spread over the run, one before every command
        setup.append(setup_sample(launcher))
        return launcher.run([sys.executable, "-m", "adjhier"] + argv, limit)

    records = []
    t0 = perf_counter()
    while True:
        p0 = perf_counter()
        records += run_pass(planner.next_pass(), execute,
                            scratch / f"pass{planner.passes}", checker,
                            deadline)
        now = perf_counter()
        if now - t0 + (now - p0) > seconds or now + (now - p0) > deadline:
            break

    by_label = defaultdict(list)
    for r in records:
        if r.outcome is not None:
            by_label[r.step.label].append(r.outcome)
    med = {label: (statistics.median(o.wall for o in outs),
                   statistics.median(o.cpu for o in outs),
                   statistics.median(o.rss_kb for o in outs) / 1024)
           for label, outs in by_label.items()}
    metrics = {
        "wall_s": (sum(m[0] for m in med.values()), "s"),
        "slowest_cmd_s": (max(m[0] for m in med.values()), "s"),
        "cpu_s": (sum(m[1] for m in med.values()), "s"),
        # every format ran in three passes, so the highest is format-free
        "peak_rss_mb": (max(o.rss_kb for outs in by_label.values()
                            for o in outs) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }

    print(f"workload {workload}, seed {seed}: {planner.passes} passes, "
          f"one client, fresh process per command")
    for label, (wall, cpu, rss) in med.items():
        walls = sorted(o.wall for o in by_label[label])
        print(f"  {wall:8.3f} s wall  {cpu:8.3f} s cpu  {rss:7.1f} MB  "
              f"n={len(walls)} range {walls[0]:.3f}-{walls[-1]:.3f} s  {label}")
    warm = [r for r in records if r.step.phase == "warm"]
    if warm:
        print(f"  cache hits {sum(r.hit for r in warm)}/{len(warm)} warm runs")
    print(f"  setup_s samples n={len(setup)} "
          f"range {min(setup):.4f}-{max(setup):.4f} s")
    return records, metrics


# -- traced in-process replay -------------------------------------------------

class CommandTimeout(BaseException):
    """Raised in the replayed command when it passes its time limit."""


@contextlib.contextmanager
def alarm(seconds: float):
    def expire(signum, frame):
        raise CommandTimeout()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def in_process(main):
    def execute(argv, limit):
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), alarm(limit):
                code = main(argv)
        except CommandTimeout:
            code = None
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback in a child exits 1
            print(f"  command {argv} raised {exc!r}")
            code = 1
        wall = perf_counter() - start
        return Outcome(code, out.getvalue().encode(), wall)
    return execute


def traced(workload: str, seed: int, seconds: float, scratch: Path):
    sys.path.insert(0, str(SRC))
    import adjhier.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported adjhier from {cli.__file__}")
    checker, planner, tracer = OutputChecker(), Planner(workload, seed), Tracer()
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    records, rounds = [], []

    def replay(steps, execute, name):
        t0 = perf_counter()
        recs = run_pass(steps, execute, scratch / name, checker, deadline)
        return perf_counter() - t0, recs

    while True:
        r0 = perf_counter()
        steps = planner.next_pass()
        tracer.replay += 1
        tracer.counters.clear()
        runs = [("plain", in_process(cli.main), contextlib.nullcontext),
                ("traced", in_process(tracer.wrap_span(ROOT, cli.main)),
                 lambda: Patched(tracer))]
        if tracer.replay % 2:  # alternate which replay goes first
            runs.reverse()
        walls, recs = {}, {}
        for name, execute, patch in runs:
            with patch():
                walls[name], recs[name] = replay(
                    steps, execute, f"{name}{tracer.replay}")
        records += recs["traced"] + recs["plain"]
        rounds.append(layer_values(tracer, walls["traced"], walls["plain"],
                                   recs["traced"]))
        now = perf_counter()
        if now - start + (now - r0) > seconds or now + (now - r0) > deadline:
            break

    metrics = {name: (statistics.median(r[name][0] for r in rounds),
                      rounds[0][name][1]) for name in rounds[0]}
    write_spans(SPANS_DIR / f"spans-{workload}.json.gz", tracer,
                {"workload": workload, "seed": seed})
    print(f"workload {workload}, seed {seed}: {len(rounds)} traced and "
          f"{len(rounds)} untraced in-process replays")
    return records, metrics


def layer_values(tracer: Tracer, traced_wall: float, plain_wall: float,
                 recs: list) -> dict:
    """Per-layer metrics of the latest traced replay."""
    selfs = tracer.self_times(tracer.replay)
    values = {self_metric(name): (selfs.get(name, 0.0), "s")
              for name in SPAN_NAMES}
    for name, unit in COUNTERS.items():
        values[name] = (tracer.counters.get(name, 0), unit)
    calls = tracer.counters.get("hfs.adjoin_calls", 0)
    values["hfs.new_node_ratio"] = (
        tracer.counters.get("hfs.nodes_interned", 0) / calls if calls else 0.0,
        "ratio")
    warm = [r for r in recs if r.step.phase == "warm"]
    values["cache.bytes"] = (sum(r.cache_bytes for r in recs), "bytes")
    values["cache.hit_ratio"] = (
        sum(r.hit for r in warm) / len(warm) if warm else 0.0, "ratio")
    values["cli.out_bytes"] = (
        sum(len(r.outcome.stdout) for r in recs if r.outcome), "bytes")
    values["trace.replay_s"] = (plain_wall, "s")
    values["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    values["trace.self_sum_ratio"] = (sum(selfs.values()) / traced_wall,
                                      "ratio")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adjhier" / "cli.py").is_file():
        print(f"error: no adjhier sources under {SRC}", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        run = traced if args.trace else end_to_end
        records, metrics = run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(r.failure is not None for r in records)
    for r in records:
        if r.failure:
            print(f"  FAILED {r.step.label} --format {r.step.fmt}: {r.failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / len(records):.4f} failed/attempted "
          f"({failed}/{len(records)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
