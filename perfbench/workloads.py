"""The benchmark's workloads and the seeded plan of each pass over them.

Sizes are fixed on purpose.  The seed picks only each command's output
format and the order of independent commands: cost depends on the depth
and on the bound function by orders of magnitude (a bound one level above
log2 takes 200 s at n = 65551 against 0.8 s for log2, and a shifted log2
bound file takes the depth-17 oracle from 0.01 s to over its size cap),
so seeded sizes or bounds would measure the seed, not the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "csv", "plain")


@dataclass(frozen=True)
class Command:
    """One CLI invocation without its --format and --cache arguments.

    ``check`` names the output check: ``digest`` compares stdout with the
    digest recorded for the format, ``constant`` checks the printed value
    by value, ``exit0`` only requires a clean exit.  A ``cached`` command
    runs cold and then warm against one fresh cache file.
    """

    args: tuple
    check: str
    cached: bool = False

    @property
    def text(self) -> str:
        return " ".join(self.args)


WORKLOADS = {
    # big-integer fill and rendering of values with 1e5-1e6 digits, a
    # cache of few huge cells, and the certified constant; no oracle code
    "plain-deep": (
        Command(("levels", "--n", "22"), "digest"),
        Command(("table", "--n", "20"), "digest", cached=True),
        Command(("rank-profile", "--n", "18"), "digest"),
        Command(("card-profile", "--n", "18"), "digest"),
        Command(("constant", "--digits", "1000", "--n", "19"), "constant"),
    ),
    # the sparse bounded fill and binomial_big, and a cache of 65 k small
    # cells whose load is JSON and dict work rather than bigint parsing
    "bounded-sparse": (
        Command(("bounded", "--f", "sqrt", "--n", "1100",
                 "--skip-duplicates"), "digest"),
        Command(("bounded", "--f", "log2", "--n", "262143",
                 "--skip-duplicates"), "digest"),
        Command(("bounded", "--f", "log2", "--n", "65551"), "digest",
                cached=True),
        Command(("minbounded", "--n", "2000"), "digest", cached=True),
    ),
    # hfs interning and oracle bitset walks; the recurrences only run at
    # depth <= 27, so kernel, render and cache changes leave it unchanged
    "oracle-verify": (
        Command(("oracle-verify", "--variant", "plain", "--n", "5"), "exit0"),
        Command(("oracle-verify", "--variant", "atoms", "--u", "2",
                 "--n", "4"), "exit0"),
        Command(("oracle-verify", "--variant", "atoms", "--u", "1",
                 "--n", "4"), "exit0"),
        Command(("oracle-verify", "--variant", "bounded", "--f", "half",
                 "--n", "9"), "exit0"),
        Command(("oracle-verify", "--variant", "bounded", "--f", "sqrt",
                 "--n", "27"), "exit0"),
        Command(("oracle-verify", "--variant", "bounded", "--f", "log2",
                 "--n", "17"), "exit0"),
        Command(("oracle-verify", "--variant", "minbounded", "--n", "5"),
                "exit0"),
    ),
}


@dataclass(frozen=True)
class Step:
    """One command of a pass, with its format and cache phase."""

    command: Command
    fmt: str
    phase: str = ""  # "", "cold" or "warm"
    cache_name: str = ""

    @property
    def label(self) -> str:
        return self.command.text + (f" [{self.phase}]" if self.phase else "")

    def argv(self, cache_dir) -> list:
        argv = list(self.command.args) + ["--format", self.fmt]
        if self.cache_name:
            argv += ["--cache", str(cache_dir / self.cache_name)]
        return argv


class Planner:
    """Seeded pass plans for one workload.

    Each command gets a seeded offset into a rotation through the
    formats, so any three consecutive passes run every command once in
    each format, and the format mix, whose render and emit cost differs
    by up to a fifth on some commands, barely varies with the seed.  The
    order of commands is shuffled anew for every pass; a cold run always
    directly precedes its warm run.
    """

    def __init__(self, workload: str, seed: int):
        self.commands = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.offsets = [self.rng.randrange(len(FORMATS))
                        for _ in self.commands]
        self.passes = 0

    def next_pass(self) -> list:
        order = list(range(len(self.commands)))
        self.rng.shuffle(order)
        steps = []
        for i in order:
            cmd = self.commands[i]
            fmt = FORMATS[(self.offsets[i] + self.passes) % len(FORMATS)]
            if cmd.cached:
                name = f"cache-{i}.json"
                steps += [Step(cmd, fmt, "cold", name),
                          Step(cmd, fmt, "warm", name)]
            else:
                steps.append(Step(cmd, fmt))
        self.passes += 1
        return steps
