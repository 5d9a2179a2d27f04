"""Record the stdout digest of every digest-checked command in each format.

    python3 perfbench/record_digests.py

Run only at a commit whose output is known to be right: the benchmark
counts any later difference as a failed command.  Writes digests.json
beside this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import DIGESTS_PATH, digest_key, sha256
from run import COMMAND_LIMIT_S, TMP_ROOT, Launcher
from workloads import FORMATS, WORKLOADS


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    todo = [(cmd, fmt) for commands in WORKLOADS.values()
            for cmd in commands if cmd.check == "digest" for fmt in FORMATS]
    digests = {}
    try:
        with Launcher(scratch) as launcher:
            for cmd, fmt in todo:
                argv = list(cmd.args) + ["--format", fmt]
                out = launcher.run([sys.executable, "-m", "adjhier"] + argv,
                                   COMMAND_LIMIT_S)
                if out.code != 0:
                    raise SystemExit(f"{argv} exited {out.code}")
                digests[digest_key(cmd.args, fmt)] = sha256(out.stdout)
                print(f"{out.wall:7.3f} s  {' '.join(argv)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
