"""Run `memo-experiments all` and check its exit code, peak memory and bytes.

Usage: python3 .github/scripts/check_all.py OUTPUT_DIR BOUND_MB

`all` must exit 0: all 20 artifacts pass, which includes every scorecard
claim holding. The child's peak RSS (`ru_maxrss` of RUSAGE_CHILDREN; GNU
`time` may be missing) must not exceed BOUND_MB. Everything `all` prints
before its `sweep fusion:` accounting line must equal OUTPUT_DIR/<word>.txt
concatenated in `--help` word order. The scale and worker count come from
the environment (MEMO_SCALE, MEMO_JOBS), as for any run of the binary.
"""

import difflib
import pathlib
import resource
import subprocess
import sys
import time

BIN = "./target/release/memo-experiments"

outputs, bound_mb = pathlib.Path(sys.argv[1]), float(sys.argv[2])
start = time.monotonic()
run = subprocess.run([BIN, "all"], stdout=subprocess.PIPE)
wall = time.monotonic() - start
sys.stdout.buffer.write(run.stdout)
sys.stdout.flush()
code = run.returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"memo-experiments all: exit {code}, {wall:.1f} s, "
      f"peak RSS {peak_mb:.0f} MB (bound {bound_mb:.0f} MB)")
failed = False
if code != 0:
    print(f"FAIL: memo-experiments all exited {code}")
    failed = True
if peak_mb > bound_mb:
    print(f"FAIL: peak RSS {peak_mb:.0f} MB > {bound_mb:.0f} MB")
    failed = True

help_text = subprocess.run([BIN, "--help"], stdout=subprocess.PIPE, check=True).stdout
section = help_text.decode().split("Words:\n", 1)[1].split("\n\n", 1)[0]
words = [line.split()[0] for line in section.splitlines()]
words = [w for w in words if w not in ("all", "sweep")]
expected = b"".join((outputs / f"{w}.txt").read_bytes() for w in words)
renders, marker, _ = run.stdout.rpartition(b"\nsweep fusion:")
if not marker:
    print("FAIL: no `sweep fusion:` line in the output of memo-experiments all")
    failed = True
elif renders != expected:
    print(f"FAIL: the renders of `all` ({len(renders)} bytes) differ from "
          f"{outputs} ({len(expected)} bytes, {len(words)} words):")
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode().splitlines(True), renders.decode().splitlines(True),
        str(outputs), "memo-experiments all"))
    failed = True
else:
    print(f"the renders of `all` equal {outputs} ({len(words)} words, {len(renders)} bytes)")
sys.exit(1 if failed else 0)
