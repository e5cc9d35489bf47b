#!/usr/bin/env python3
"""CLI-level regression for the sharded detector surface.

Drives the built binaries end to end:

  1. --shards argument validation: zero, negative, non-numeric, and missing
     values must exit 2 with the pinned "bad --shards" diagnostic and must
     not start streaming;
  2. trace_tool shard: partitions a trace into per-shard files by the same
     consistent hash the detector uses, conserving every flow (the printed
     "N flows in, N flows out" accounting is parsed and cross-checked
     against the produced files), and rejects a bad --shards the same way;
  3. --shards 1 is the default: its full stdout must equal the flag-absent
     run's byte for byte;
  4. exactness at the CLI: --shards 4 stdout must equal --shards 1 byte for
     byte apart from the banner line (which names the shard count).

Run by ctest as CliShardTest; paths to the binaries arrive as flags.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=240, **kwargs
    )


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--campus-monitor", required=True, type=Path)
    parser.add_argument("--trace-tool", required=True, type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="tp_cli_shard_") as tmp:
        tmp = Path(tmp)
        trace = tmp / "trace.csv"
        r = run([args.trace_tool, "generate", trace, "1", "1800"])
        check(r.returncode == 0, f"trace_tool generate failed: {r.stderr}")

        # 1. Argument validation: the detector must never start on a bad N.
        for bad in ["0", "-3", "abc", "4x"]:
            r = run([args.campus_monitor, "--stream", trace, "--shards", bad])
            check(r.returncode == 2, f"--shards {bad}: expected rc 2, got {r.returncode}")
            check("bad --shards" in r.stderr, f"--shards {bad}: missing diagnostic: {r.stderr}")
            check("streaming" not in r.stdout, f"--shards {bad}: streaming started anyway")
        r = run([args.campus_monitor, "--stream", trace, "--shards"])
        check(r.returncode == 2, f"trailing --shards: expected rc 2, got {r.returncode}")

        # 2. trace_tool shard: conservation of flows across the partition.
        out = tmp / "part.csv"
        r = run([args.trace_tool, "shard", trace, out, "--shards", "4"])
        check(r.returncode == 0, f"trace_tool shard failed: {r.stderr}\n{r.stdout}")
        m = re.search(r"(\d+) flows in, (\d+) flows out across (\d+) shard file", r.stdout)
        check(m, f"missing accounting line in: {r.stdout}")
        check(m.group(1) == m.group(2), f"flows not conserved: {m.group(1)} != {m.group(2)}")
        check(m.group(3) == "4", f"expected 4 shard files, got {m.group(3)}")
        shard_files = sorted(tmp.glob("part.shard*.csv"))
        check(len(shard_files) == 4, f"expected 4 shard files on disk, got {shard_files}")
        for bad in ["0", "-1", "many"]:
            r = run([args.trace_tool, "shard", trace, out, "--shards", bad])
            check(r.returncode == 2, f"shard --shards {bad}: expected rc 2, got {r.returncode}")
            check("bad --shards" in r.stderr, f"shard --shards {bad}: missing diagnostic")

        # 3. Flag absent == --shards 1, byte for byte.
        absent = run([args.campus_monitor, "--stream", trace, "1800"])
        check(absent.returncode == 0, f"flag-absent stream failed: {absent.stderr}")
        one = run([args.campus_monitor, "--stream", trace, "1800", "--shards", "1"])
        check(one.returncode == 0, f"--shards 1 stream failed: {one.stderr}")
        check(
            one.stdout == absent.stdout,
            "--shards 1 output differs from the flag-absent run:\n"
            f"--- absent ---\n{absent.stdout}\n--- shards 1 ---\n{one.stdout}",
        )

        # 4. --shards 4 == --shards 1 apart from the banner line.
        four = run([args.campus_monitor, "--stream", trace, "1800", "--shards", "4"])
        check(four.returncode == 0, f"--shards 4 stream failed: {four.stderr}")
        four_lines = four.stdout.splitlines()
        one_lines = one.stdout.splitlines()
        check(four_lines and "4 worker shards" in four_lines[0],
              f"missing shard banner: {four.stdout}")
        check(any(l.startswith("=== window") for l in one_lines),
              f"no window reports: {one.stdout}")
        check(
            four_lines[1:] == one_lines[1:],
            "--shards 4 output differs from --shards 1:\n"
            f"--- shards 1 ---\n{one.stdout}\n--- shards 4 ---\n{four.stdout}",
        )

    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
