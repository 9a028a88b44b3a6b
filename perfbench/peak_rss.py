"""Run `canxlnet simulate` in this process, then print its peak resident
memory in KiB as the last line of standard output.

    python3 perfbench/peak_rss.py CONFIG --trace PATH --report PATH

The peak is `VmHWM` of /proc/self/status: the high-water mark of this
program's own memory.  `getrusage` would not do: a child started with
fork or vfork inherits the parent's high-water mark across exec, so it
would report the benchmark process rather than the simulation.
"""

from __future__ import annotations

import sys

from canxlnet import cli


def vm_hwm_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    rc = cli.main(["simulate", *sys.argv[1:]])
    print(vm_hwm_kib())
    sys.exit(rc)
