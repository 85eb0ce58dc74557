"""Run COMMAND, print its peak RSS, and fail if that is over MAX_MB.

Usage: python3 ci/peak_rss.py MAX_MB COMMAND...

The command's stdout is discarded; its stderr and exit code come through.
"""
import resource
import subprocess
import sys

max_mb, command = int(sys.argv[1]), sys.argv[2:]
subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"peak RSS {peak_mb:.0f} MB")
sys.exit(f"peak RSS {peak_mb:.0f} MB is over {max_mb} MB" if peak_mb > max_mb else 0)
