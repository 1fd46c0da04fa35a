#!/usr/bin/env python3
"""Runs `jobpath --smoke` (all five workloads of BENCHMARK.json at smoke size)
and watches it from outside, the way an operator would: the scratch
`events.jsonl` of every node it starts must stay empty and `GET /metrics` must
never show a sync of the `events` journal — a job waits for the job journal
alone. Prints the smoke's own output; exits non-zero when the smoke does, when
either shows up, or when it never got to look.

    scripts/jobpath_smoke.py            (from anywhere; Linux, needs /proc)
"""
import glob
import os
import re
import subprocess
import sys
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "bench", "jobpath", "Cargo.toml")
BINARY = os.path.join(REPO, "bench", "jobpath", "target", "release", "jobpath")
SYNCS = re.compile(r'^mc_journal_fsync_seconds_count\{journal="(\w+)"\} (\d+)', re.M)


def listening_ports(pid):
    """Loopback ports `pid` listens on: its socket inodes, looked up in tcp."""
    inodes = set()
    for fd in glob.glob(f"/proc/{pid}/fd/*"):
        try:
            link = os.readlink(fd)
        except OSError:
            continue
        if link.startswith("socket:["):
            inodes.add(link[8:-1])
    ports = []
    with open(f"/proc/{pid}/net/tcp") as tcp:
        for line in list(tcp)[1:]:
            field = line.split()
            if field[3] == "0A" and field[9] in inodes:
                ports.append(int(field[1].rsplit(":", 1)[1], 16))
    return ports


def main():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
    )
    smoke = subprocess.Popen([BINARY, "--smoke"], stdout=subprocess.PIPE, text=True)
    scratch = os.path.join(REPO, "bench", "out", f"scratch-{smoke.pid}")
    seen = {"events_bytes": 0, "events": 0, "jobs": 0, "scrapes": 0}
    while smoke.poll() is None:
        for path in glob.glob(os.path.join(scratch, "**", "events.jsonl"), recursive=True):
            try:
                seen["events_bytes"] = max(seen["events_bytes"], os.path.getsize(path))
            except OSError:
                pass  # the node's directory went with it
        try:
            for port in listening_ports(smoke.pid):
                url = f"http://127.0.0.1:{port}/metrics"
                text = urllib.request.urlopen(url, timeout=1).read().decode()
                seen["scrapes"] += 1
                for journal, count in SYNCS.findall(text):
                    seen[journal] = max(seen.get(journal, 0), int(count))
        except (OSError, ValueError):
            pass  # between two nodes
        time.sleep(0.02)
    sys.stdout.write(smoke.stdout.read())
    print(
        f"one log: {seen['scrapes']} scrapes of /metrics, job-journal syncs {seen['jobs']}, "
        f"events-journal syncs {seen['events']}, events.jsonl at most {seen['events_bytes']} bytes"
    )
    if smoke.returncode != 0:
        sys.exit(f"jobpath --smoke exited {smoke.returncode}")
    if seen["jobs"] == 0:
        sys.exit("never saw a job-journal sync on /metrics: the watch proved nothing")
    if seen["events"] or seen["events_bytes"]:
        sys.exit("a job touched the events journal: job.* events ride the job journal's sync")


if __name__ == "__main__":
    main()
