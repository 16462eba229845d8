#!/usr/bin/env python3
"""Record the station's per-piece DAC digests.

    python3 perfbench/record_digests.py

Runs the station workload on successive seeds until every catalogue
piece has played on some channel, and writes
``perfbench/station_digests.json`` (piece -> SHA-256 of the non-silent
DAC bytes a channel carrying that piece emits).  Re-record only when a
change is meant to alter what listeners hear, and say so.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from measure import channel_digests  # noqa: E402
from workloads import (  # noqa: E402
    STATION_CATALOGUE, STATION_DIGESTS, station_build, station_inputs,
)


def main() -> int:
    digests = {}
    seed = 0
    while len(digests) < STATION_CATALOGUE:
        job = station_build(station_inputs(seed))
        job.system.run(until=job.horizon)
        for channel_id, digest in channel_digests(job).items():
            piece = job.pieces[channel_id]
            if digests.setdefault(str(piece), digest) != digest:
                print(f"piece {piece} plays differently on channel "
                      f"{channel_id} (seed {seed})", file=sys.stderr)
                return 1
        seed += 1
    STATION_DIGESTS.write_text(json.dumps(dict(sorted(digests.items(),
                                           key=lambda kv: int(kv[0]))),
                               indent=2) + "\n")
    print(f"recorded {len(digests)} pieces from seeds 0..{seed - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
