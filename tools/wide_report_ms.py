#!/usr/bin/env python
"""In-process latency of the daemon's ``report`` on service-mix's wide
tenant, straight after a same-shape push.

Builds the wide tenant's two shards with
``perfbench/service_mix.make_tenants(1)``, pushes them into an
in-process :class:`~repro.service.AnalysisDaemon`, then repeats: push
the next shard (same shape, so the fold keeps the tenant's shape memo
and the cached engine re-weighs), time one ``report`` query through
``AnalysisDaemon._handle``.  The garbage collector is off while
timing; the minimum and median of the repeats are printed in ms.

Usage::

    PYTHONPATH=src python tools/wide_report_ms.py [--repeats N]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro.service import AnalysisDaemon, TenantRegistry  # noqa: E402

import service_mix  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    wide = next(tenant for tenant in service_mix.make_tenants(1)
                if tenant.name == "wide")
    daemon = AnalysisDaemon(TenantRegistry())
    query = {"type": "query", "tenant": wide.name, "kind": "report",
             "program": wide.program_spec, "top": 10}
    # Untimed: create the tenant, compile its program, build the engine.
    for _ in range(2):
        daemon._handle({"type": "push", "tenant": wide.name,
                        "shard": wide.next_shard()})
        assert daemon._handle(query)["type"] == "ok"
    walls = []
    gc.disable()
    try:
        for _ in range(args.repeats):
            daemon._handle({"type": "push", "tenant": wide.name,
                            "shard": wide.next_shard()})
            start = time.perf_counter()
            response = daemon._handle(query)
            walls.append((time.perf_counter() - start) * 1e3)
            assert response["type"] == "ok", response
    finally:
        gc.enable()
    print(f"wide report after a same-shape push: "
          f"min {min(walls):.2f} ms, median "
          f"{statistics.median(walls):.2f} ms over {len(walls)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
