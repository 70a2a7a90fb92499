"""Simulation-as-a-service demo: submit, resubmit, and query campaigns.

Submits the Figure 9 sweep as a campaign through the service scheduler,
shows that a second submission is served entirely from the persistent
store (zero jobs recomputed), and prints the store statistics.  The same
campaigns can be driven from the command line::

    python -m repro.service submit fig09 --workloads db2 --accesses 40000
    python -m repro.service status
    python -m repro.service serve          # then POST /campaigns over HTTP

Run with:  python examples/service_campaign.py [store.sqlite]
"""

import sys
import tempfile
from pathlib import Path

from repro.service import Service
from repro.service.presets import campaign, preset_names

TARGET_ACCESSES = 40_000


def main() -> None:
    store_path = Path(
        sys.argv[1] if len(sys.argv) > 1
        else Path(tempfile.mkdtemp(prefix="repro-service-")) / "store.sqlite"
    )
    print(f"store: {store_path}")
    print(f"presets: {', '.join(preset_names())}\n")

    spec = campaign("fig09", workloads=("db2", "em3d"), target_accesses=TARGET_ACCESSES)
    with Service(store_path=store_path) as service:
        run = service.submit(spec, wait=True)
        print(f"first submission:  computed {run.computed}, cached {run.cached}")
        rerun = service.submit(spec, wait=True)
        print(f"second submission: computed {rerun.computed}, cached {rerun.cached}\n")
        print(service.render(rerun))
        print(f"\nstore stats: {service.store.stats()}")


if __name__ == "__main__":
    main()
