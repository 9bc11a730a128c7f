"""Record ``reference.json`` from the pure event path (``superstep=False``).

The benchmark checks every timed engine run against these digests,
message counts and makespans.  They come from the engine with every
closed form switched off, never from the fast path being checked.  Run
from the repository root (takes about two minutes on a 2-CPU host):

    python3 perfbench/record_reference.py

Only the shapes of the inputs matter: zero matrices give the same
digests as the seeded ones, since timing and counters never read values.
"""

from __future__ import annotations

import json
import sys

from child import import_repro


def main() -> int:
    import_repro()
    import numpy as np

    from repro.algorithms import get_algorithm
    from repro.sim import MachineConfig, PortModel
    from workloads import REFERENCE_PATH, T_S, T_W

    def event_path(key, n, p, port, t_c, timing_only):
        Z = np.zeros((n, n))
        config = MachineConfig.create(
            p, t_s=T_S, t_w=T_W, t_c=t_c, port_model=port
        )
        run = get_algorithm(key).run(
            Z, Z, config, superstep=False, timing_only=timing_only
        )
        result = run.result
        return {
            "digest": result.trace_digest(),
            "messages": result.total_messages(),
            "makespan": result.total_time,
        }

    reference = {
        "cannon_oneport_p4096": event_path(
            "cannon", 128, 4096, PortModel.ONE_PORT, 0.5, False
        ),
        "3d_all_multiport_p4096": event_path(
            "3d_all", 256, 4096, PortModel.MULTI_PORT, 0.5, False
        ),
        # The region-map cell runs its only candidate timing-only at
        # t_c = 0 (see repro.analysis.regions._sim_row), so that candidate
        # is the winner.
        "3dd_regionmap_p32768": dict(
            event_path("3dd", 512, 2 ** 15, PortModel.ONE_PORT, 0.0, True),
            winner="3dd",
        ),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
