"""One set-up of a workload in a fresh process, for ``setup_s``.

Reads the workload's inputs as JSON on stdin, imports the library and
brings the workload to the point where its first operation could start,
then prints ``ready``.  It imports only the modules the workload's
operations call.  The parent times the span from spawning this
process to that line.  After it, untimed, the process prints the median of
three calibration tasks, so the parent can scale the set-up time to the
reference host.  Usage: ``python3 setup_child.py <workload>``.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload = sys.argv[1]
    inputs = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # exactly the modules the workload's operations call
    if workload == "plan":
        import repro.core.allocation  # noqa: F401
        import repro.core.bwfirst  # noqa: F401
        import repro.platform.serialization  # noqa: F401
        import repro.protocol.runner  # noqa: F401
        import repro.runtime.runtime  # noqa: F401
        import repro.schedule.eventdriven  # noqa: F401
        import repro.schedule.periods  # noqa: F401
        import repro.sim.simulator  # noqa: F401
    elif workload == "churn":
        from repro.core.allocation import from_bw_first
        from repro.core.incremental import IncrementalSolver
        from repro.platform.serialization import tree_from_dict

        solvers = []
        for name in sorted(inputs["tenants"]):
            solver = IncrementalSolver(tree_from_dict(inputs["tenants"][name]))
            solver.schedule_builder().build(from_bw_first(solver.solve()))
            solvers.append(solver)
    service = None
    try:
        if workload == "federation":
            from repro.federation.service import FederationService
            from repro.platform.serialization import tree_from_dict

            service = FederationService()
            for name in sorted(inputs["tenants"]):
                service.onboard(name, tree_from_dict(inputs["tenants"][name]))
        print("ready", flush=True)
        from workloads import calibration_ms
        print(statistics.median(calibration_ms() for _ in range(3)),
              flush=True)
    finally:
        if service is not None:
            service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
