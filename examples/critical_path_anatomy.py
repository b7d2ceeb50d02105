"""Critical-path anatomy: what actually limits a workload's parallelism.

Builds the explicit DDG for a slice of each workload and reports what the
longest dependence chain is made of — operation classes, dependence kinds
(true/raw vs storage/war vs firewalls), and the hottest source statements.
This is the paper's analysis methodology turned into a profiling tool: the
answer tells you whether renaming, a bigger window, or an algorithm change
would help.

Run:  python examples/critical_path_anatomy.py [workload] [instructions]
"""

import sys

from repro import AnalysisConfig
from repro.core import summarize_critical_path
from repro.verify import build_oracle_ddg
from repro.workloads import load_workload


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "spice2g6x"
    cap = int(sys.argv[2]) if len(sys.argv) > 2 else 60_000

    workload = load_workload(name)
    trace = workload.trace(max_instructions=cap)
    print(f"{workload.name}: {cap:,} instructions\n")

    for label, config in [
        ("registers renamed only", AnalysisConfig.registers_renamed()),
        ("everything renamed", AnalysisConfig()),
    ]:
        ddg = build_oracle_ddg(trace, config, max_records=cap)
        summary = summarize_critical_path(ddg, trace)
        print(f"--- {label} ---")
        print(summary.render())
        print()

    print(
        "Reading: 'war' edges on the path are storage dependencies the next"
        "\nrenaming level would remove; 'raw' edges are true dependencies"
        "\nonly an algorithm change can shorten; firewalls come from system"
        "\ncalls. The hottest statements say where in the source the chain"
        "\nlives."
    )


if __name__ == "__main__":
    main()
