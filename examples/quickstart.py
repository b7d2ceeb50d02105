"""Quickstart: extract and analyze a dynamic dependency graph.

Builds the paper's Figure 1/2 example (S := A + B + C + D) as assembly,
runs it on the simulator, and analyzes the trace with Paragraph under
several configurations — reproducing the worked numbers from the paper's
section 2 in a dozen lines of API.

Run:  python examples/quickstart.py
"""

from repro import AnalysisConfig, LatencyTable, analyze
from repro.asm import assemble
from repro.cpu import run_and_trace
from repro.verify import build_oracle_ddg

SOURCE = """
.data
A:  .word 10
B:  .word 20
C:  .word 30
D:  .word 40
S:  .word 0

.text
main:
    lw   t0, A          # load r0, A
    lw   t1, B          # load r1, B
    add  t4, t0, t1     # r4 <- r0 + r1
    lw   t0, C          # load r0, C   (reuses t0/t1: storage deps!)
    lw   t1, D          # load r1, D
    add  t5, t0, t1     # r5 <- r2 + r3
    add  t6, t4, t5     # r6 <- r4 + r5
    sw   t6, S          # store r6, S
"""


def main():
    program = assemble(SOURCE)
    result, trace = run_and_trace(program)
    print(f"executed {result.executed} instructions; S = "
          f"{10 + 20 + 30 + 40} expected")

    unit = LatencyTable.unit()

    # Paper Figure 1: only true data dependencies (registers renamed).
    dataflow = analyze(trace, AnalysisConfig(latency=unit))
    print("\nwith renaming (Figure 1 semantics):")
    print(f"  critical path      = {dataflow.critical_path_length} levels")
    print(f"  parallelism profile= "
          f"{[dataflow.profile.counts.get(i, 0) for i in range(dataflow.critical_path_length)]}")
    print(f"  available ILP      = {dataflow.available_parallelism:.2f}")

    # Paper Figure 2: keep the storage (WAR) dependencies from t0/t1 reuse.
    storage = analyze(
        trace,
        AnalysisConfig(
            latency=unit,
            rename_registers=False,
            rename_stack=False,
            rename_data=False,
        ),
    )
    print("\nwithout renaming (Figure 2 semantics):")
    print(f"  critical path      = {storage.critical_path_length} levels")
    print(f"  parallelism profile= "
          f"{[storage.profile.counts.get(i, 0) for i in range(storage.critical_path_length)]}")

    # The explicit DDG for inspection: nodes, edges, the critical path.
    ddg = build_oracle_ddg(trace, AnalysisConfig(latency=unit))
    print("\nexplicit DDG:")
    print(f"  nodes = {ddg.placed_operations}, "
          f"edges = {sum(1 for _ in ddg.edges())}")
    print(f"  critical path (trace index, edge in) = {ddg.critical_path()}")


if __name__ == "__main__":
    main()
