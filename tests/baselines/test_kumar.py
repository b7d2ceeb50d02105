"""Statement-granularity (Kumar) baseline."""

from repro.baselines.kumar import statement_parallelism
from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.isa.opclasses import OpClass
from repro.lang.compiler import compile_source
from repro.cpu.machine import Machine
from repro.trace.synthetic import TraceBuilder


def run_minic(source):
    machine = Machine(compile_source(source))
    machine.run(max_instructions=200_000)
    return machine.trace


class TestGrouping:
    def trace(self):
        # two statements of three instructions each, fully independent
        builder = TraceBuilder()
        builder.op(OpClass.IALU, (1,), (), aux=0)
        builder.op(OpClass.IALU, (2,), (1,), aux=0)
        builder.op(OpClass.IALU, (3,), (2,), aux=0)
        builder.op(OpClass.IALU, (4,), (), aux=1)
        builder.op(OpClass.IALU, (5,), (4,), aux=1)
        builder.op(OpClass.IALU, (6,), (5,), aux=1)
        return builder.build()

    def test_statements_become_unit_nodes(self):
        result = statement_parallelism(self.trace())
        assert result.statements_placed == 2
        assert result.critical_path_length == 1  # both in level 0
        assert result.average_parallelism == 2.0

    def test_mean_statement_size(self):
        assert statement_parallelism(self.trace()).mean_statement_size == 3.0

    def test_internal_writes_not_inputs(self):
        # statement 1 reads location 1 which statement 0 wrote -> dependency
        builder = TraceBuilder()
        builder.op(OpClass.IALU, (1,), (), aux=0)
        builder.op(OpClass.IALU, (2,), (1,), aux=1)
        result = statement_parallelism(builder.build())
        assert result.critical_path_length == 2

    def test_repeated_statement_id_instances_separate(self):
        # a loop body re-executes the same statement id; consecutive runs
        # are distinct dynamic statement instances only when interrupted
        builder = TraceBuilder()
        builder.op(OpClass.IALU, (1,), (1,), aux=3)
        builder.op(OpClass.IALU, (2,), (2,), aux=4)
        builder.op(OpClass.IALU, (1,), (1,), aux=3)
        result = statement_parallelism(builder.build())
        assert result.statements_placed == 3

    def test_conservative_syscall_firewall(self):
        builder = TraceBuilder()
        builder.op(OpClass.IALU, (1,), (), aux=0)
        builder.syscall()
        builder.op(OpClass.IALU, (2,), (), aux=1)
        conservative = statement_parallelism(builder.build())
        optimistic = statement_parallelism(
            builder.build(), AnalysisConfig(syscall_policy="optimistic")
        )
        assert conservative.critical_path_length == 3
        assert optimistic.critical_path_length == 1


class TestCollectProfile:
    def trace(self):
        builder = TraceBuilder()
        builder.op(OpClass.IALU, (1,), (), aux=0)
        builder.op(OpClass.IALU, (2,), (1,), aux=1)
        builder.syscall()
        builder.op(OpClass.IALU, (3,), (), aux=2)
        return builder.build()

    def test_profile_collected_by_default(self):
        result = statement_parallelism(self.trace())
        assert result.profile is not None
        assert sum(result.profile.counts.values()) == result.statements_placed

    def test_profile_off_keeps_every_other_number(self):
        collected = statement_parallelism(self.trace())
        skipped = statement_parallelism(self.trace(), AnalysisConfig(collect_profile=False))
        assert skipped.profile is None
        assert (
            skipped.statements_placed,
            skipped.instructions_placed,
            skipped.critical_path_length,
        ) == (
            collected.statements_placed,
            collected.instructions_placed,
            collected.critical_path_length,
        )


class TestAgainstInstructionLevel:
    def test_statement_ap_below_instruction_op_rate(self):
        # Instruction-level analysis sees parallelism *within* statements;
        # per level it places at least as many operations as statement-level
        # analysis places statement-equivalents.
        trace = run_minic(
            """
            int a[64];
            void main() {
                int i;
                for (i = 0; i < 64; i = i + 1) { a[i] = i * 3 + (i ^ 5); }
                print_int(a[63]);
            }
            """
        )
        instruction = analyze(trace, AnalysisConfig(latency=LatencyTable.unit()))
        statement = statement_parallelism(trace)
        ops_per_level_instruction = instruction.available_parallelism
        ops_per_level_statement = (
            statement.average_parallelism * statement.mean_statement_size
        )
        assert statement.statements_placed > 0
        assert ops_per_level_instruction > 0
        # statement nodes are coarser: fewer schedulable units
        assert statement.statements_placed < instruction.placed_operations
        assert ops_per_level_statement > 0
