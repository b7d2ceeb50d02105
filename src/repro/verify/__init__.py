"""Property-based differential verification of the Paragraph analyzers.

Every production result in this repository hangs on one placement rule
(see DESIGN.md section 4). Production runs it in one python
implementation, the resumable frontier loops, and one vectorized one; the
readable reference and the two-pass method are independent checkers. This
package checks all of them against each other — and against a
deliberately slow oracle that never runs the live-well algorithm at all —
on randomized traces:

- :mod:`repro.verify.oracle` — recomputes every placement level by explicit
  DDG edge construction followed by a topological longest-path pass; it
  is also the repository's one explicit DDG for inspection (edge kinds,
  critical-path walk);
- :mod:`repro.verify.generate` — deterministic seeded trace/config
  generator with greedy-deletion shrinking;
- :mod:`repro.verify.harness` — the differential + metamorphic harness
  behind ``python -m repro verify``;
- :mod:`repro.verify.artifacts` — persisted ``.pgt2`` counterexamples and
  their replay;
- :mod:`repro.verify.mutations` — deliberately buggy analyzer variants for
  the harness's own mutation smoke checks.
"""

from repro.verify.generate import generate_case, sample_config, shrink_trace
from repro.verify.harness import VerifySummary, run_verification, verify_case
from repro.verify.oracle import OracleDDG, build_oracle_ddg, oracle_analyze

__all__ = [
    "OracleDDG",
    "VerifySummary",
    "build_oracle_ddg",
    "generate_case",
    "oracle_analyze",
    "run_verification",
    "sample_config",
    "shrink_trace",
    "verify_case",
]
