"""Deliberately buggy analyzer variants — the harness's own smoke test.

A verification harness that has never caught a bug is unverified itself.
These context managers monkeypatch a *known* off-by-one into one
implementation and restore the original on exit; tests (and ``paragraph
verify --mutate <name>``) assert the harness catches the mutant with a
shrunk, persisted counterexample. Because the patches live in this
process, mutation runs must use ``--jobs 1`` (the in-process engine
path); worker processes would import the unmutated modules.

Mutations:

- ``kernel-load-skew`` — every python frontier loop places loads one level
  too deep (the canonical off-by-one: the real loop runs with the LOAD
  latency raised by one, which perturbs exactly the load placement term
  of the rule). Caught by the ``forward`` vs ``reference``/``twopass``/
  ``oracle`` differential whenever a load is at or feeds the critical
  path.
- ``frontier-war-loss`` — the frontier's full-semantics loop forgets
  write-after-read constraints (it analyzes as if every storage class
  were renamed). Caught by the same differential on any case with
  renaming off and a binding WAR hazard.
- ``stream-splice-skew`` — the shard stitch grafts segment summaries one
  level too shallow (``offset = floor - 1`` instead of the true floor at
  the cut). Caught by the exact-vs-sharded invariant on any case whose
  sharded run actually splices a summary with post-cut placements.
- ``vkernel-batch-skew`` — the vectorized backend's block seeding skips
  each frontier batch's first record (an off-by-one at the batch
  boundary), so that record misses its floor term. Caught by the
  cross-backend differential (``verify --focus backend``) on any case
  where a block-leading record's placement binds on the floor. A no-op
  when NumPy is absent — the backend falls back to the (unmutated)
  python frontier, so no-numpy environments must skip this self-test.

Every patch goes through a module attribute that the call sites late-bind
(:func:`repro.core.stream.advance` resolves its ``_advance_*`` loops as
globals per call, and the stitch and batch hooks likewise), so no reload
tricks are needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

from repro.core.config import AnalysisConfig
from repro.isa.opclasses import OpClass


def _deepened_loads(config: AnalysisConfig) -> AnalysisConfig:
    latency = config.latency
    return config.derive(
        latency=latency.with_overrides(LOAD=latency.steps[OpClass.LOAD] + 1)
    )


@contextmanager
def _patch_frontier_loops(names, mutate):
    """Patch the named ``stream._advance_*`` loops to run with one
    frontier attribute swapped: ``mutate(frontier)`` returns the attribute
    name and its mutant value, and the real value is restored when the
    loop returns."""
    from repro.core import stream

    originals = {name: getattr(stream, name) for name in names}

    def wrap(original):
        def mutant(fr, trace, start, end):
            attribute, value = mutate(fr)
            kept = getattr(fr, attribute)
            setattr(fr, attribute, value)
            try:
                original(fr, trace, start, end)
            finally:
                setattr(fr, attribute, kept)

        return mutant

    for name, original in originals.items():
        setattr(stream, name, wrap(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(stream, name, original)


def mutate_kernel_load_skew():
    """The python frontier loops place every load one level too deep."""
    return _patch_frontier_loops(
        ("_advance_dataflow", "_advance_windowed", "_advance_generic"),
        lambda fr: ("latency", _deepened_loads(fr.config).latency.as_list()),
    )


def mutate_frontier_war_loss():
    """The frontier's full-semantics loop drops all write-after-read
    constraints."""
    return _patch_frontier_loops(
        ("_advance_generic",),
        lambda fr: (
            "config",
            replace(fr.config, rename_registers=True, rename_stack=True, rename_data=True),
        ),
    )


@contextmanager
def mutate_stream_splice_skew():
    """The shard stitch splices summaries one level too shallow."""
    from repro.core import stream

    original = stream.splice

    def mutant(fr, summary):
        fr.floor -= 1  # corrupt the cut offset the splice algebra relies on
        return original(fr, summary)

    stream.splice = mutant
    try:
        yield
    finally:
        stream.splice = original


@contextmanager
def mutate_vkernel_batch_skew():
    """The vectorized backend's seeding skips each batch's first record."""
    from repro.core import vkernels

    original = vkernels._seed_frontier_batch

    def mutant(C, recs, base):
        original(C, recs[1:], base[1:])

    vkernels._seed_frontier_batch = mutant
    try:
        yield
    finally:
        vkernels._seed_frontier_batch = original


MUTATIONS = {
    "kernel-load-skew": mutate_kernel_load_skew,
    "frontier-war-loss": mutate_frontier_war_loss,
    "stream-splice-skew": mutate_stream_splice_skew,
    "vkernel-batch-skew": mutate_vkernel_batch_skew,
}


@contextmanager
def apply_mutation(name: str):
    """Apply a named mutation for the duration of a ``with`` block."""
    try:
        factory = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {sorted(MUTATIONS)}"
        ) from None
    with factory():
        yield
