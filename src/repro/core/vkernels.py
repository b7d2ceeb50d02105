"""Vectorized (NumPy) placement kernels over whole columnar traces.

The python frontier (:mod:`repro.core.stream`) walks records one at a
time. This module evaluates the *same* placement rule —
``level = max(floor-1, sources..., WAR, memory) + top`` — over whole
level-frontier batches instead:

1. **Index** (:func:`_build_index`): zero-copy ``numpy.frombuffer``
   views over the existing ``array('q')`` columns are sorted once by
   (location, access ordinal) to recover, with a handful
   of prefix scans, every RAW edge (last write before each read), every
   WAR edge (each read to the next write of its location), and the
   token structure (which write each read binds to) that the live-well
   dict encodes implicitly.
2. **Batched Kahn** (:func:`_execute`): the records between two
   conservative syscalls form a block; each block seeds its floor term
   in one vector op (:func:`_seed_frontier_batch`) and then resolves in
   topological *frontiers* — one vector ``maximum.at`` per frontier,
   with a scalar cascade for narrow frontiers (long dependence chains)
   where vector dispatch overhead would dominate. Conservative syscalls
   are single scalar steps between blocks.
3. **Token stats**: uses, deepest-use and lifetimes fall out of
   per-token ``bincount``/``maximum.at`` reductions over the same index.

The backend only runs whole-trace analyses, starting from an empty live
well: there is no vectorized continuation of a
:class:`~repro.core.stream.Frontier`, so chunked streaming and sharding
always run the python loops. Results are bit-identical to the python
frontier for every *eligible* configuration — all renaming combinations,
both syscall policies, conservative memory disambiguation, lifetimes and
profiles. Ineligible (and handed back to the python loops): instruction
windows, branch predictors and constrained resource models. Predictors
and resources keep greedy per-record state with no batched formulation;
a window's ring raises the floor record by record, and the python
windowed loop is faster than any blocked imitation of it (DESIGN.md
section 16). NumPy itself is optional — with it absent :func:`available`
is False and every caller falls back to the python frontier.
"""

from __future__ import annotations

from typing import Optional

try:  # NumPy is an optional extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from repro.core.analyzer import BACKEND_NUMPY, BACKEND_PYTHON, BACKENDS
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.lifetimes import LifetimeStats
from repro.core.livewell import NEVER_USED
from repro.core.profile import ParallelismProfile
from repro.core.results import AnalysisResult
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.obs import metrics as _obs
from repro.obs.spans import span as _span
from repro.trace.record import FLAG_CONDITIONAL
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

#: Unresolved-level sentinel (same magnitude as NEVER_USED; any placement
#: seeded from it stays impossibly negative and is visibly wrong).
_NEG = -(1 << 60)
_BIG = 1 << 62

#: Frontiers at or below this width resolve through the scalar cascade;
#: wider ones through one vector round per frontier. Long dependence
#: chains (frontier width ~1) are where per-round numpy dispatch
#: overhead would otherwise dominate the whole analysis.
NARROW_FRONTIER = 96


def available() -> bool:
    """True when NumPy is importable (the backend can run at all)."""
    return _np is not None


def eligible(config: AnalysisConfig) -> bool:
    """True when the vectorized backend runs ``config``.

    Branch predictors and constrained resource models keep greedy
    per-record state (pattern tables, absolute-level occupancy) that a
    batched evaluation cannot reproduce, and windowed configs run faster
    through the python windowed loop; everything else — renaming
    combinations, syscall policies, conservative memory disambiguation,
    lifetimes, profiles — is exact.
    """
    return (
        config.window_size is None
        and config.branch_predictor is None
        and (config.resources is None or config.resources.unconstrained)
    )


def _col(column):
    """Zero-copy int64 view of one ``array('q')`` column."""
    if len(column):
        return _np.frombuffer(memoryview(column), dtype=_np.int64)
    return _np.empty(0, dtype=_np.int64)


def _seed_frontier_batch(C, recs, base) -> None:
    """Fold a block's floor term into the level bounds of its records.

    Module-level on purpose: :func:`_execute` late-binds it, so the
    verification harness can monkeypatch a deliberate batch-boundary
    off-by-one (the ``vkernel-batch-skew`` mutation) without reloads.
    """
    _np.maximum.at(C, recs, base)


# -- the access index --------------------------------------------------------


def _build_index(trace, conservative: bool) -> dict:
    """One sort of the trace's access stream -> every dependence edge and
    the token structure the live well encodes. Access ordinals are ``2r``
    for the reads of record ``r`` and ``2r + 1`` for its writes, so a
    record's reads bind strictly before its own writes and duplicate
    destinations keep slot order (the sort is stable), matching the
    python kernels' read-then-overwrite order.
    """
    ops = _col(trace.opclass)
    flags = _col(trace.flags)
    soff = _col(trace.src_offsets)
    doff = _col(trace.dest_offsets)
    n = len(ops)
    ordinary = ops < _SYSCALL
    syscall = ops == _SYSCALL
    memrec = _np.nonzero((ops == _LOAD) | (ops == _STORE))[0]
    index = {
        "n": n,
        "ops": ops,
        "ordinary": ordinary,
        "syscall_recs": _np.nonzero(syscall)[0],
        "placed_mask": ordinary | syscall if conservative else ordinary,
        "branches": int(
            ((ops == _BRANCH) & ((flags & FLAG_CONDITIONAL) != 0)).sum()
        ),
        "memrec": memrec,
        "is_store": ops[memrec] == _STORE,
    }

    arange_n = _np.arange(n, dtype=_np.int64)
    rec_s = _np.repeat(arange_n, _np.diff(soff[: n + 1]))
    rec_d = _np.repeat(arange_n, _np.diff(doff[: n + 1]))

    rmask = ordinary[rec_s]
    read_rec = rec_s[rmask]
    read_loc = _col(trace.src_values)[int(soff[0]) : int(soff[n])][rmask]

    wsel = ordinary[rec_d]
    if conservative:
        wsel = wsel | syscall[rec_d]
    w_rec = rec_d[wsel]
    w_loc = _col(trace.dest_values)[int(doff[0]) : int(doff[n])][wsel]

    nreads = len(read_rec)
    nwrites = len(w_rec)
    M = nreads + nwrites
    if not M:
        z = _np.empty(0, dtype=_np.int64)
        index.update(
            raw_src=z, raw_dst=z, raw_tok=z,
            war_src=z, war_dst=z, war_loc=z,
            tok_rec=z, nwrites=0, groups=0,
        )
        return index

    loc = _np.concatenate([read_loc, w_loc])
    ordn = _np.concatenate([2 * read_rec, 2 * w_rec + 1])
    rec = _np.concatenate([read_rec, w_rec])
    isw = _np.zeros(M, dtype=bool)
    isw[nreads:] = True

    order = _np.lexsort((ordn, loc))
    loc_s = loc[order]
    rec_srt = rec[order]
    isw_s = isw[order]
    pos = _np.arange(M, dtype=_np.int64)

    new_grp = _np.empty(M, dtype=bool)
    new_grp[0] = True
    new_grp[1:] = loc_s[1:] != loc_s[:-1]
    grp_id = _np.cumsum(new_grp) - 1
    grp_first = pos[new_grp]
    G = len(grp_first)
    grp_last = _np.empty(G, dtype=_np.int64)
    grp_last[:-1] = grp_first[1:] - 1
    grp_last[-1] = M - 1

    # Per row: write ordinal so far, last write at <= row, next write >= row.
    widx = _np.cumsum(isw_s) - 1
    last_w = _np.maximum.accumulate(_np.where(isw_s, pos, -1))
    next_w = _np.minimum.accumulate(_np.where(isw_s, pos, _BIG)[::-1])[::-1]

    read_rows = ~isw_s
    r_last_w = last_w[read_rows]
    r_next_w = next_w[read_rows]
    r_grp = grp_id[read_rows]
    r_rec = rec_srt[read_rows]

    # RAW: each read binds to the last earlier write of its location —
    # write token widx (the t'th write in (location, ordinal) order).
    # Reads before any write see a first-touch entry: no edge, no token.
    bound = r_last_w >= grp_first[r_grp]
    raw_last = r_last_w[bound]

    # WAR: each read constrains the *next* write of its location (+1).
    # Self-edges drop (a record reads before it overwrites); syscall
    # destinations drop (syscall placement never consults the well).
    war_ok = r_next_w <= grp_last[r_grp]
    war_dst = rec_srt[_np.minimum(r_next_w, M - 1)]
    keep = war_ok & (war_dst != r_rec) & ~syscall[_np.maximum(war_dst, 0)]

    index.update(
        raw_src=rec_srt[raw_last],
        raw_dst=r_rec[bound],
        raw_tok=widx[raw_last],
        war_src=r_rec[keep],
        war_dst=war_dst[keep],
        war_loc=loc_s[read_rows][keep],
        tok_rec=rec_srt[isw_s],
        nwrites=nwrites,
        groups=G,
    )
    return index


def _get_index(trace, conservative: bool) -> dict:
    """The trace's access index, memoized on it by syscall policy (the
    sort does not depend on the rest of the config, so config sweeps and
    repeated backend runs over one trace pay it once)."""
    key = bool(conservative)
    cache = getattr(trace, "_vk_index", None)
    if cache is not None and key in cache:
        return cache[key]
    index = _build_index(trace, conservative)
    if cache is not None:
        cache[key] = index
    return index


# -- the batched engine ------------------------------------------------------


def _hist_update(hist: dict, values) -> None:
    unique, counts = _np.unique(values, return_counts=True)
    get = hist.get
    for key, count in zip(unique.tolist(), counts.tolist()):
        hist[key] = get(key, 0) + count


def _profile_counts(plv) -> dict:
    """Level -> count histogram of the placed levels."""
    if not len(plv):
        return {}
    if int(plv.min()) >= 0:
        counts = _np.bincount(plv)
        return {
            level: count
            for level, count in enumerate(counts.tolist())
            if count
        }
    values, counts = _np.unique(plv, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _execute(trace, config: AnalysisConfig, segments: SegmentMap) -> AnalysisResult:
    """One fresh whole-trace analysis, vectorized."""
    conservative = config.syscall_policy == CONSERVATIVE
    conservative_mem = config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION

    index = _get_index(trace, conservative)
    n = index["n"]
    ops = index["ops"]
    ordinary = index["ordinary"]
    lat = _np.asarray(config.latency.as_list(), dtype=_np.int64)
    top = lat[_np.minimum(ops, len(lat) - 1)] if n else lat[:0]
    sys_top = int(lat[_SYSCALL])
    rename_regs = config.rename_registers
    rename_stack = config.rename_stack
    rename_data = config.rename_data
    nwrites = index["nwrites"]

    lvl = _np.full(n, _NEG, dtype=_np.int64)
    C = _np.full(n, _NEG, dtype=_np.int64)

    # -- dependence edges ----------------------------------------------------
    raw_dst = index["raw_dst"]
    e_src = [index["raw_src"]]
    e_dst = [raw_dst]
    e_w = [top[raw_dst]]
    if not (rename_regs and rename_stack and rename_data):
        war_loc = index["war_loc"]
        part_reg = war_loc < MEM_BASE
        part_stack = war_loc >= MEM_BASE + segments.stack_floor
        keep = _np.zeros(len(war_loc), dtype=bool)
        if not rename_regs:
            keep |= part_reg
        if not rename_stack:
            keep |= part_stack
        if not rename_data:
            keep |= ~(part_reg | part_stack)
        e_src.append(index["war_src"][keep])
        e_dst.append(index["war_dst"][keep])
        e_w.append(_np.ones(int(keep.sum()), dtype=_np.int64))

    memrec = index["memrec"]
    is_store = index["is_store"]
    if conservative_mem and len(memrec):
        k = len(memrec)
        ar = _np.arange(k, dtype=_np.int64)
        last_st = _np.maximum.accumulate(_np.where(is_store, ar, -1))
        loads = _np.nonzero(~is_store)[0]
        lsel = last_st[loads]
        ok = lsel >= 0
        e_src.append(memrec[lsel[ok]])
        e_dst.append(memrec[loads[ok]])
        e_w.append(top[memrec[loads[ok]]])
        next_st = _np.minimum.accumulate(
            _np.where(is_store, ar, _BIG)[::-1]
        )[::-1]
        nxt = _np.empty(k, dtype=_np.int64)
        nxt[:-1] = next_st[1:]
        nxt[-1] = _BIG
        ok2 = nxt < _BIG
        e_src.append(memrec[ok2])
        e_dst.append(memrec[nxt[ok2]])
        e_w.append(_np.ones(int(ok2.sum()), dtype=_np.int64))

    e_src = _np.concatenate(e_src)
    e_dst = _np.concatenate(e_dst)
    e_w = _np.concatenate(e_w)

    # -- block plan ----------------------------------------------------------
    # Span k is [los[k], cuts[k]): the records between two conservative
    # syscalls, a block when non-empty, followed by the syscall at
    # cuts[k] when cuts[k] < n.
    sys_list = index["syscall_recs"].tolist() if conservative else []
    cuts = sys_list + [n]
    los = [0] + [s + 1 for s in sys_list]
    bs = _np.asarray([lo for lo, hi in zip(los, cuts) if lo < hi], dtype=_np.int64)
    nblocks = len(bs)
    if len(e_src) and nblocks:
        eb_src = _np.searchsorted(bs, e_src, side="right") - 1
        eb_dst = _np.searchsorted(bs, e_dst, side="right") - 1
        intra = eb_src == eb_dst
    else:
        intra = _np.zeros(len(e_src), dtype=bool)

    i_src = e_src[intra]
    i_dst = e_dst[intra]
    i_w = e_w[intra]
    order = _np.argsort(i_src, kind="stable")
    i_src = i_src[order]
    i_dst = i_dst[order]
    i_w = i_w[order]
    indptr = _np.searchsorted(i_src, _np.arange(n + 1))
    indeg = _np.bincount(i_dst, minlength=n)

    cross = ~intra
    c_src = e_src[cross]
    c_dst = e_dst[cross]
    c_w = e_w[cross]
    if len(c_src):
        c_blk = eb_dst[cross]
        order = _np.argsort(c_blk, kind="stable")
        c_src = c_src[order]
        c_dst = c_dst[order]
        c_w = c_w[order]
        c_bounds = _np.searchsorted(c_blk[order], _np.arange(nblocks + 1))
    else:
        c_bounds = _np.zeros(nblocks + 1, dtype=_np.int64)

    arange_n = _np.arange(n, dtype=_np.int64)
    mv_C = memoryview(C)
    mv_lvl = memoryview(lvl)
    mv_indeg = memoryview(indeg)
    mv_dst = memoryview(i_dst)
    mv_w = memoryview(i_w)
    mv_ptr = memoryview(indptr)
    seed = _seed_frontier_batch  # late-bound for the mutation harness

    floor_m1 = -1
    deepest = -1
    b = 0
    for lo, hi in zip(los, cuts):
        if lo < hi:
            recs = arange_n[lo:hi][ordinary[lo:hi]]
            if len(recs):
                seed(C, recs, floor_m1 + top[recs])
                a, b2 = int(c_bounds[b]), int(c_bounds[b + 1])
                if b2 > a:
                    _np.maximum.at(C, c_dst[a:b2], lvl[c_src[a:b2]] + c_w[a:b2])
                frontier = recs[indeg[recs] == 0]
                narrow = None
                while True:
                    if narrow is None and len(frontier) <= NARROW_FRONTIER:
                        narrow = frontier.tolist()
                    if narrow is not None:
                        # Scalar cascade over memoryviews until it widens.
                        while narrow and len(narrow) <= NARROW_FRONTIER:
                            nxt = []
                            for r in narrow:
                                m = mv_C[r]
                                mv_lvl[r] = m
                                for j in range(mv_ptr[r], mv_ptr[r + 1]):
                                    d = mv_dst[j]
                                    v = m + mv_w[j]
                                    if v > mv_C[d]:
                                        mv_C[d] = v
                                    deg = mv_indeg[d] - 1
                                    mv_indeg[d] = deg
                                    if not deg:
                                        nxt.append(d)
                            narrow = nxt
                        if not narrow:
                            break
                        frontier = _np.asarray(narrow, dtype=_np.int64)
                        narrow = None
                    lvl[frontier] = C[frontier]
                    starts = indptr[frontier]
                    cnt = indptr[frontier + 1] - starts
                    tot = int(cnt.sum())
                    if not tot:
                        break
                    offs = _np.repeat(
                        starts - _np.concatenate(([0], _np.cumsum(cnt[:-1]))), cnt
                    )
                    flat = offs + _np.arange(tot)
                    dsts = i_dst[flat]
                    _np.maximum.at(C, dsts, C[i_src[flat]] + i_w[flat])
                    unique, counts = _np.unique(dsts, return_counts=True)
                    indeg[unique] -= counts
                    frontier = unique[indeg[unique] == 0]
                    if not len(frontier):
                        break
                block_max = int(lvl[recs].max())
                if block_max > deepest:
                    deepest = block_max
            b += 1
        if hi < n:
            # The conservative syscall at ``hi``: a firewall one level
            # past everything placed so far.
            level = deepest + 1
            low = floor_m1 + sys_top
            if low > level:
                level = low
            lvl[hi] = level
            deepest = level
            floor_m1 = level

    # -- stats ---------------------------------------------------------------
    placed_mask = index["placed_mask"]
    profile = None
    if config.collect_profile:
        profile = ParallelismProfile(_profile_counts(lvl[placed_mask]))

    lifetimes = None
    if config.collect_lifetimes:
        # Every write token flushes at the end of the trace; first-touch
        # entries are preexisting and never counted (the python kernels'
        # entry[3] guard), so only bound reads contribute.
        life_hist: dict = {}
        share_hist: dict = {}
        if nwrites:
            raw_tok = index["raw_tok"]
            uses = _np.bincount(raw_tok, minlength=nwrites)
            deep = _np.full(nwrites, NEVER_USED, dtype=_np.int64)
            _np.maximum.at(deep, raw_tok, lvl[raw_dst])
            life = _np.where(uses > 0, deep - lvl[index["tok_rec"]], 0)
            _hist_update(life_hist, life)
            _hist_update(share_hist, uses)
        lifetimes = LifetimeStats(
            lifetime_histogram=life_hist,
            sharing_histogram=share_hist,
            values_created=sum(share_hist.values()),
            total_uses=sum(u * c for u, c in share_hist.items()),
        )

    return AnalysisResult(
        records_processed=n,
        placed_operations=int(placed_mask.sum()),
        critical_path_length=deepest + 1,
        profile=profile,
        syscalls=len(index["syscall_recs"]),
        firewalls=len(sys_list),
        branches=index["branches"],
        mispredictions=0,
        peak_live_well=index["groups"],
        lifetimes=lifetimes,
        config=config,
    )


# -- public entry point ------------------------------------------------------


def analyze_vectorized(
    trace,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """One whole-trace analysis through the vectorized backend.

    Bit-identical to the python frontier (:mod:`repro.core.stream`) for
    every :func:`eligible` configuration. Raises ``RuntimeError`` when
    NumPy is unavailable and ``ValueError`` for ineligible configs —
    callers that want graceful fallback route through
    ``analyze(..., backend="numpy")`` instead.
    """
    if _np is None:
        raise RuntimeError("the numpy backend requires NumPy")
    if config is None:
        config = AnalysisConfig()
    if not eligible(config):
        raise ValueError(
            "config is not eligible for the vectorized backend "
            "(windows, branch predictors and constrained resources run "
            "the python frontier)"
        )
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    if not _obs.enabled():
        return _execute(trace, config, segments)
    with _span("kernel.scan.vkernel"):
        return _execute(trace, config, segments)


__all__ = [
    "BACKENDS",
    "BACKEND_NUMPY",
    "BACKEND_PYTHON",
    "analyze_vectorized",
    "available",
    "eligible",
]
