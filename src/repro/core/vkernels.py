"""Vectorized (NumPy) placement kernels over columnar traces.

The python frontier (:mod:`repro.core.stream`) walks records one at a
time. This module evaluates the *same* placement rule —
``level = max(floor-1, sources..., WAR, memory) + top`` — over whole
level-frontier batches instead:

1. **Index** (:func:`_build_index`): zero-copy ``numpy.frombuffer``
   views over the existing ``array('q')``/shared-memory columns are
   sorted once by (location, access ordinal) to recover, with a handful
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
3. **Token stats**: uses, deepest-use, lifetimes, and the exported
   live well all fall out of per-token ``bincount``/``maximum.at``
   reductions over the same index.

Results are bit-identical to the python frontier for every *eligible*
configuration — all renaming combinations, both syscall policies,
conservative memory disambiguation, lifetimes, profiles, and mid-stream
:func:`advance_batch` continuation. Ineligible (and handed back to the
python loops): instruction windows, branch predictors and constrained
resource models. Predictors and resources keep greedy per-record state
with no batched formulation; a window's ring raises the floor record by
record, and the python windowed loop is faster than any blocked
imitation of it (DESIGN.md section 16). NumPy itself is optional — with
it absent :func:`available` is False and every caller falls back to the
python frontier.
"""

from __future__ import annotations

from typing import Optional

try:  # NumPy is an optional extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.kernels import KERNEL_GENERIC
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

#: Backend knob values accepted across analyze()/CLI/jobs.
BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"
BACKENDS = (BACKEND_PYTHON, BACKEND_NUMPY)

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
    """Zero-copy int64 view of one columnar array (array('q') or a
    shared-memory/mmap memoryview — any contiguous buffer of q)."""
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


def _empty_index(n, ops, ordinary, syscall, conservative, flags):
    z = _np.empty(0, dtype=_np.int64)
    zb = _np.empty(0, dtype=bool)
    placed_mask = ordinary | syscall if conservative else ordinary
    return {
        "n": n,
        "ops": ops,
        "ordinary": ordinary,
        "syscall": syscall,
        "syscall_recs": _np.nonzero(syscall)[0],
        "placed_mask": placed_mask,
        "branches": int(
            ((ops == _BRANCH) & ((flags & FLAG_CONDITIONAL) != 0)).sum()
        ),
        "n_syscalls": int(syscall.sum()),
        "raw_src": z, "raw_dst": z,
        "war_src": z, "war_dst": z, "war_loc": z,
        "read_rec": z, "read_tok": z,
        "base_rec": z, "base_grp": z,
        "nwrites": 0, "groups": 0,
        "tok_rec": z, "tok_last": zb,
        "g_loc": z, "g_last_tok": z, "g_first_w_rec": z, "g_first_rec": z,
        "memrec": z, "is_store": zb,
    }


def _build_index(trace, conservative: bool, start: int, end: int) -> dict:
    """One sort of the batch's access stream -> every dependence edge and
    the token structure the live well encodes. Record ids are batch-local
    (record ``start + r`` is ``r``); access ordinals are ``2r`` for reads
    and ``2r + 1`` for writes, so a record's reads bind strictly before
    its own writes and duplicate destinations keep slot order (the sort
    is stable), matching the python kernels' read-then-overwrite order.
    """
    ops = _col(trace.opclass)[start:end]
    flags = _col(trace.flags)[start:end]
    soff = _col(trace.src_offsets)
    doff = _col(trace.dest_offsets)
    n = end - start
    ordinary = ops < _SYSCALL
    syscall = ops == _SYSCALL

    s_lo, s_hi = int(soff[start]), int(soff[end])
    d_lo, d_hi = int(doff[start]), int(doff[end])
    rec_s = _np.repeat(
        _np.arange(n, dtype=_np.int64), _np.diff(soff[start : end + 1])
    )
    rec_d = _np.repeat(
        _np.arange(n, dtype=_np.int64), _np.diff(doff[start : end + 1])
    )

    rmask = ordinary[rec_s]
    read_rec = rec_s[rmask]
    read_loc = _col(trace.src_values)[s_lo:s_hi][rmask]

    wsel = ordinary[rec_d]
    if conservative:
        wsel = wsel | syscall[rec_d]
    w_rec = rec_d[wsel]
    w_loc = _col(trace.dest_values)[d_lo:d_hi][wsel]

    nreads = len(read_rec)
    nwrites = len(w_rec)
    M = nreads + nwrites
    if not M:
        return _empty_index(n, ops, ordinary, syscall, conservative, flags)

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
    wpos = _np.where(isw_s, pos, -1)
    last_w = _np.maximum.accumulate(wpos)
    npos = _np.where(isw_s, pos, _BIG)
    next_w = _np.minimum.accumulate(npos[::-1])[::-1]

    read_rows = ~isw_s
    r_last_w = last_w[read_rows]
    r_next_w = next_w[read_rows]
    r_grp = grp_id[read_rows]
    r_rec = rec_srt[read_rows]
    r_loc = loc_s[read_rows]

    # RAW: each read binds to the last write of its location, when that
    # write is in-batch; otherwise to the group's base token (an incoming
    # or first-touch well entry).
    bound = r_last_w >= grp_first[r_grp]
    safe_last = _np.maximum(r_last_w, 0)
    read_tok = _np.where(bound, widx[safe_last], nwrites + r_grp)
    raw_src = rec_srt[safe_last][bound]
    raw_dst = r_rec[bound]
    base_rec = r_rec[~bound]
    base_grp = r_grp[~bound]

    # WAR: each read constrains the *next* write of its location (+1).
    # Self-edges drop (a record reads before it overwrites); syscall
    # destinations drop (syscall placement never consults the well).
    war_ok = r_next_w <= grp_last[r_grp]
    war_dst = rec_srt[_np.minimum(r_next_w, M - 1)]
    keep = war_ok & (war_dst != r_rec) & ~syscall[_np.maximum(war_dst, 0)]

    # Token structure: token t is the t'th write in (location, ordinal)
    # order; base tokens (one per location group) follow at nwrites + g.
    w_pos = pos[isw_s]
    w_grp = grp_id[isw_s]
    tok_rec = rec_srt[isw_s]
    g_last_wpos = _np.maximum.reduceat(wpos, grp_first)
    tok_last = w_pos == g_last_wpos[w_grp]
    g_last_tok = _np.where(
        g_last_wpos >= 0, widx[_np.maximum(g_last_wpos, 0)], -1
    )
    g_first_wpos = _np.minimum.reduceat(npos, grp_first)
    g_first_w_rec = _np.where(
        g_first_wpos < _BIG, rec_srt[_np.minimum(g_first_wpos, M - 1)], -1
    )
    g_loc = loc_s[grp_first]
    g_first_rec = rec_srt[grp_first]

    memmask = (ops == _LOAD) | (ops == _STORE)
    memrec = _np.nonzero(memmask)[0]

    placed_mask = ordinary | syscall if conservative else ordinary
    return {
        "n": n,
        "ops": ops,
        "ordinary": ordinary,
        "syscall": syscall,
        "syscall_recs": _np.nonzero(syscall)[0],
        "placed_mask": placed_mask,
        "branches": int(
            ((ops == _BRANCH) & ((flags & FLAG_CONDITIONAL) != 0)).sum()
        ),
        "n_syscalls": int(syscall.sum()),
        "raw_src": raw_src, "raw_dst": raw_dst,
        "war_src": r_rec[keep], "war_dst": war_dst[keep], "war_loc": r_loc[keep],
        "read_rec": r_rec,
        "read_tok": read_tok,
        "base_rec": base_rec, "base_grp": base_grp,
        "nwrites": nwrites, "groups": G,
        "tok_rec": tok_rec, "tok_last": tok_last,
        "g_loc": g_loc, "g_last_tok": g_last_tok,
        "g_first_w_rec": g_first_w_rec, "g_first_rec": g_first_rec,
        "memrec": memrec, "is_store": ops[memrec] == _STORE,
    }


def _get_index(trace, conservative: bool, start: int, end: int) -> dict:
    """Batch index, cached on the trace (the sort does not depend on the
    analysis config beyond the syscall policy, so config sweeps and
    repeated backend runs over one trace pay it once)."""
    key = (bool(conservative), start, end)
    cache = getattr(trace, "_vk_index", None)
    if cache is not None and key in cache:
        return cache[key]
    index = _build_index(trace, conservative, start, end)
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


def _execute(trace, config: AnalysisConfig, segments: SegmentMap,
             start: int, end: int, fr) -> Optional[dict]:
    """Run records ``[start, end)`` vectorized.

    With ``fr`` (a :class:`repro.core.stream.Frontier`) the incoming
    state seeds the batch and the outgoing state is written back —
    exactly :func:`repro.core.stream.advance`. With ``fr=None`` this is
    a fresh whole-trace analysis and returns the raw result fields
    (well export and per-record floors are skipped entirely).
    """
    conservative = config.syscall_policy == CONSERVATIVE
    conservative_mem = config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION
    collect_lifetimes = config.collect_lifetimes
    export = fr is not None
    generic_well = export and fr.kernel == KERNEL_GENERIC

    index = _get_index(trace, conservative, start, end)
    n = index["n"]
    ops = index["ops"]
    ordinary = index["ordinary"]
    lat = _np.asarray(config.latency.as_list(), dtype=_np.int64)
    top = lat[_np.minimum(ops, len(lat) - 1)] if n else lat[:0]
    sys_top = int(lat[_SYSCALL])
    rename_regs = config.rename_registers
    rename_stack = config.rename_stack
    rename_data = config.rename_data
    all_renamed = rename_regs and rename_stack and rename_data
    stack_bound = MEM_BASE + segments.stack_floor
    G = index["groups"]
    nwrites = index["nwrites"]

    # Incoming state (fresh defaults when fr is None).
    if export:
        in_floor_m1 = fr.floor - 1
        in_deepest = fr.deepest
        in_mem_store = fr.mem_store_level
        in_mem_acc = fr.mem_deepest_access
        well = fr.well
    else:
        in_floor_m1 = -1
        in_deepest = -1
        in_mem_store = in_mem_acc = NEVER_USED
        well = None

    lvl = _np.full(n, _NEG, dtype=_np.int64)
    C = _np.full(n, _NEG, dtype=_np.int64)

    # Incoming well entries, one slot per in-batch location group.
    g_loc_list = index["g_loc"].tolist() if export else None
    g_in = None
    if export and well and G:
        get = well.get
        entries = [get(loc) for loc in g_loc_list]
        g_in = _np.array([e is not None for e in entries], dtype=bool)
        if not g_in.any():
            g_in = None
    if g_in is not None:
        if generic_well:
            g_in_level = _np.fromiter(
                (e[0] if e is not None else _NEG for e in entries),
                dtype=_np.int64, count=G,
            )
            g_in_deep = _np.fromiter(
                (e[1] if e is not None else NEVER_USED for e in entries),
                dtype=_np.int64, count=G,
            )
            g_in_uses = _np.fromiter(
                (e[2] if e is not None else 0 for e in entries),
                dtype=_np.int64, count=G,
            )
            g_in_pre = _np.fromiter(
                (bool(e[3]) if e is not None else False for e in entries),
                dtype=bool, count=G,
            )
        else:
            g_in_level = _np.fromiter(
                (e if e is not None else _NEG for e in entries),
                dtype=_np.int64, count=G,
            )

    # -- dependence edges ----------------------------------------------------
    raw_dst = index["raw_dst"]
    e_src = [index["raw_src"]]
    e_dst = [raw_dst]
    e_w = [top[raw_dst]]
    if not all_renamed:
        war_loc = index["war_loc"]
        part_reg = war_loc < MEM_BASE
        part_stack = war_loc >= stack_bound
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
        # Incoming memory levels constrain the batch's prefix: loads
        # before the first in-batch store see the carried store level;
        # the first store sees the carried deepest access (later stores
        # are dominated via the in-batch chain).
        if in_mem_store != NEVER_USED:
            pre_loads = memrec[loads[lsel < 0]]
            if len(pre_loads):
                _np.maximum.at(C, pre_loads, in_mem_store + top[pre_loads])
        if in_mem_acc != NEVER_USED:
            stores = _np.nonzero(is_store)[0]
            if len(stores):
                first_store = int(memrec[stores[0]])
                bound = in_mem_acc + 1
                if bound > C[first_store]:
                    C[first_store] = bound

    e_src = _np.concatenate(e_src)
    e_dst = _np.concatenate(e_dst)
    e_w = _np.concatenate(e_w)

    # Incoming-well seeds: base reads start from the carried level; the
    # first in-batch writer of a non-renamed location starts past the
    # carried deepest use (python's WAR term against the incoming entry).
    if g_in is not None:
        base_rec = index["base_rec"]
        if len(base_rec):
            sel = g_in[index["base_grp"]]
            if sel.any():
                recs = base_rec[sel]
                _np.maximum.at(
                    C, recs, g_in_level[index["base_grp"][sel]] + top[recs]
                )
        if generic_well and not all_renamed:
            fw = index["g_first_w_rec"]
            gl = index["g_loc"]
            preg = gl < MEM_BASE
            pstk = gl >= stack_bound
            nonren = _np.zeros(G, dtype=bool)
            if not rename_regs:
                nonren |= preg
            if not rename_stack:
                nonren |= pstk
            if not rename_data:
                nonren |= ~(preg | pstk)
            cand = (
                g_in
                & (fw >= 0)
                & (g_in_deep != NEVER_USED)
                & nonren
                & ~index["syscall"][_np.maximum(fw, 0)]
            )
            if cand.any():
                _np.maximum.at(C, fw[cand], g_in_deep[cand] + 1)

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

    floorv = _np.empty(n, dtype=_np.int64) if export else None
    arange_n = _np.arange(n, dtype=_np.int64)
    mv_C = memoryview(C)
    mv_lvl = memoryview(lvl)
    mv_indeg = memoryview(indeg)
    mv_dst = memoryview(i_dst)
    mv_w = memoryview(i_w)
    mv_ptr = memoryview(indptr)
    seed = _seed_frontier_batch  # late-bound for the mutation harness

    floor_m1 = in_floor_m1
    deepest = in_deepest
    b = 0
    for lo, hi in zip(los, cuts):
        if lo < hi:
            if floorv is not None:
                floorv[lo:hi] = floor_m1
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
            if floorv is not None:
                floorv[hi] = floor_m1
            deepest = level
            floor_m1 = level

    # -- stats ---------------------------------------------------------------
    placed_mask = index["placed_mask"]
    placed = int(placed_mask.sum())
    plv = lvl[placed_mask]
    profile = _profile_counts(plv) if config.collect_profile else None
    firewalls = len(sys_list)

    # Token reductions: per-write uses/deepest-use, plus merged base
    # tokens (incoming or first-touch entries and their pre-first-write
    # reads) — everything lifetimes and the exported well need.
    tok_uses = tok_deep = None
    if collect_lifetimes or generic_well:
        total = nwrites + G
        read_tok = index["read_tok"]
        tok_uses = _np.bincount(read_tok, minlength=total) if total else None
        tok_deep = _np.full(total, NEVER_USED, dtype=_np.int64)
        if len(read_tok):
            _np.maximum.at(tok_deep, read_tok, lvl[index["read_rec"]])
        if g_in is not None and generic_well:
            tok_uses[nwrites:] += _np.where(g_in, g_in_uses, 0)
            tok_deep[nwrites:] = _np.maximum(
                tok_deep[nwrites:], _np.where(g_in, g_in_deep, NEVER_USED)
            )

    lifetimes = None
    if collect_lifetimes:
        tok_rec = index["tok_rec"]
        tok_def = lvl[tok_rec] if nwrites else _np.empty(0, dtype=_np.int64)
        w_uses = tok_uses[:nwrites] if tok_uses is not None else tok_def
        w_deep = tok_deep[:nwrites] if tok_deep is not None else tok_def
        if export:
            # Only tokens actually evicted in this batch: writes with a
            # later write to the same location, plus incoming
            # non-preexisting entries overwritten by the batch's first
            # write. Entries still live stay in the well; finalize()
            # flushes them.
            evicted = ~index["tok_last"]
            defs = [tok_def[evicted]]
            deeps = [w_deep[evicted]]
            uses = [w_uses[evicted]]
            if g_in is not None:
                ev_in = g_in & ~g_in_pre & (index["g_first_w_rec"] >= 0)
                if ev_in.any():
                    defs.append(g_in_level[ev_in])
                    deeps.append(tok_deep[nwrites:][ev_in])
                    uses.append(tok_uses[nwrites:][ev_in])
            defs = _np.concatenate(defs)
            deeps = _np.concatenate(deeps)
            uses = _np.concatenate(uses)
            if len(defs):
                life = _np.where(uses > 0, deeps - defs, 0)
                _hist_update(fr.life_hist, life)
                _hist_update(fr.share_hist, uses)
        else:
            # Whole trace: every write token flushes (base tokens are
            # preexisting first touches — never counted, matching the
            # python kernels' entry[3] guard).
            life_hist: dict = {}
            share_hist: dict = {}
            if nwrites:
                life = _np.where(w_uses > 0, w_deep - tok_def, 0)
                _hist_update(life_hist, life)
                _hist_update(share_hist, w_uses)
            lifetimes = LifetimeStats(
                lifetime_histogram=life_hist,
                sharing_histogram=share_hist,
                values_created=sum(share_hist.values()),
                total_uses=sum(u * c for u, c in share_hist.items()),
            )

    if not export:
        return {
            "records": n,
            "placed": placed,
            "deepest": deepest,
            "profile": profile,
            "syscalls": index["n_syscalls"],
            "firewalls": firewalls,
            "branches": index["branches"],
            "peak": G,
            "lifetimes": lifetimes,
        }

    # -- frontier export -----------------------------------------------------
    if G:
        g_last_tok = index["g_last_tok"]
        has_w = g_last_tok >= 0
        safe_tok = _np.maximum(g_last_tok, 0)
        tok_rec = index["tok_rec"]
        lvl_w = (
            lvl[tok_rec[safe_tok]] if nwrites else _np.zeros(G, dtype=_np.int64)
        )
        ft_level = floorv[index["g_first_rec"]]
        if g_in is not None:
            out_level = _np.where(
                has_w, lvl_w, _np.where(g_in, g_in_level, ft_level)
            )
        else:
            out_level = _np.where(has_w, lvl_w, ft_level)
        if generic_well:
            out_deep = _np.where(has_w, tok_deep[safe_tok], tok_deep[nwrites:])
            out_uses = _np.where(has_w, tok_uses[safe_tok], tok_uses[nwrites:])
            if g_in is not None:
                out_pre = _np.where(has_w, False, _np.where(g_in, g_in_pre, True))
            else:
                out_pre = ~has_w
            for loc, level, deep, use, pre in zip(
                g_loc_list,
                out_level.tolist(),
                out_deep.tolist(),
                out_uses.tolist(),
                out_pre.tolist(),
            ):
                well[loc] = [level, deep, use, pre]
        else:
            for loc, level in zip(g_loc_list, out_level.tolist()):
                well[loc] = level

    fr.floor = floor_m1 + 1
    fr.deepest = deepest
    fr.records += n
    fr.placed += placed
    fr.syscalls += index["n_syscalls"]
    fr.firewalls += firewalls
    fr.branches += index["branches"]
    if profile is not None and fr.profile is not None:
        merged = fr.profile
        get = merged.get
        for level, count in profile.items():
            merged[level] = get(level, 0) + count
    if conservative_mem and len(memrec):
        mem_levels = lvl[memrec]
        deepest_access = int(mem_levels.max())
        if deepest_access > fr.mem_deepest_access:
            fr.mem_deepest_access = deepest_access
        if is_store.any():
            store_level = int(mem_levels[is_store].max())
            if store_level > fr.mem_store_level:
                fr.mem_store_level = store_level
    return None


# -- public entry points -----------------------------------------------------


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
        return _analyze(trace, config, segments)
    with _span("kernel.scan.vkernel"):
        return _analyze(trace, config, segments)


def _analyze(trace, config, segments) -> AnalysisResult:
    out = _execute(trace, config, segments, 0, len(trace.opclass), None)
    return AnalysisResult(
        records_processed=out["records"],
        placed_operations=out["placed"],
        critical_path_length=out["deepest"] + 1,
        profile=(
            ParallelismProfile(out["profile"]) if config.collect_profile else None
        ),
        syscalls=out["syscalls"],
        firewalls=out["firewalls"],
        branches=out["branches"],
        mispredictions=0,
        peak_live_well=out["peak"],
        lifetimes=out["lifetimes"],
        config=config,
    )


def advance_batch(frontier, trace, start: int, end: int) -> bool:
    """Vectorized :func:`repro.core.stream.advance` over ``[start, end)``.

    Returns False — leaving the frontier untouched — when the batch
    cannot run vectorized (NumPy absent, ineligible config, or columns
    without a plain buffer); the caller then falls back to the python
    per-record loops. On True the frontier state is exactly what the
    python advance would have produced.
    """
    if _np is None:
        return False
    if not eligible(frontier.config):
        return False
    try:
        memoryview(trace.opclass)
    except TypeError:
        return False
    _execute(trace, frontier.config, frontier.segments, start, end, frontier)
    return True


__all__ = [
    "BACKENDS",
    "BACKEND_NUMPY",
    "BACKEND_PYTHON",
    "advance_batch",
    "analyze_vectorized",
    "available",
    "eligible",
]
