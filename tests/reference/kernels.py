"""The search kernels the tempering hot loop replaced.

* Per-replica move/undo kernels: one replica, one move at a time.  The
  product applies every replica's move of a step in one batched pass
  (:meth:`~repro.core.tensor_eval.TensorWorkloadModel.apply_moves`).
* The per-call reuse/price tail, which re-derives every reuse set's
  constants on each call.  The product compiles them once per workload
  (:class:`~repro.core.utility.PlanTail` +
  :func:`~repro.core.utility.finalize_plan_metrics`).

``tests/test_kernel_reference.py`` checks the product against these bit
for bit under Hypothesis.
"""

from __future__ import annotations

from repro.cloud.storage import Tier
from repro.core.cost import holding_cost
from repro.core.utility import price_plan

__all__ = [
    "ref_bulk_app_move",
    "ref_finalize",
    "ref_group_move",
    "ref_group_step",
    "ref_job_move",
    "ref_job_step",
    "ref_revert",
]


def ref_job_move(model, state, r, n, new_t, new_l):
    a = int(model.app_idx[n])
    old_t, old_l = int(state.tier[r, n]), int(state.lvl[r, n])
    row = state.stats[r, a]
    undo = (n, old_t, old_l, a, row.copy())
    row[old_t] -= model.job_vec[n, model._ri01[old_t], old_l]
    row[new_t] += model.job_vec[n, model._ri01[new_t], new_l]
    state.tier[r, n] = new_t
    state.lvl[r, n] = new_l
    return undo


def ref_bulk_app_move(model, state, r, a, new_t, new_l):
    ns = model.app_members[a]
    row = state.stats[r, a]
    undo = (ns, state.tier[r, ns].copy(), state.lvl[r, ns].copy(), a, row.copy())
    row[:] = 0.0
    row[new_t] = model.app_lvl[a, model._ri01[new_t], new_l]
    state.tier[r, ns] = new_t
    state.lvl[r, ns] = new_l
    return undo


def ref_group_move(model, state, r, g, new_t, new_l):
    ns = model.groups[g]
    undo = (ns, state.tier[r, ns].copy(), state.lvl[r, ns].copy(), None,
            state.stats[r].copy())
    for n in ns.tolist():
        ot, ol = int(state.tier[r, n]), int(state.lvl[r, n])
        nt = ot if new_t is None else new_t
        nl = ol if new_l is None else new_l
        a = int(model.app_idx[n])
        state.stats[r, a, ot] -= model.job_vec[n, model._ri01[ot], ol]
        state.stats[r, a, nt] += model.job_vec[n, model._ri01[nt], nl]
        state.tier[r, n] = nt
        state.lvl[r, n] = nl
    return undo


def ref_revert(state, r, undo):
    ns, old_t, old_l, a, saved = undo
    state.tier[r, ns] = old_t
    state.lvl[r, ns] = old_l
    if a is None:
        state.stats[r] = saved
    else:
        state.stats[r, a] = saved


def ref_group_step(model, state, kind, g, to, lm):
    undos = []
    for r in range(len(kind)):
        new_t = new_l = None
        if kind[r] != 1:
            cur = int(state.tier[r, model.groups[g[r]][0]])
            new_t = to[r] if to[r] < cur else to[r] + 1
        if kind[r] != 0:
            new_l = lm[r] + 1
        undos.append(ref_group_move(model, state, r, g[r], new_t, new_l))
    return undos


def ref_job_step(model, state, kind, n, a, t, to, lm):
    undos = []
    for r in range(len(kind)):
        if kind[r] == 3:
            undos.append(ref_bulk_app_move(model, state, r, a[r], t[r], lm[r] + 1))
            continue
        cur = int(state.tier[r, n[r]])
        jt = cur if kind[r] == 1 else (to[r] if to[r] < cur else to[r] + 1)
        jl = int(state.lvl[r, n[r]]) if kind[r] == 0 else lm[r] + 1
        undos.append(ref_job_move(model, state, r, n[r], jt, jl))
    return undos


def ref_finalize(workload, plan, download_of, makespan_s, billed, reuse_aware,
                 cluster, provider):
    extra_holding_usd = 0.0
    if reuse_aware:
        placements = plan.placements
        for members, shared_gb, window_s in workload.reuse_table:
            tiers = list(dict.fromkeys(placements[j].tier for j in members))
            if len(tiers) == 1:
                tier = tiers[0]
                if tier is Tier.EPH_SSD:
                    by_dl = sorted(members, key=download_of)
                    for j in by_dl[:-1]:
                        makespan_s -= download_of(j)
                dup = (len(members) - 1) * shared_gb
                billed[tier] = max(0.0, billed.get(tier, 0.0) - dup)
                backing = provider.service(tier).requires_backing
                if backing is not None:
                    billed[backing] = max(0.0, billed.get(backing, 0.0) - dup)
            extra_s = max(0.0, window_s - makespan_s)
            if extra_s > 0:
                for tier in tiers:
                    extra_holding_usd += holding_cost(provider, tier, shared_gb, extra_s)
    cost, utility = price_plan(makespan_s, billed, cluster, provider, extra_holding_usd)
    return makespan_s, cost, utility
