"""Exhaustive search core over assignments and per-processor job orders.

Inputs are pre-scaled integer processing times and weights (callers clear
dyadic denominators with a common power of two), so everything here is
integer arithmetic: with integer ``p`` the start time of position ``i``
scaled by ``2**(i-1)`` obeys ``t_1 = 0``, ``t_{i+1} = t_i + p_i * 2**(i-1)``,
a job is feasible at depth ``d`` iff ``p << d > t``, and sequence values
accumulate exactly when scaled by ``2**k``.  ``search`` returns the best
total scaled by ``2**n``.

The result carries a deterministic tie-break: the lexicographically
smallest assignment vector (0 = private only, then processors 1..m),
whose per-processor orders are each the lexicographically smallest
optimal order of their job set.  ``search`` computes it in two phases.

*Subset phase*, a forward dominance DP over subsets.  A prefix state is
``(t, v, order)``: its start time ``t`` scaled by ``2**depth`` and its
value ``v`` scaled by ``2**n``.  Every arrival at a subset competes for
that subset's own optimum (largest ``v``, then smallest order) before any
pruning, since a state that ends the order needs no room after it.  The
subset then keeps only its Pareto front: ``t`` ascending, ``v`` strictly
increasing, and the smallest order among equal ``(t, v)``.  This is exact
because weights are positive and ``T_{d+1} = (T_d + p)/2`` rises strictly
with ``T_d``: every suffix feasible after a prefix with larger ``t`` is
feasible after one with smaller ``t`` and earns strictly more there.  A
dropped prefix is therefore beaten by a kept one under every non-empty
suffix, or it ties a kept one of equal ``(t, v)`` whose order is smaller,
so the smallest optimal order of every subset survives to be recorded.

*Assignment phase*, a max-plus DP over job subsets.  Relabelling the
shared processors never changes the total, so label each partition
canonically: 0 for a private job, and the blocks numbered 1, 2, ... in the
order of their lowest jobs; this is the lexicographically smallest of its
relabellings, so the smallest optimal assignment is canonical.  A cell
``(U, b)`` holds the best total of the jobs ``U`` on at most ``b``
processors and the smallest canonical label tuple of ``U``'s jobs that
reaches it; ``b`` runs up to ``min(m, n)``.  The lowest job of ``U`` either
runs privately, leaving cell ``(U - {low}, b)``, or opens the block
``T + {low}`` for some ``T`` within the rest of ``U``, leaving cell
``(U - T - {low}, b - 1)``.  The labels a cell keeps are the smallest, for
two reasons.  Private beats every block at the lowest job: its tuple starts
with 0 and every block's with 1.  For a fixed block, the merged tuple (1 on
the block, the sub-cell's labels raised by one elsewhere, 0 kept) is
monotone in the sub-cell's tuple, so the sub-cell's smallest tuple gives
the block's smallest one.  A tuple spans all ``n`` jobs with 0 outside
``U``, which no comparison within a cell can tell apart.  Labels are built
and compared only when a candidate ties or beats the best total so far.
Only the cell of all jobs is read at ``b = k``, ``k = min(m, n)``, and its
private option chains through the suffixes ``{i, ..., n-1}``, so that
layer computes just those ``n`` cells.  The cells cost
``(k - 1) * (3**n - 1) / 2 + (2**n - 1)`` block candidates and
``k * (2**n - 1) + n`` private ones.

``subset_best`` is the plain per-subset enumeration of every feasible
order, kept as the reference for the subset phase.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["search", "subset_best"]


def subset_best(p: list[int], w: list[int], mask: int) -> tuple[int, tuple[int, ...]]:
    """Best feasible order of the jobs in ``mask`` and its value scaled by 2**k.

    Every non-empty subset has a feasible order (ascending processing
    times always works), so the result is always defined.
    """
    members = [j for j in range(len(p)) if mask >> j & 1]
    k = len(members)
    best = -1
    best_perm: tuple[int, ...] = ()
    perm: list[int] = []

    def descend(used: int, depth: int, t: int, acc: int) -> None:
        nonlocal best, best_perm
        if depth == k:
            if acc > best:
                best = acc
                best_perm = tuple(perm)
            return
        shift = k - depth - 1
        for j in members:
            if used >> j & 1:
                continue
            pj = p[j] << depth
            if pj <= t:
                continue  # job no longer than its start time; prune this branch
            perm.append(j)
            descend(used | (1 << j), depth + 1, t + pj, acc + ((w[j] * (pj - t)) << shift))
            perm.pop()

    descend(0, 0, 0, 0)
    return best, best_perm


def _subset_optima(
    p: list[int], w: list[int], spend: Callable[[int], None] | None = None
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every subset's best value scaled by 2**n and its smallest optimal order.

    ``spend``, if given, is called at each depth with the number of prefix
    states about to be extended.
    """
    n = len(p)
    values = [0] * (1 << n)
    perms: list[tuple[int, ...]] = [()] * (1 << n)
    fronts: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {0: [(0, 0, ())]}
    for depth in range(n):
        if spend:
            spend(sum(map(len, fronts.values())))
        shift = n - depth - 1
        arrivals: dict[int, dict[int, tuple[int, tuple[int, ...]]]] = {}
        for mask, front in fronts.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                pj = p[j] << depth
                wj = w[j]
                by_t = arrivals.setdefault(mask | bit, {})
                for t, v, order in front:
                    if pj <= t:
                        break  # the front ascends in t: no later state fits j
                    nt = t + pj
                    nv = v + (wj * (pj - t) << shift)
                    held = by_t.get(nt)
                    if held is None or nv > held[0]:
                        by_t[nt] = (nv, order + (j,))
                    elif nv == held[0]:
                        extended = order + (j,)
                        if extended < held[1]:
                            by_t[nt] = (nv, extended)
        fronts = {}
        for mask, by_t in arrivals.items():
            best_v = -1
            best_order: tuple[int, ...] = ()
            front = []
            for t in sorted(by_t):
                v, order = by_t[t]
                if v > best_v:
                    best_v, best_order = v, order
                    front.append((t, v, order))
                elif v == best_v and order < best_order:
                    best_order = order
            values[mask] = best_v
            perms[mask] = best_order
            fronts[mask] = front
    return values, perms


def search(
    p: list[int], w: list[int], m: int, spend: Callable[[int], None] | None = None
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Exact optimum over all assignments and orders.

    Returns ``(value scaled by 2**n, assignment, per-processor orders)``
    where ``assignment[j]`` is 0 for private-only or the 1-based shared
    processor index.  ``spend``, if given, is called with the number of
    prefix states at each depth of the subset phase before they are
    extended.
    """
    n = len(p)
    values, perms = _subset_optima(p, w, spend)
    size = 1 << n
    k = min(m, n)
    totals: list[int] = []
    labels: list[tuple[int, ...]] = []
    for b in range(k + 1):  # the cells of b processors; below, those of b - 1
        below, below_labels = totals, labels
        totals, labels = [0] * size, [(0,) * n] * size
        # the last layer is read only at all the jobs, whose private option reads all but
        # the lowest job, and so on: there only the suffixes {i, ..., n-1} are needed
        cells = range(1, size) if b < k else [(size - 1) >> i << i for i in reversed(range(n))]
        for jobs in cells:
            rest = jobs & (jobs - 1)  # all but the lowest job
            best, best_labels = totals[rest], labels[rest]  # the lowest job runs privately
            left = rest
            while b:  # or it opens a block with the jobs of rest that ``left`` leaves out
                block = jobs ^ left
                total = values[block] + below[left]
                if total >= best:
                    sub = below_labels[left]
                    merged = tuple([1 if block >> j & 1 else q and q + 1 for j, q in enumerate(sub)])
                    if total > best or merged < best_labels:
                        best, best_labels = total, merged
                if not left:
                    break
                left = (left - 1) & rest
            totals[jobs], labels[jobs] = best, best_labels
    assign = labels[size - 1]
    masks = [0] * (m + 1)
    for j, proc in enumerate(assign):
        masks[proc] |= 1 << j
    return totals[size - 1], assign, tuple(perms[mask] for mask in masks[1:])
