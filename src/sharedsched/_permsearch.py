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

*Assignment phase*, a sweep over canonical labellings.  Relabelling the
shared processors never changes the total, and the canonical labelling
of a partition (job ``j`` goes private, to an already opened processor,
or to the next unopened one) is the lexicographically smallest of its
relabellings.  So the lexicographically smallest optimal assignment is
canonical, and a depth-first sweep over canonical labellings in
lexicographic order that keeps the first strict maximum finds it.

``subset_best`` is the plain per-subset enumeration of every feasible
order, kept as the reference for the subset phase.
"""

from __future__ import annotations

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
    p: list[int], w: list[int]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every subset's best value scaled by 2**n and its smallest optimal order."""
    n = len(p)
    values = [0] * (1 << n)
    perms: list[tuple[int, ...]] = [()] * (1 << n)
    fronts: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {0: [(0, 0, ())]}
    for depth in range(n):
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
    p: list[int], w: list[int], m: int
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Exact optimum over all assignments and orders.

    Returns ``(value scaled by 2**n, assignment, per-processor orders)``
    where ``assignment[j]`` is 0 for private-only or the 1-based shared
    processor index.
    """
    n = len(p)
    values, perms = _subset_optima(p, w)
    masks = [0] * (m + 1)
    assign = [0] * n
    best_total = -1
    best_assign: tuple[int, ...] = ()
    best_masks: list[int] = []

    def place(j: int, opened: int) -> None:
        nonlocal best_total, best_assign, best_masks
        if j == n:
            total = 0
            for proc in range(1, opened + 1):
                total += values[masks[proc]]
            if total > best_total:
                best_total = total
                best_assign = tuple(assign)
                best_masks = list(masks)
            return
        bit = 1 << j
        for proc in range(min(opened + 1, m) + 1):
            assign[j] = proc
            masks[proc] |= bit
            place(j + 1, max(opened, proc))
            masks[proc] ^= bit

    place(0, 0)
    return best_total, best_assign, tuple(perms[best_masks[proc]] for proc in range(1, m + 1))


def _labelling_count(n: int, m: int) -> int:
    """The leaves of ``search``'s sweep.  With a phantom job in the private
    block, each is a partition of n + 1 items into b blocks, b - 1 <= min(m, n)
    of them processors: the sum of S(n + 1, b) over those b."""
    row = [1]  # Stirling numbers of the second kind S(size, b), b = 0..size
    for _ in range(n + 1):
        row = [0] + [b * s + prev for b, (prev, s) in enumerate(zip(row, row[1:] + [0]), 1)]
    return sum(row[1 : min(m, n) + 2])
