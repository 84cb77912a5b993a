"""smo's steps for a batch of SVM problems at once, bit for bit. A grid
search hands solve_group as many training folds as its Gram stack budget
holds (all ten of the Cleveland table's), which solves every (fold, C)
problem of a sigma in one batch, and the C values share each fold's kernel
(the kernel reuse of LIBSVM; Chang & Lin, ACM TIST 2, 2011)."""
import math
import mmap

import numpy as np

from .svm import _ALPHA_EPS, _TOL, SMOResult, dual_objective, rbf_gram

_LOCKSTEP_STEPS_PER_ROW = 50
_HAND_BACK = 4


def smo_lockstep(K, y, C, fold) -> list:
    """smo's steps for B problems at once, on (B, n) arrays, bit for bit.

    K is a (folds, n, n) stack of Gram matrices and y the (folds, n) labels,
    both zero-padded past each fold's rows; problem b is fold[b] with cost
    C[b]. Each running problem has a slot, a row of every (slots, n) plane
    of R, U and V, three blocks that each stay small enough for the heap. R
    holds r over "up" (-inf elsewhere), r over "low" (+inf elsewhere) and r,
    so padding rows are in neither set and one R -= step moves all three.
    The curvature row (K_ii + K_jj) - 2 K_i is formed per step, not kept as
    an n x n matrix. A problem that finishes or is handed back is dropped:
    its slot leaves every per-slot array; slot[s] is the problem in slot s.

    Returns one SMOResult per problem, its dual objective taken on its
    fold's view of K, or None for a problem still running after
    _LOCKSTEP_STEPS_PER_ROW steps per row of its fold, or at _HAND_BACK
    times the step by which half the batch had finished. Its fit solves it
    alone with smo, and the fit of a candidate that has already failed never
    does; so a C that does not converge holds the batch for at most a tenth
    of smo's cap, and one beside others that do for a few times their steps.
    """
    fold, C = np.asarray(fold), np.asarray(C, dtype=np.float64)[:, None]
    B, n = len(fold), y.shape[1]
    # flat index b * n + i of row i of slot b in a plane, and row
    # fold * n + i of K viewed as (folds * n, n)
    K_rows = K.reshape(-1, n)
    Y = y[fold]
    pos = Y > 0
    sizes = np.count_nonzero(Y, axis=1)
    limits = _LOCKSTEP_STEPS_PER_ROW * sizes
    # U: u = alpha * y (a step is u_i += t, u_j -= t, t <= hi_i - u_i and
    # u_j - lo_j), hi and lo; V: hi - eps and lo + eps (a row is "up" while u
    # is below the one, "low" while above the other) and the Gram diagonal;
    # as negation is exact, these are smo's tests, bit for bit
    R = np.stack((np.where(pos, Y, -math.inf), np.where(Y < 0, Y, math.inf), Y))
    U = np.stack((np.zeros((B, n)), np.where(pos, C, 0.0), np.where(pos, 0.0, -C)))
    V = np.stack((U[1] - _ALPHA_EPS, U[2] + _ALPHA_EPS, K[:, np.arange(n), np.arange(n)][fold]))
    slot, out = np.arange(B), [None] * B
    trace = np.empty((256, B))  # objective after each step, grown by doubling
    b, dropped, it = np.empty((B, n)), True, 0
    while True:
        if dropped:
            # a plane of R[:, :slots] is contiguous, so ravel gives a view
            R0, R1, r, u, hi, lo, up_below, low_above = (q.ravel() for q in (*R, *U, *V[:2]))
            D = V[2]
            base = np.arange(len(slot)) * n
            K_off = fold[slot] * n - base
            b, dropped, next_limit = b[:len(slot)], False, limits[slot].min()
        i = R[0].argmax(axis=1) + base
        m, M = R0.take(i), R1.take(R[1].argmin(axis=1) + base)
        gap = m - M
        if it == next_limit or (gap < _TOL).any():
            done = gap < _TOL
            for s, p in zip(np.flatnonzero(done), slot[done]):
                a = np.abs(U[0, s, :sizes[p]])
                out[p] = SMOResult(a, 0.5 * (m.item(s) + M.item(s)), True, trace[:it, s].tolist(),
                                   dual_objective(K[fold[p]][:len(a), :len(a)], Y[p, :len(a)], a))
            if 2 * (len(slot) - done.sum()) <= B:
                np.minimum(limits, _HAND_BACK * it, out=limits)
            keep = ~done & (limits[slot] > it)
            left = int(keep.sum())
            if not left:
                return out
            # the kept slots past the first `left` move into the dropped ones
            holes, moved = np.flatnonzero(~keep[:left]), np.flatnonzero(keep[left:]) + left
            for A in (R, U, V, trace):
                A[:, holes] = A[:, moved]
            slot[holes] = slot[moved]
            R, U, V, trace = R[:, :left], U[:, :left], V[:, :left], trace[:, :left]
            slot, dropped = slot[:left], True
            continue  # select again on the slots left, at the same step
        np.subtract(m[:, None], R[1], out=b)
        np.maximum(b, 0.0, out=b)
        K_i = K_rows.take(i + K_off, axis=0)
        a = np.add(D.take(i)[:, None], D)
        a -= np.multiply(K_i, 2.0)
        np.maximum(a, 1e-12, out=a)
        gain = b * b
        gain /= a
        j = gain.argmax(axis=1) + base
        b_j, a_j = b.take(j), a.take(j)
        u_i, u_j = u.take(i), u.take(j)
        t = b_j / a_j
        np.minimum(t, hi.take(i) - u_i, out=t)
        np.minimum(t, u_j - lo.take(j), out=t)
        u_i += t
        u_j -= t
        u.put(i, u_i)
        u.put(j, u_j)
        step = K_rows.take(j + K_off, axis=0)
        np.subtract(K_i, step, out=step)
        step *= t[:, None]
        R -= step
        if it == len(trace):
            trace = np.concatenate((trace, np.empty_like(trace)))
        trace[it] = (trace[it - 1] if it else 0.0) + t * (b_j - 0.5 * t * a_j)
        # i and j enter or leave up and low by their new u
        k, u_k = np.concatenate((i, j)), np.concatenate((u_i, u_j))
        r_k = r.take(k)
        R0.put(k, np.where(u_k < up_below.take(k), r_k, -math.inf))
        R1.put(k, np.where(u_k > low_above.take(k), r_k, math.inf))
        it += 1


def gram_workspace(nbytes: int) -> mmap.mmap:
    """An anonymous mapping of nbytes for solve_group's Gram stacks: not a
    malloc block, which once freed would raise glibc's mmap threshold, and
    pre-faulted where mmap has MAP_POPULATE (Linux), not a page at a time."""
    if hasattr(mmap, "MAP_POPULATE"):
        return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
    return mmap.mmap(-1, nbytes)


def solve_group(sets, candidates, live, workspace) -> dict:
    """{(s, c): SMOResult} of smo on sets[s] at each live SVM candidate c,
    by smo_lockstep on one zero-padded stack of the sets' Gram matrices per
    sigma, built in the buffer workspace() gives. Three kinds of problem are
    left out, for their fits to solve alone: the only problem of its sigma,
    which has no step to share; every problem of a sigma whose stack or solve
    overflows, so that the fit's error names its candidate; and a problem
    that smo_lockstep hands back. Nothing returned refers to the buffer, so
    the next solve may overwrite it."""
    by_sigma = {}
    for c in live:
        if candidates[c].algorithm == "svm":
            by_sigma.setdefault(candidates[c].sigma, []).append(c)
    solved = {}
    for sigma, cs in by_sigma.items():
        if len(sets) * len(cs) < 2:
            continue
        n = max(len(ds.y) for ds in sets)
        K = np.frombuffer(workspace(), count=len(sets) * n * n).reshape(len(sets), n, n)
        y = np.zeros((len(sets), n))
        problems = [(s, c) for s in range(len(sets)) for c in cs]
        try:
            with np.errstate(over="raise"):
                for s, ds in enumerate(sets):
                    m = len(ds.y)
                    rbf_gram(ds.X, ds.X, sigma, out=K[s, :m, :m])
                    K[s, :m, m:], K[s, m:] = 0.0, 0.0  # padding an earlier solve may have set
                    y[s, :m] = np.where(ds.y == 1, 1.0, -1.0)
                res = smo_lockstep(K, y, [candidates[c].C for _, c in problems],
                                   [s for s, _ in problems])
        except FloatingPointError:
            continue
        solved.update((p, r) for p, r in zip(problems, res) if r is not None)
    return solved
