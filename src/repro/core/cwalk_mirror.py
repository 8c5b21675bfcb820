"""Pure-Python mirror of the compiled walk engine.

The C walk kernel in ``_kernels.c`` (``as_walk_init``/``as_walk_run``) can
draw from its own xoshiro256** stream (the compiled engine's mode), and
those trajectories cannot be checked against the NumPy engine — they are
different (equally valid) random walks.  This module is the *specification*
that mode is tested against instead: a line-for-line Python
re-implementation of the walk's control flow driven by the same xoshiro256**
stream, consuming draws at exactly the same points.  (The kernel's other
mode draws from a NumPy generator and is tested against the NumPy engine
itself, see ``tests/test_generator_walk.py``.)  A compiled
walk and a :class:`MirrorWalk` started from the same seed must agree on
every bit of state after every iteration — permutation, cost, error vector,
tabu marks, all counters and the RNG words — and the trajectory test-suite
asserts exactly that across all three compiled families and every ablation
flag.

To keep the mirror an *independent* check rather than a transliteration of
the C arithmetic, all cost/error/delta evaluations here are brute-force
recomputations from the permutation (exact integers, so ties and argmins
are reproduced exactly); only the control flow and the RNG draws mirror the
kernel line for line.

The parameter blocks (``pi``/``pd``) use the same slot layout as the C side;
:mod:`repro.core.cwalk` defines the indices and builds the blocks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["Xoshiro256", "MirrorWalk"]

_MASK64 = (1 << 64) - 1
_I64_MAX = (1 << 63) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64(x: int):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, z ^ (z >> 31)


class Xoshiro256:
    """xoshiro256** seeded through a splitmix64 chain, exactly as in C."""

    def __init__(self, seed: int) -> None:
        x = seed & _MASK64
        state = []
        for _ in range(4):
            x, value = _splitmix64(x)
            state.append(value)
        self.s = state

    def next_u64(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, k: int) -> int:
        """Integer in [0, k) — same plain-modulo draw as the kernel."""
        return self.next_u64() % k

    def random(self) -> float:
        """Double in [0, 1) from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def shuffle(self, arr: List[int]) -> None:
        """Backward Fisher-Yates, one ``below`` draw per step."""
        for t in range(len(arr) - 1, 0, -1):
            q = self.below(t + 1)
            arr[t], arr[q] = arr[q], arr[t]


# --------------------------------------------------------------------- walk
class MirrorWalk:
    """One walk of the compiled engine, advanced in pure Python.

    ``pi``/``pd``/``wd``/``consts`` use the kernel's parameter layout (see
    :mod:`repro.core.cwalk`); ``seed`` feeds the embedded RNG; ``given``
    skips the initial permutation draw (mirroring ``use_given``).
    """

    def __init__(
        self,
        pi: Sequence[int],
        pd: Sequence[float],
        wd: Sequence[int],
        consts: Sequence[int],
        seed: int,
        given: Optional[Sequence[int]] = None,
    ) -> None:
        (
            self.n,
            self.family,
            self.target,
            self.max_iter,
            self.tenure,
            self.reset_limit,
            self.reset_k,
            self.restart_limit,
            self.max_restarts,
            self.clear_tabu,
            self.dedicated,
            self.D,
            _wx,
            self.off,
            _l,
            _nconsts,
        ) = [int(v) for v in pi[:16]]
        self.plateau_p = float(pd[0])
        self.localmin_p = float(pd[1])
        self.wd = [int(v) for v in wd]
        self.consts = [int(v) for v in consts][: _nconsts]
        self.rng = Xoshiro256(int(seed))
        if given is None:
            perm = list(range(self.n))
            self.rng.shuffle(perm)
        else:
            perm = [int(v) for v in given]
        self.perm = perm
        self.cost = self._cost(perm)
        self.tabu = [0] * self.n
        self.errs = [0] * self.n
        self.err_valid = False
        self.iteration = 0
        self.swaps = 0
        self.plateau_moves = 0
        self.local_minima = 0
        self.resets = 0
        self.restarts = 0
        self.marked_since_reset = 0
        self.iters_since_restart = 0
        self.best_cost = self.cost
        self.best = list(perm)
        self.status = 0  # 0 running, 1 solved, 2 max_iterations

    # ----------------------------------------------------- brute-force family
    def _cost(self, p: Sequence[int]) -> int:
        n = self.n
        if self.family == 0:  # costas: weighted duplicates per triangle row
            cost = 0
            for d in range(1, self.D + 1):
                w = self.wd[d - 1]
                seen = set()
                for k in range(n - d):
                    v = p[k + d] - p[k]
                    if v in seen:
                        cost += w
                    else:
                        seen.add(v)
            return cost
        if self.family == 1:  # queens: extra occupants per diagonal
            up = {}
            down = {}
            for i in range(n):
                up[i + p[i]] = up.get(i + p[i], 0) + 1
                down[i - p[i]] = down.get(i - p[i], 0) + 1
            return sum(c - 1 for c in up.values() if c > 1) + sum(
                c - 1 for c in down.values() if c > 1
            )
        counts = {}  # all-interval: extra occurrences per |difference|
        for k in range(n - 1):
            v = abs(p[k + 1] - p[k])
            counts[v] = counts.get(v, 0) + 1
        return sum(c - 1 for c in counts.values() if c > 1)

    def _errors(self, p: Sequence[int]) -> List[int]:
        n = self.n
        errs = [0] * n
        if self.family == 0:  # repeats (beyond the first) hit both columns
            for d in range(1, self.D + 1):
                w = self.wd[d - 1]
                seen = set()
                for k in range(n - d):
                    v = p[k + d] - p[k]
                    if v in seen:
                        errs[k] += w
                        errs[k + d] += w
                    else:
                        seen.add(v)
            return errs
        if self.family == 1:  # co-occupants on the two diagonals through i
            up = {}
            down = {}
            for i in range(n):
                up[i + p[i]] = up.get(i + p[i], 0) + 1
                down[i - p[i]] = down.get(i - p[i], 0) + 1
            return [up[i + p[i]] - 1 + down[i - p[i]] - 1 for i in range(n)]
        seen = set()  # repeated intervals blame both endpoints
        for k in range(n - 1):
            v = abs(p[k + 1] - p[k])
            if v in seen:
                errs[k] += 1
                errs[k + 1] += 1
            else:
                seen.add(v)
        return errs

    def _deltas(self, i: int) -> List[int]:
        p = self.perm
        base = self.cost
        deltas = [0] * self.n
        for j in range(self.n):
            if j == i:
                continue
            p[i], p[j] = p[j], p[i]
            deltas[j] = self._cost(p) - base
            p[i], p[j] = p[j], p[i]
        deltas[i] = _I64_MAX
        return deltas

    # --------------------------------------------------------------- resets
    def _generic_reset(self) -> None:
        rng, p, n, k = self.rng, self.perm, self.n, self.reset_k
        idx = list(range(n))
        for t in range(k):  # partial Fisher-Yates: k distinct positions
            q = t + rng.below(n - t)
            idx[t], idx[q] = idx[q], idx[t]
        vals = [p[idx[t]] for t in range(k)]
        rng.shuffle(vals)
        for t in range(k):
            p[idx[t]] = vals[t]
        self.cost = self._cost(p)

    def _dedicated_reset(self) -> None:
        rng, p, n = self.rng, self.perm, self.n
        errs, entry_cost = self.errs, self.cost
        worst = max(errs)
        worst_cols = [k for k in range(n) if errs[k] == worst]
        vm = worst_cols[rng.below(len(worst_cols))]

        cands: List[List[int]] = []
        for t in range(n - 1):  # family 1: sub-arrays through vm, both shifts
            lo, hi = (t, vm) if t < vm else (vm, t + 1)
            left = list(p)
            left[lo:hi] = p[lo + 1 : hi + 1]
            left[hi] = p[lo]
            right = list(p)
            right[lo + 1 : hi + 1] = p[lo:hi]
            right[lo] = p[hi]
            cands.append(left)
            cands.append(right)
        for c in self.consts:  # family 2: add a constant modulo n
            cands.append([(v + c) % n for v in p])
        erroneous = [k for k in range(n) if errs[k] > 0 and k != vm]
        if erroneous:  # family 3: prefix shift at up to 3 random error columns
            rng.shuffle(erroneous)
            for e in erroneous[:3]:
                if e < 1:
                    continue
                cand = list(p)
                cand[0:e] = p[1 : e + 1]
                cand[e] = p[0]
                cands.append(cand)

        costs = [self._cost(c) for c in cands]
        order = list(range(len(cands)))
        rng.shuffle(order)
        chosen = -1
        best = _I64_MAX
        for t in order:  # first strict improvement wins
            if costs[t] < entry_cost:
                chosen = t
                break
            best = min(best, costs[t])
        if chosen < 0:  # else uniform among minimum-cost candidates
            ties = [t for t in order if costs[t] == best]
            chosen = ties[rng.below(len(ties))]
        self.perm = cands[chosen]
        self.cost = costs[chosen]

    # ------------------------------------------------------------------ run
    def run(self, steps: int) -> bool:
        """Advance up to *steps* iterations; ``True`` while still running."""
        rng = self.rng
        executed = 0
        while True:
            if self.cost <= self.target:
                self.status = 1
                break
            if self.max_iter >= 0 and self.iteration >= self.max_iter:
                self.status = 2
                break
            if executed >= steps:
                break
            self.iteration += 1
            executed += 1
            self.iters_since_restart += 1
            n, p, it = self.n, self.perm, self.iteration

            if not self.err_valid:
                self.errs = self._errors(p)
                self.err_valid = True

            # Culprit: tabu-masked argmax with uniform tie-break; when every
            # variable is tabu the mask is dropped (the all-tabu edge case).
            active = [self.tabu[k] >= it for k in range(n)]
            masked = any(active) and not all(active)
            values = [
                -1 if (masked and active[k]) else self.errs[k] for k in range(n)
            ]
            top = max(values)
            ties = [k for k in range(n) if values[k] == top]
            culprit = ties[rng.below(len(ties))]

            deltas = self._deltas(culprit)
            best_delta = min(deltas)
            take = marked = False
            if best_delta < 0:
                take = True
            elif best_delta == 0:
                if rng.random() < self.plateau_p:
                    take = True
                    self.plateau_moves += 1
                else:
                    marked = True
            else:
                self.local_minima += 1
                if rng.random() < self.localmin_p:
                    take = True
                else:
                    marked = True
            if take:
                partners = [k for k in range(n) if deltas[k] == best_delta]
                partner = partners[rng.below(len(partners))]
                p[culprit], p[partner] = p[partner], p[culprit]
                self.cost += best_delta
                self.swaps += 1
                self.err_valid = False
            if marked:
                self.tabu[culprit] = it + self.tenure
                self.marked_since_reset += 1
                if self.marked_since_reset >= self.reset_limit:
                    self.resets += 1
                    if self.family == 0 and self.dedicated:
                        self._dedicated_reset()
                    else:
                        self._generic_reset()
                    self.err_valid = False
                    self.marked_since_reset = 0
                    if self.clear_tabu:
                        self.tabu = [0] * n
            if (
                self.restart_limit >= 0
                and self.iters_since_restart >= self.restart_limit
                and self.restarts < self.max_restarts
            ):
                self.restarts += 1
                fresh = list(range(n))
                rng.shuffle(fresh)
                self.perm = fresh
                self.cost = self._cost(fresh)
                self.err_valid = False
                self.tabu = [0] * n
                self.marked_since_reset = 0
                self.iters_since_restart = 0
            p = self.perm
            if self.cost < self.best_cost:
                self.best_cost = self.cost
                self.best = list(p)
        return self.status == 0
