"""Exhaustive backtracking oracles for n-th iterative roots on small grounds.

The search assigns images point by point in index order; per point the
candidate image sets are tried in size-then-lexicographic order over bitmask
values (a map's values in ascending order), so the first witness found is the
canonically least one and results are deterministic.  Pruning uses sound
filters only, which cut subtrees that hold no root: decided parts of the
n-step orbit must stay inside the target image (with equality once fully
decided), and any root must commute with the target.  So a root g of a map f
maps f's periodic points onto them, each f-cycle onto one as long, and is a
bijection there, as g^n = f is: one rule for every map, whose fixed points are
its 1-cycles and which on a permutation holds at every point.  The single-map
search applies it exactly, by the commutation argument of Isaacs (1950).  Once
g takes the value C'[t] at the least point b of an l-cycle C = (b, f(b), ...),
commutation fixes g(f^k(b)) = C'[(t + k) mod l] on all of C: an arc C -> C'
with offset t.  The arcs form paths and loops of l-cycles.  A loop of d cycles
whose offsets sum to S makes g^n = f on them iff d | n and S * (n / d) = 1
(mod l), and the open paths must group into loops of such sizes.  A value at b
is kept only if its arc passes this test, which is exact on the periodic
points.  So on a permutation the search never backtracks: it returns the least
root after size * (size + 1) / 2 nodes, at most size**2.  With no arc, the
test is the cycle type of f on its periodic points, read before any bound is
built: when it rules out a root, the search explores 0 nodes, in time linear
in the ground.  The arcs are kept in g, with one list of the cycle each arc
enters; the test walks the new arc's path.

The checks are incremental.  Depth i is reached only after the points
0..i-1 passed every check, and a check can change only if it involves the
newly decided point i, so at depth i only these are re-checked:

- commutation at i, and at the earlier x with i in F(x) (from F inverted);
  these depend on the earlier points alone except for G(i), so they become
  per-depth bounds on the candidate image (for a multifunction, at i once F(i)
  is decided: G(F(i)) = F(G(i)) must then hold F(y) for every y in G(i)).  For
  a map the bound is a sequence of values: one pinned value, the points that f
  maps to g(f(i)), or every point.  It holds ints, as every set of the
  single-map search does, so its memory is linear in the ground;
- the orbit of every decided x whose walk through decided points meets i
  within n - 1 steps, i itself included.  Both searches find these x by a
  reverse walk from i over the edges of the earlier points.  The multi-map
  search re-walks each orbit.  The single-map search does the reverse walk
  once per depth: the points that first meet i after k steps must all have
  the same f-image, which is then where step n - k of the walk from i must
  end, as f(i) is for step n.  These levels are disjoint lists of earlier
  points, so a depth keeps one list of at most i + 1 ends, indexed by step.
  Each value is checked by one forward walk from i that tests only the steps
  in the list.

No walk runs for n steps when n is large.  A single-map walk from i through
the i + 1 decided points that has made more than i steps has repeated a
point, so it is on its cycle, which gives the lowest checked step by its
index; at most i checked steps follow.  Once n exceeds the ground size, the
multi-map orbit walk, a sequence of sets, stops at its first repeated set
and reads step n off the cycle.  What a node costs is thus bounded by the
ground, not by n.

A node is one candidate image tried at one point, counted whether or not
the filters allow it.  Both searches count the candidates a depth's bounds
exclude without visiting them, by the index of the next one they allow: the
multi-map search enumerates the masks between its bounds (upper, lower) in
the class's order, each with its index there, and holds no other candidate.
A search therefore explores exactly the nodes that a full re-check of every
decided point at every node would explore.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb, gcd

from .core import Multifunction, SingleMap, _count, bits, invert, iterate, union_of

DEFAULT_BUDGET = 5_000_000

UNCONSTRAINED_VARIANT = "unconstrained"
MAX_OUT_VARIANT = "max-out"
MAX_IN_VARIANT = "max-in"


@dataclass(frozen=True)
class RootConstraint:
    """Candidate class for the search: free, out-degree bounded, or in-degree bounded."""

    variant: str = UNCONSTRAINED_VARIANT
    bound: int | None = None
    require_total_domain: bool = False

    def __post_init__(self) -> None:
        if self.variant not in (UNCONSTRAINED_VARIANT, MAX_OUT_VARIANT, MAX_IN_VARIANT):
            raise ValueError(f"unknown constraint variant {self.variant!r}")
        if not isinstance(self.require_total_domain, bool):
            raise ValueError("require_total_domain must be a bool")
        if self.variant != UNCONSTRAINED_VARIANT:
            object.__setattr__(self, "bound", _count(
                self.bound, 1, "degree-bounded constraints need a positive bound"))
        elif self.bound is not None:
            raise ValueError("an unconstrained search takes no degree bound")


UNCONSTRAINED = RootConstraint()


def max_out_degree(bound: int, require_total_domain: bool = False) -> RootConstraint:
    return RootConstraint(MAX_OUT_VARIANT, bound, require_total_domain)


def max_in_degree(bound: int, require_total_domain: bool = False) -> RootConstraint:
    return RootConstraint(MAX_IN_VARIANT, bound, require_total_domain)


@dataclass(frozen=True)
class SearchResult:
    """Witness, proof of absence by exhaustion, or an exhausted node budget."""

    order: int
    constraint: RootConstraint | None
    outcome: str  # "witness" | "exhausted" | "budget"
    witness: object = None
    nodes_explored: int = 0
    budget: int = 0
    elapsed: float = field(default=0.0, compare=False)

    @property
    def found(self) -> bool:
        return self.outcome == "witness"


class _BudgetExceeded(Exception):
    pass


def _masks(upper: int, need: int, t: int, j: int, m: int, fm: int, fimgs: tuple[int, ...]):
    """Yield (index, mask, F(mask)) for each mask m | s, in value order, where s
    holds t points of upper, need (at most t of them) among them.  Its index is
    j plus s's colex rank C(c_1, 1) + ... + C(c_t, t) over its points c_1 < ...
    < c_t (Knuth, TAOCP 4A, 7.2.1.3), and fm is F(m).  The points are chosen
    from the top: c_t ascending, then the rest below it."""
    if not t:
        yield j, m, fm
        return
    rest = upper  # c_t has t - 1 points of upper below it
    for _ in range(t - 1):
        rest &= rest - 1
    if need:  # and no point of need above it, and is need's highest if need has t
        h = 1 << need.bit_length() - 1
        rest &= h if need.bit_count() == t else -h
    while rest:  # bits() inlined: this is the hottest loop
        low = rest & -rest
        y = low.bit_length() - 1
        if t == 1:
            yield j + y, m | low, fm | fimgs[y]
        else:
            yield from _masks(upper & (low - 1), need & ~low, t - 1, j + comb(y, t), m | low,
                              fm | fimgs[y], fimgs)
        rest ^= low


def _search(target: Multifunction | SingleMap, n: int, constraint: RootConstraint | None,
            budget: int, max_points: int | None, engine) -> SearchResult:
    """Check the request, then run ``engine(n, budget)``, which returns ``(witness
    or None, nodes)`` or raises _BudgetExceeded on node ``budget + 1``, which it
    does not explore, so a budget verdict reports ``budget`` nodes; a witness
    is checked by iterating it, apart from the engine's incremental checks.  The
    engines recurse once per point, so a ground deeper than the caller's stack
    allows is refused when the recursion overflows, not by a fixed size."""
    n = _count(n, 2, "root order must be at least 2")
    budget = _count(budget, 1, "budget must be positive")
    size = target.ground.size
    if max_points is not None:
        max_points = _count(max_points, 1, "max_points must be positive")
        if size > max_points:
            raise ValueError(f"ground of {size} points exceeds max_points={max_points}")
    start = time.perf_counter()
    try:
        witness, nodes = engine(n, budget)
    except _BudgetExceeded:
        return SearchResult(n, constraint, "budget", None, budget, budget,
                            time.perf_counter() - start)
    except RecursionError:
        raise ValueError(f"ground of {size} points is deeper than the search can recurse") from None
    elapsed = time.perf_counter() - start
    if witness is None:
        return SearchResult(n, constraint, "exhausted", None, nodes, budget, elapsed)
    if iterate(witness, n) != target:
        raise RuntimeError(f"search witness is not an order-{n} root of the target")
    return SearchResult(n, constraint, "witness", witness, nodes, budget, elapsed)


def find_multi_root(F: Multifunction, n: int, constraint: RootConstraint = UNCONSTRAINED,
                    budget: int = DEFAULT_BUDGET, max_points: int | None = None) -> SearchResult:
    """Search for a multifunction G with G^n = F inside the constraint class; each
    depth enumerates its candidate images as it reads them, so the memory follows
    the ground, not the budget."""
    if not isinstance(F, Multifunction):
        raise TypeError("find_multi_root requires a multifunction")
    if not isinstance(constraint, RootConstraint):
        raise TypeError("the search constraint must be a RootConstraint")
    return _search(F, n, constraint, budget, max_points,
                   lambda n, b: _multi_engine(F, n, constraint, b))


def find_single_root(f: SingleMap, n: int, budget: int = DEFAULT_BUDGET,
                     max_points: int | None = None) -> SearchResult:
    """Search for a total map g with g^n = f, in canonical value order; either
    finder refuses a ground by its size only when ``max_points`` is given."""
    if not isinstance(f, SingleMap):
        raise TypeError("find_single_root requires a single map")
    return _search(f, n, None, budget, max_points, lambda n, b: _single_engine(f, n, b))


def _multi_engine(F: Multifunction, n: int, constraint: RootConstraint,
                  budget: int) -> tuple[Multifunction | None, int]:
    size = F.ground.size
    in_bound = constraint.bound if constraint.variant == MAX_IN_VARIANT else None
    fimgs = F.images
    fpreds = invert(F).images
    full = (1 << size) - 1
    # bases[k]: the index of the class's first k-point candidate, and bases[-1] the
    # number of candidates; the empty image is one unless the domain must be total
    highest = min(constraint.bound, size) if constraint.variant == MAX_OUT_VARIANT else size
    least = int(constraint.require_total_domain)
    bases = list(accumulate((comb(size, k) for k in range(highest + 1)), initial=-least))

    imgs = [0] * size
    preds = [0] * size  # at depth i, preds[y] holds the points x < i with y in imgs[x]
    nodes = 0

    def orbit_fits(x: int, decided: int) -> bool:
        # the n-step walks from x through decided points are a lower bound of
        # G^n(x), and they are all of it once no walk leaves the decided points.
        # Above the ground size, the walk stops at its first repeated set, whose
        # cycle gives step n; ``complete`` is a function of the set, so the steps
        # before the repeat decide it
        cur = imgs[x]  # step 1: x itself is decided
        complete = True
        seen = {} if n > size else None  # set -> the first step that reached it
        for step in range(1, n):
            if seen is not None:
                first = seen.setdefault(cur, step)
                if first != step:  # list(seen)[k] is the set at step k + 1
                    cur = list(seen)[first - 1 + (n - first) % (step - first)]
                    break
            if cur & ~decided:
                complete = False
            m, cur = cur & decided, 0  # union_of inlined: this is the hottest loop
            while m:
                low = m & -m
                cur |= imgs[low.bit_length() - 1]
                m ^= low
        return cur == fimgs[x] if complete else not cur & ~fimgs[x]

    def rec(i: int) -> bool:
        nonlocal nodes
        if i == size:
            return True
        bit = 1 << i
        earlier = bit - 1
        decided = earlier | bit
        # Commutation G(F(x)) = F(G(x)) at the earlier x with i in F(x): only
        # G(i) joins G(F(x)), whose other part already lies in F(G(x)).  So
        # G(i) must lie in F(G(x)), and once F(x) is decided it must also
        # cover what the other part misses.
        upper, lower = full, 0
        for x in bits(fpreds[i] & earlier):
            fg = union_of(fimgs, imgs[x])
            upper &= fg
            if not fimgs[x] & ~decided:
                lower |= fg & ~union_of(imgs, fimgs[x] & earlier)
        if in_bound is not None:  # a point with in_bound preimages takes no more
            for y in bits(upper):
                if preds[y].bit_count() >= in_bound:
                    upper ^= 1 << y
        # Commutation at i itself: F(G(i)) = G(F(i)), which holds gf_rest, and G(i)
        # if i is in F(i), and no more once F(i) is decided.  Then F(y) lies within
        # these for every y in G(i), so F's preimages of the rest leave upper
        fi = fimgs[i]
        gf_rest = union_of(imgs, fi & earlier)
        loops = fi & bit
        fi_decided = not fi & ~decided
        if fi_decided:
            upper &= ~union_of(fpreds, full & ~(gf_rest | upper if loops else gf_rest))
        # orbits: only the points whose decided walk meets i within n - 1
        # steps can change, and those walks use no edge of i before they meet it
        reach = frontier = bit
        for _ in range(n - 1):
            frontier = union_of(preds, frontier) & ~reach
            if not frontier:
                break
            reach |= frontier
        affected = tuple(bits(reach))
        last = -1  # every candidate j counts as a node, visited or not
        if not lower & ~upper:
            for k in range(max(least, lower.bit_count()), min(highest, upper.bit_count()) + 1):
                for j, m, fg in _masks(upper, lower, k, bases[k], 0, 0, fimgs):
                    nodes += j - last
                    last = j
                    if nodes > budget:
                        raise _BudgetExceeded
                    gf = gf_rest | m if loops else gf_rest
                    if (gf != fg) if fi_decided else (gf & ~fg):
                        continue
                    imgs[i] = m
                    for x in affected:
                        if not orbit_fits(x, decided):
                            break
                    else:
                        for y in bits(m):
                            preds[y] |= bit
                        if rec(i + 1):
                            return True
                        for y in bits(m):
                            preds[y] ^= bit
        nodes += bases[-1] - 1 - last
        if nodes > budget:
            raise _BudgetExceeded
        return False

    try:
        return (Multifunction(F.ground, tuple(imgs)) if rec(0) else None), nodes
    finally:
        del rec  # rec's closure holds rec: break the cycle so the lists are freed now


def _block(length: int, n: int) -> int:
    """a_l(n), the largest divisor of n whose primes all divide l: a g-cycle of
    length L splits under g^n into gcd(L, n) cycles of length L / gcd(L, n), so
    l-cycles of g^n come from loops of d l-cycles of g with d | n and gcd(l, n / d)
    = 1, and these d are the divisors of n that a_l(n) divides."""
    rest = n  # n with the primes of length divided out
    while (common := gcd(rest, length)) > 1:
        rest //= common
    return n // rest


def _failing_cycle_length(counts: dict[int, int], n: int) -> int | None:
    """The first cycle length l of ``counts`` ({l: number of l-cycles}) whose
    count is not a multiple of a_l(n), or None; a permutation with these counts
    has an n-th root iff it is None, since its l-cycles split into loops whose
    sizes a_l(n) divides, a_l(n) among them."""
    for length, count in counts.items():
        if count % _block(length, n):
            return length
    return None


def _packs(counts: list[int], up: list[int], total: int = 0, cap: int = 0) -> bool:
    """Whether open paths of l-cycles, counts[k] of them with k cycles each, can be
    closed into loops of allowed sizes, where up[s] is the least allowed size >= s.
    The sizes are multiples of the least one, up[1], and so is the number of cycles
    on the paths (the caller keeps it so).  So a path of one cycle can join any loop:
    the longer paths are grouped, each group opened by the longest path left and
    filled in non-increasing order (``total`` cycles so far, the last path of
    ``cap``), then padded up to an allowed size with paths of one cycle, and those
    left over close into loops of up[1] cycles."""
    if not total:
        k = len(counts) - 1
        while k > 1 and not counts[k]:
            k -= 1
        if k < 2:
            return True
        counts[k] -= 1
        found = _packs(counts, up, k, k)
        counts[k] += 1
        return found
    pad = up[total] - total
    if pad <= counts[1]:
        counts[1] -= pad
        found = _packs(counts, up)
        counts[1] += pad
        if found:
            return True
    for k in range(min(cap, len(counts) - 1 - total), 1, -1):
        if counts[k]:
            counts[k] -= 1
            found = _packs(counts, up, total + k, k)
            counts[k] += 1
            if found:
                return True
    return False


def _single_engine(f: SingleMap, n: int, budget: int) -> tuple[SingleMap | None, int]:
    size = f.ground.size
    fv = f.image
    # A root commutes with f, so it maps f's periodic points (its fixed points are the
    # 1-cycles) onto them, each f-cycle onto one as long, and is a bijection there, as
    # g^n = f is; a non-periodic point may go anywhere.  The periodic points are what
    # is left once the points no remaining point maps to are peeled off
    rows = invert(f).rows  # rows[v]: the points x with f(x) = v, ascending
    hits = list(map(len, rows))  # hits[y]: how many points x not peeled off have f(x) = y
    tails = [x for x in range(size) if not hits[x]]
    for x in tails:  # grows as it is read, and each point is peeled once
        hits[fv[x]] -= 1
        if not hits[fv[x]]:
            tails.append(fv[x])
    # each f-cycle C as the list C[k] = f^k(b) from its least point b, and for each
    # periodic point C[k], the index of C (else -1) and k
    members, cycle_of, pos = [], [-1] * size, [0] * size
    cycles = {}  # length -> the number of f-cycles that long
    for x in range(size):
        if hits[x] and cycle_of[x] < 0:
            cycle, y = [x], fv[x]
            while y != x:
                cycle.append(y)
                y = fv[y]
            for k, y in enumerate(cycle):
                cycle_of[y], pos[y] = len(members), k
            members.append(cycle)
            cycles[len(cycle)] = cycles.get(len(cycle), 0) + 1
    if _failing_cycle_length(cycles, n) is not None:
        return None, 0
    # the arcs chosen so far form paths and loops of l-cycles (see the module
    # docstring).  Cycles take their arcs in the order of their least points, so the
    # ones whose least point is below the depth have theirs, read off g; into[t] is
    # the cycle whose arc enters t, else -1.  No path is longer than the largest loop,
    # and one can be closed with any offset, so it needs only a loop size (_packs)
    into = [-1] * len(members)
    paths, up = {}, {}  # per length l: _packs's counts and allowed sizes for the l-cycles
    for length, number in cycles.items():
        step = _block(length, n)
        up[length] = sizes = []
        for d in range(step, number + 1, step):
            if not n % d:
                sizes += [d] * (d + 1 - len(sizes))
        paths[length] = [0] * len(sizes)
        paths[length][1] = number

    def walk(c: int, target: int) -> tuple[int, int, int]:
        # c, whose least point is the depth, ends its path: that path's cycles and the
        # sum of their offsets, then target's path's cycles, or 0 if it ends at c
        a, offsets, x = 1, 0, c
        while into[x] >= 0:
            x, a = into[x], a + 1
            offsets += pos[g[members[x][0]]]
        b, depth = 1, members[c][0]
        while members[target][0] < depth:
            target, b = cycle_of[g[members[target][0]]], b + 1
        return a, offsets, b if target != c else 0

    def move(counts: list[int], a: int, b: int, k: int) -> None:
        # k = -1 joins paths of a and b cycles (closes the one of a if b = 0); 1 undoes it
        counts[a] += k
        if b:
            counts[b] += k
            counts[a + b] -= k

    def link(c: int, v: int) -> bool:
        # add the arc from c, whose least point takes the value v, if a root extends it
        target, length = cycle_of[v], len(members[c])
        if target < 0 or into[target] >= 0 or len(members[target]) != length:
            return False
        (a, offsets, b), counts = walk(c, target), paths[length]
        if not b:  # the arc closes c's path into a loop, which g^n must turn by one
            if n % a or (offsets + pos[v]) * (n // a) % length != 1 % length:
                return False
        elif a + b >= len(counts):  # longer than any allowed loop
            return False
        move(counts, a, b, -1)
        if _packs(counts, up[length]):
            into[target] = c
            return True
        move(counts, a, b, 1)
        return False

    def unlink(c: int, v: int) -> None:
        into[cycle_of[v]] = -1
        a, _, b = walk(c, cycle_of[v])
        move(paths[len(members[c])], a, b, 1)

    full = range(size)  # the values of a point that nothing pins
    levels = range(1, n)  # the reverse walk's levels 1..n-1, one range for every depth

    g = [0] * size
    preds = [[] for _ in range(size)]  # at depth i, preds[v] lists the points x < i with g(x) = v
    nodes = 0

    def rec(i: int) -> bool:
        nonlocal nodes
        if i == size:
            return True
        # commutation f(g(x)) = g(f(x)) at the earlier x with f(x) = i fixes
        # g(i) = f(g(x)), and at i itself it fixes f(g(i)) = g(f(i)) once f(i) is
        # decided; on an f-cycle, the arc at its least point fixes the other points.
        # values is what they leave for g(i), in ascending order
        c = cycle_of[i]
        least = c >= 0 and not pos[i]
        values = full
        if c >= 0 and not least:
            w = g[members[c][0]]
            image = members[cycle_of[w]]
            values = (image[(pos[w] + pos[i]) % len(image)],)
        for x in rows[i]:  # ascending
            if x >= i:
                break
            v = fv[g[x]]
            values = (v,) if v in values else ()
        fi = fv[i]
        if fi < i:
            values = rows[g[fi]] if values is full else [v for v in values if fv[v] == g[fi]]
        last = -1  # every value v counts as a node, visited or not
        if values:
            # ends[n - j] is where step j of the walk from i must end; step n ends
            # at f(i).  An earlier point whose walk first meets i after k steps has
            # a complete orbit iff the walk from i takes n - k steps, and then it
            # must end at the one f-image of level k (-1, which no walk reaches,
            # when level k has several images).  The levels are disjoint lists of
            # earlier points, so there are at most i, and level k + 1 joins the
            # preds of the points of level k.
            ends = [fi]
            level = preds[i]
            for _ in levels:
                if not level:
                    break
                following, end = [], fv[level[0]]
                for x in level:
                    following += preds[x]
                    if fv[x] != end:
                        end = -1
                ends.append(end)
                level = following
            top = len(ends) - 1
            lo = n - top  # the lowest checked step
            for v in values:
                nodes += v - last
                last = v
                if nodes > budget:
                    raise _BudgetExceeded
                g[i] = cur = v
                s = 1  # cur is where step s of the walk from i ends
                while s < lo and cur <= i:  # the walk goes through decided points only
                    if s > i:
                        # s + 1 visits to the i + 1 decided points repeat one, so
                        # cur lies on the walk's cycle, which gives step lo
                        cycle, y = [cur], g[cur]
                        while y != cur:
                            cycle.append(y)
                            y = g[y]
                        cur, s = cycle[(lo - s) % len(cycle)], lo
                        break
                    cur = g[cur]
                    s += 1
                if s == lo:  # else the walk left the decided points: no orbit is complete
                    # step n - t for t = top, ..., 0, until the walk leaves them
                    t = top
                    while cur == ends[t] and t and cur <= i:
                        cur = g[cur]
                        t -= 1
                    if cur != ends[t]:
                        continue
                if least and not link(c, v):
                    continue
                preds[v].append(i)
                if rec(i + 1):
                    return True
                preds[v].pop()
                if least:
                    unlink(c, v)
        nodes += size - 1 - last
        if nodes > budget:
            raise _BudgetExceeded
        return False

    try:
        return (SingleMap(f.ground, tuple(g)) if rec(0) else None), nodes
    finally:
        del rec  # as in _multi_engine
