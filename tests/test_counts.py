"""The enumerators against closed-form graded dimensions.

The counts come from the quiver's adjacency matrix and from generating
series, and share no code with the enumerators or their canonical keys, so
they check that every class is reached once, whatever key canonicalizes it.
All arithmetic is exact: integers, and `Fraction` where a series divides.
The chord-diagram counts take their cuts from a matching recursion of their
own and their rotation classes from orbits, not from `cuts` or its keys.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

from quiverhopf.cuts import necklace_diagrams, path_diagrams
from quiverhopf.quiver import Necklace, all_closed_paths, all_necklaces, all_paths
from quiverhopf.trees import all_oriented_trees, all_rooted_trees
from quiverhopf.verify import FAMILY

MAX_LEN = 6
DIAGRAM_LEN = 5


def doubled_adjacency(q):
    """A[u][v]: the letters from u to v of the doubled quiver, each edge and its star."""
    index = {v: k for k, v in enumerate(q.vertices)}
    a = [[0] * len(index) for _ in index]
    for src, tgt in q.edges.values():
        a[index[src]][index[tgt]] += 1
        a[index[tgt]][index[src]] += 1
    return a


def matrix_powers(a, n: int):
    """A^0, A^1, ..., A^n."""
    size = len(a)
    powers = [[[int(i == j) for j in range(size)] for i in range(size)]]
    for _ in range(n):
        p = powers[-1]
        span = range(size)
        powers.append([[sum(p[i][k] * a[k][j] for k in span) for j in span] for i in span])
    return powers


def totient(d: int) -> int:
    return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)


def whole(x: Fraction) -> int:
    assert x.denominator == 1, x
    return x.numerator


def path_counts(q, n: int):
    """Paths of each length 0..n: the sum of the entries of A^length."""
    return [sum(map(sum, p)) for p in matrix_powers(doubled_adjacency(q), n)]


def necklace_counts(q, n: int):
    """Necklaces of each length 0..n, by Burnside over rotations: the vertex
    count at length 0, and (1/m) sum over d | m of phi(d) tr(A^(m/d))."""
    traces = [sum(p[i][i] for i in range(len(p))) for p in matrix_powers(doubled_adjacency(q), n)]
    out = [len(q.vertices)]
    for m in range(1, n + 1):
        total = sum(totient(d) * traces[m // d] for d in range(1, m + 1) if m % d == 0)
        out.append(whole(Fraction(total, m)))
    return out


def series_product(f, g):
    return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(len(f))]


def rooted_counts(k: int, n: int):
    """Planar rooted trees with k vertex labels and two edge flags, by edge
    count 0..n: R = k / (1 - 2zR), that is r_0 = k and r_m = 2 sum r_i r_(m-1-i)."""
    r = [k]
    for m in range(1, n + 1):
        r.append(2 * sum(r[i] * r[m - 1 - i] for i in range(m)))
    return r


def oriented_counts(k: int, n: int):
    """Oriented trees with k vertex labels and two edge flags, by edge count
    0..n, by the dissymmetry theorem T = T_v + T_e - T_ve, with S = 2zR:
    T_v = k (1 + Cyc(S)), Cyc(F) = sum over d >= 1 of phi(d)/d log 1/(1 - F(z^d)),
    T_e = z R^2 and T_ve = S R."""
    r = rooted_counts(k, n)
    s = [0] + [2 * c for c in r[:n]]
    cyc = [Fraction(0)] * (n + 1)
    for d in range(1, n + 1):
        s_d = [0] * (n + 1)  # S(z^d)
        for i in range(n // d + 1):
            s_d[i * d] = s[i]
        power = [1] + [0] * n
        for m in range(1, n // d + 1):  # log 1/(1 - G) = sum of G^m / m
            power = series_product(power, s_d)
            for i in range(n + 1):
                cyc[i] += Fraction(totient(d) * power[i], d * m)
    t_v = [k * (i == 0) + k * cyc[i] for i in range(n + 1)]
    t_e = [0] + series_product(r, r)[:n]
    t_ve = series_product(s, r)
    return [whole(t_v[i] + t_e[i] - t_ve[i]) for i in range(n + 1)]


def matchings(word, lo: int, hi: int):
    """The cuts of positions lo..hi-1 of a word (0-based), as tuples of chords:
    position lo is left out, or joined to a later position q holding its
    reverse letter, and the positions inside and after that chord are cut apart."""
    if lo >= hi:
        return [()]
    out = matchings(word, lo + 1, hi)
    for q in range(lo + 1, hi):
        if word[q] == word[lo].star():
            inside, after = matchings(word, lo + 1, q), matchings(word, q + 1, hi)
            out += [((lo, q),) + a + b for a in inside for b in after]
    return out


def path_diagram_counts(q, n: int):
    """Path chord diagrams of each length 0..n: each path's number of cuts."""
    counts = [0] * (n + 1)
    for p in all_paths(q, n):
        counts[len(p)] += len(matchings(p.letters, 0, len(p)))
    return counts


def necklace_diagram_counts(q, n: int):
    """Necklace chord diagrams of each length 0..n: the rotation orbits of
    (closed word, cut) pairs, each keyed by the set of all its rotations (a
    trivial path has none, and is keyed by its vertex)."""
    orbits = set()
    for p in all_closed_paths(q, n):
        word, m = p.letters, len(p)
        for cut in matchings(word, 0, m):
            rotations = frozenset(
                (word[k:] + word[:k], frozenset(frozenset((i - k) % m for i in c) for c in cut))
                for k in range(m)
            )
            orbits.add((m, rotations or p.start))
    return by_size(orbits, lambda orbit: orbit[0], n)


def by_size(items, size, n: int):
    """How many items have each size 0..n."""
    counts = Counter(size(x) for x in items)
    return [counts[m] for m in range(n + 1)]


def test_closed_forms_give_the_known_counts():
    assert necklace_counts(FAMILY["two_loops"], 6) == [1, 4, 10, 24, 70, 208, 700]
    assert rooted_counts(1, 5) == [1, 2, 8, 40, 224, 1344]
    assert rooted_counts(2, 4) == [2, 8, 64, 640, 7168]
    assert oriented_counts(1, 5) == [1, 1, 3, 8, 32, 136]
    assert oriented_counts(2, 4) == [2, 4, 20, 112, 924]
    two_loops = FAMILY["two_loops"]
    assert list(accumulate(path_diagram_counts(two_loops, 5))) == [1, 5, 25, 137, 809, 5033]
    assert list(accumulate(necklace_diagram_counts(two_loops, 5))) == [1, 5, 17, 57, 233, 1081]


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_paths_and_necklaces_match_the_adjacency_counts(name):
    q = FAMILY[name]
    assert by_size(all_paths(q, MAX_LEN), len, MAX_LEN) == path_counts(q, MAX_LEN)
    assert by_size(all_necklaces(q, MAX_LEN), len, MAX_LEN) == necklace_counts(q, MAX_LEN)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_chord_diagrams_match_the_matching_and_orbit_counts(name):
    q = FAMILY[name]
    paths = path_diagrams(q, DIAGRAM_LEN)
    necklaces = necklace_diagrams(q, DIAGRAM_LEN)
    assert by_size(paths, lambda d: len(d.path), DIAGRAM_LEN) == path_diagram_counts(q, DIAGRAM_LEN)
    assert by_size(necklaces, lambda d: len(d.path), DIAGRAM_LEN) == necklace_diagram_counts(
        q, DIAGRAM_LEN
    )


LABELS = [FAMILY["two_loops"].parse_path(w) for w in ("v", "v a")]


@pytest.mark.parametrize("k, max_edges", [(1, 5), (2, 4)])
def test_rooted_trees_match_the_planar_series(k, max_edges):
    trees = all_rooted_trees(max_edges, LABELS[:k], flags=(False, True))
    assert by_size(trees, lambda t: t.edge_count(), max_edges) == rooted_counts(k, max_edges)


@pytest.mark.parametrize("k, max_edges", [(1, 5), (2, 4)])
def test_oriented_trees_match_the_dissymmetry_count(k, max_edges):
    labels = [Necklace(p) for p in LABELS[:k]]
    trees = all_oriented_trees(max_edges, labels, flags=(False, True))
    assert by_size(trees, lambda t: t.edge_count(), max_edges) == oriented_counts(k, max_edges)
