"""Helpers shared by several test modules that the library does not need."""

from quiverhopf.linear import LinComb, Tensor
from quiverhopf.quiver import Necklace, Path, omega
from quiverhopf.symalg import cop_free


def counit_defect(gen_cop, m) -> LinComb:
    """(eps (x) 1)cop(m) - m plus (1 (x) eps)cop(m) - m, collected together."""
    t = cop_free(gen_cop, m).items()
    left = LinComb((b, c) for (a, b), c in t if a.is_unit())
    right = LinComb((a, c) for (a, b), c in t if b.is_unit())
    target = LinComb.single(m)
    return (left - target) + (right - target)


def layer(layers, n: int, x) -> Tensor:
    """Layer n of reconstructed CoproductLayers at generator x; zero if absent."""
    t = layers.layers.get(n, {}).get(x)
    return t if t is not None else Tensor.zero(2)


# Brute-force pair loops over the chords of a cut, independent of the stack
# scan in `Cut.__init__`: oracles for `Cut.parents`, `cut_order`,
# `Cut.is_simple`, `nesting_children` and the crossing check.


def oracle_valid(pairs) -> bool:
    """Distinct endpoints, each pair 1 <= i < j, no two pairs crossing."""
    flat = [k for p in pairs for k in p]
    if len(set(flat)) != len(flat) or not all(1 <= i < j for i, j in pairs):
        return False
    return not any(
        i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1 for i1, j1 in pairs for i2, j2 in pairs
    )


def oracle_parent(pairs, c):
    """The innermost pair strictly enclosing c, or None."""
    parent = None
    for d in pairs:
        if d != c and d[0] < c[0] and c[1] < d[1]:
            if parent is None or d[0] > parent[0]:
                parent = d
    return parent


def oracle_order(pairs) -> int:
    """Maximum over positions k + 1/2 of the number of pairs (i, j), i <= k < j."""
    n = max((j for _, j in pairs), default=0)
    return max(sum(1 for i, j in pairs if i <= k < j) for k in range(n + 1))


def oracle_simple(pairs) -> bool:
    """No pair nested inside another."""
    return not any(i1 < i2 < j2 < j1 for i1, j1 in pairs for i2, j2 in pairs)


def oracle_children(pairs) -> dict:
    """{pair or None: its immediately nested pairs, by left endpoint}."""
    kids = {None: []}
    for c in pairs:
        kids[c] = []
    for c in sorted(pairs):
        kids[oracle_parent(pairs, c)].append(c)
    return kids


# The necklace cobracket as a cyclic cut on an explicit closed word, sharing
# no code with `cobrackets.delta_p_rt`: an oracle for `cobrackets.delta_or`.


def _cyclic_segment(p: Path, frm: int, count: int, start_vertex: str) -> Path:
    """`count` letters of the closed word p from 1-based position frm, wrapping around."""
    n = len(p.letters)
    return Path(start_vertex, tuple(p.letters[(frm - 1 + k) % n] for k in range(count)))


def oracle_delta_or(p: Path) -> Tensor:
    """Every position pair i < j whose letters are mutual reverses contributes
    the wedge of the two necklaces left by cutting both letters; the strand
    from j to i wraps around the word."""
    n = len(p.letters)
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = omega(p.letters[i - 1], p.letters[j - 1])
            if not w:
                continue
            first = Necklace(_cyclic_segment(p, j + 1, (i - j - 1) % n, p.letters[j - 1].tgt))
            second = Necklace(_cyclic_segment(p, i + 1, j - i - 1, p.letters[i - 1].tgt))
            terms += [((first, second), w), ((second, first), -w)]
    return Tensor(2, terms)
