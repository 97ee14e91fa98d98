"""Helpers shared by several test modules that the library does not need."""

import functools
import itertools
import json
import math

from hypothesis import strategies as st

from quiverhopf.bridge import CoproductLayers, _divide, delta0_prime, monomialize
from quiverhopf.cobrackets import delta_p_rt
from quiverhopf.cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    chord_delta_p_rt,
    enumerate_cuts,
    epsilon,
    remove_chords,
)
from quiverhopf.hopf import _formula_terms, path_coproduct
from quiverhopf.linear import TAU12_2, TAU12_3, TAU123, TAU132, LinComb, Monomial, Tensor, Word
from quiverhopf.quiver import Necklace, Path, Quiver, omega
from quiverhopf.symalg import antipode_defect, antipode_free, cop_free, multiplicative
from quiverhopf.trees import OrientedTree, RootedTree, _planar_children, rho
from quiverhopf.verify import Report, verify_defect


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
    return t if t is not None else Tensor(2)


# Brute-force pair loops over the chords of a cut, independent of the stack
# scan in `Cut.__init__`: oracles for `Cut.parents`, `cut_order`,
# `nesting_children` and the crossing check.


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


def oracle_simple_subcuts(h: Cut):
    """Every subset of a cut's chords that is nesting-free, in canonical order:
    all 2^n subsets are built and filtered. An oracle for `cuts.simple_subcuts`."""
    subsets = (Cut(c) for r in range(len(h) + 1) for c in itertools.combinations(h.pairs, r))
    return sorted(sub for sub in subsets if oracle_simple(sub.pairs))


# Chord surgery by slicing a list of (position, letter) entries one chord at a
# time, sharing no code with `cuts._outside`: an oracle for
# `cuts.remove_chords` and for the face labels of `dual.dual_rooted_tree`.


def sliced_surgery(p, cut_pairs, sub_pairs):
    """Independent surgery: remove the chords of sub_pairs one at a time, from
    the innermost outward, by slicing the word the way delta_p_rt does.

    The word is a list of (original position, letter); the letters strictly
    inside a chord become its piece, the rest stays. Returns
    {chord or None: (Path, renumbered residual pairs)}, None being the outer
    piece; a residual chord is renumbered inside the piece holding both ends.
    """
    word = list(enumerate(p.letters, 1))
    pieces = {}
    for i, j in sorted(sub_pairs, key=lambda c: c[1] - c[0]):
        a = [pos for pos, _ in word].index(i)
        b = [pos for pos, _ in word].index(j)
        pieces[(i, j)] = (p.letters[i - 1].tgt, word[a + 1 : b])
        word = word[:a] + word[b + 1 :]
    pieces[None] = (p.start, word)
    out = {}
    for key, (start, entries) in pieces.items():
        index = {pos: k + 1 for k, (pos, _) in enumerate(entries)}
        residual = [
            (index[i], index[j])
            for i, j in cut_pairs
            if (i, j) not in sub_pairs and i in index and j in index
        ]
        out[key] = (Path(start, tuple(lt for _, lt in entries)), sorted(residual))
    return out


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


# Antisymmetrizations that share no code with `linear.skew`, oracles for the
# Lie cobrackets built on it: swap-and-subtract for the cobrackets on paths
# and rooted trees, hand-built term pairs for the others.


def oracle_swap_subtract(d: Tensor) -> Tensor:
    return d - d.permute((2, 1))


def oracle_term_pairs(pairs) -> Tensor:
    """((a, b), c), ((b, a), -c) for every ((a, b), c) of pairs."""
    terms = []
    for (a, b), c in pairs:
        terms += [((a, b), c), ((b, a), -c)]
    return Tensor(2, terms)


def oracle_delta_rt(x: Path) -> Tensor:
    return oracle_swap_subtract(delta_p_rt(x))


def oracle_rho_ss(t) -> Tensor:
    return oracle_swap_subtract(rho(t))


def oracle_delta_or_pairs(x: Necklace) -> Tensor:
    return oracle_term_pairs(
        ((Necklace(a), Necklace(b)), c) for (a, b), c in delta_p_rt(x.rep).items()
    )


def oracle_chord_delta_or(x: NecklaceDiagram) -> Tensor:
    return oracle_term_pairs(
        ((NecklaceDiagram(a.path, a.cut), NecklaceDiagram(b.path, b.cut)), c)
        for (a, b), c in chord_delta_p_rt(x).items()
    )


def oracle_rho_ss_oriented(t: OrientedTree) -> Tensor:
    return oracle_term_pairs((oracle_delete_edge(t, e), 1) for e in range(t.edge_count()))


# Two walks that build oriented trees without `trees`' own code, oracles for
# `OrientedTree.delete_edge` and `oriented_from_rooted`: a search plus
# reindexing for one side of a deleted edge, and a recursive walk of a rooted
# tree. The search keeps each side's vertices and edges in their old relative
# order, as `delete_edge` does, so its sides compare down to `labels` and
# `edge_list`; the recursive walk's result compares by `skey` and `text()`.


def oracle_delete_edge(t: OrientedTree, eidx: int):
    """(tail side, head side) of edge eidx, each side's vertices and edges
    kept in their old relative order, so each edge still follows the vertex
    it hangs from."""

    def component(seed):
        seen = {seed}
        stack = [seed]
        while stack:
            a = stack.pop()
            for e2 in t.adj[a]:
                if e2 == eidx:
                    continue
                x, y = t.edge_list[e2]
                b = y if x == a else x
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        verts = sorted(seen)
        vmap = {old: k for k, old in enumerate(verts)}
        edges = [
            (vmap[x], vmap[y])
            for k, (x, y) in enumerate(t.edge_list)
            if k != eidx and x in seen and y in seen
        ]
        return OrientedTree(tuple(t.labels[old] for old in verts), edges)

    u, v = t.edge_list[eidx]
    return component(u), component(v)


def oracle_oriented_from_rooted(t, to_label) -> OrientedTree:
    """Each vertex is numbered, and its edge from its parent added, before
    the vertices below it, as OrientedTree's edge list asks."""
    labels = []
    edges = []

    def add_vertex(label):
        labels.append(to_label(label))
        return len(labels) - 1

    def walk(node, vidx: int):
        for up, child in node.children:
            widx = add_vertex(child.label)
            edges.append((widx, vidx) if up else (vidx, widx))
            walk(child, widx)

    walk(t, add_vertex(t.label))
    return OrientedTree(tuple(labels), tuple(edges))


# Admissible cuts as edge subsets, sharing no code with the child-by-child
# growth in `trees.admissible_cuts`: an oracle for it and for
# `tree_coproduct`. An edge is named by its lower end in preorder, and a subset
# is admissible when no root-to-vertex path holds two of its edges.


def _preorder(t: RootedTree):
    """(subtree, parent index, flag of the edge to the parent) per vertex of
    t in preorder; the root's parent and flag are None."""
    out = []
    stack = [(t, None, None)]
    while stack:
        node, parent, flag = stack.pop()
        v = len(out)
        out.append((node, parent, flag))
        stack.extend((child, v, fl) for fl, child in reversed(node.children))
    return out


def oracle_admissible_cuts(t: RootedTree):
    """(severed subtrees in preorder, trunk) for every admissible edge subset
    of t, the empty subset included: all 2^edges subsets are built and
    filtered, and each trunk is rebuilt bottom-up from the kept vertices."""
    verts = _preorder(t)
    out = []
    for r in range(len(verts)):
        for cut in itertools.combinations(range(1, len(verts)), r):
            removed = set()
            for v, (_, parent, _) in enumerate(verts):
                if parent in removed or v in cut:
                    removed.add(v)
            if any(verts[v][1] in removed for v in cut):
                continue
            kids = [[] for _ in verts]
            for v in reversed(range(len(verts))):
                if v in removed:
                    continue
                node, parent, flag = verts[v]
                built = RootedTree(node.label, tuple(reversed(kids[v])))
                if parent is not None:
                    kids[parent].append((flag, built))
            out.append((tuple(verts[v][0] for v in cut), built))
    return out


def oracle_tree_coproduct(t: RootedTree) -> Tensor:
    """T (x) 1 plus severed subtrees (x) trunk for every admissible edge
    subset; the empty subset supplies 1 (x) T."""
    terms = [((Monomial((t,)), Monomial(())), 1)]
    for comps, trunk in oracle_admissible_cuts(t):
        terms.append(((Monomial(comps), Monomial((trunk,))), 1))
    return Tensor(2, terms)


# The triple-coproduct expansion on its own, for tests that read its terms
# (the library uses it only inside `hopf.coassoc_formula_defect`), and the
# subset filter it replaced, kept as its oracle.


def coassoc_formula_terms(x: Path) -> Tensor:
    """Triple-coproduct expansion organized by cut order: cop(x) (x) 1 plus,
    for every cut of order at most 2 and every split of it read off its
    nesting forest into a first and a second simple cut, first-cut components
    (x) second-cut components (x) outer, times the cut sign."""
    return _formula_terms(x, path_coproduct(x))


def oracle_formula_terms(x: Path) -> Tensor:
    """The same expansion by filtering subsets: for every cut of order at most
    2, each of the 2^n ordered splits (first, second) of its chords is kept
    when both halves are simple and no chord of second is nested in a chord of
    first. Pair loops and word slicing only, sharing no nesting, split or face
    code with the library: an oracle for `hopf._formula_terms`."""
    letters = x.letters
    terms = [((a, b, Monomial(())), c) for (a, b), c in path_coproduct(x).items()]
    for h in enumerate_cuts(x):
        if oracle_order(h.pairs) > 2:
            continue
        pieces = {c: path for c, (path, _) in sliced_surgery(x, h.pairs, h.pairs).items()}
        sign = math.prod(-omega(letters[i - 1], letters[j - 1]) for i, j in h.pairs)
        for r in range(len(h) + 1):
            for first in itertools.combinations(h.pairs, r):
                second = tuple(c for c in h.pairs if c not in first)
                if not (oracle_simple(first) and oracle_simple(second)):
                    continue
                if any(i1 < i2 < j2 < j1 for i1, j1 in first for i2, j2 in second):
                    continue
                left = Monomial(tuple(pieces[c] for c in first))
                mid = Monomial(tuple(pieces[c] for c in second))
                terms.append(((left, mid, Monomial((pieces[None],))), sign))
    return Tensor(3, terms)


# The simple-cut coproduct through the chord-diagram machinery, sharing only
# the cut enumeration with the simple-cut walk in `cuts`: an oracle for
# `path_coproduct` and `nc_coproduct`. Each simple cut becomes a checked
# `PathDiagram`, cut out whole by `remove_chords` and signed by `epsilon`.


def oracle_cut_coproduct(x: Path, kind) -> Tensor:
    """X (x) 1 plus, for every simple cut, sign times (chord components, left
    to right by left endpoint) (x) (outer component), valued in pairs of
    `kind` (Monomial or Word); the empty cut supplies 1 (x) X."""
    terms = [((kind((x,)), kind(())), 1)]
    for h in enumerate_cuts(x, simple_only=True):
        d = PathDiagram(x, h)
        outer, inners = remove_chords(d, d.cut)
        left = kind(tuple(inners[c].path for c in h.pairs))
        terms.append(((left, kind((outer.path,))), epsilon(d)))
    return Tensor(2, terms)


# The geometric-series antipode of a symmetric monomial, the product of its
# generators' series: the oracle for `hopf.path_antipode`'s cut-forest sum and
# the antipode the tests check the tree and chord-diagram Hopf laws with.


def antipode_monomial(gen_cop, m: Monomial) -> LinComb:
    """In the commutative case S(xy) = S(x)S(y), so the product of the
    per-generator antipode series."""
    return multiplicative(lambda x: antipode_free(gen_cop, Monomial((x,))), m)


# The antipode axiom of the ordered algebra with a geometric series run on
# every word the coproduct's left slots hold, and no extension from the
# generators: the oracle for `verify.verify_antipode` on word-valued
# coproducts, which extends its generator series anti-multiplicatively.


def oracle_word_antipode(gen_cop, sample, law: str) -> Report:
    """mu(S (x) 1)cop = eps on each generator of the ordered algebra, with
    one series per distinct word."""
    antipode = functools.cache(functools.partial(antipode_free, gen_cop))
    return verify_defect(lambda x: antipode_defect(gen_cop, Word((x,)), antipode), sample, law)


# The Lie and pre-Lie checkers as they were before they read their sums off
# the terms: each builds the permuted tensors and the whole defect of every
# element. The oracles for `verify_prelie_coalgebra` and
# `verify_lie_coalgebra`, whose reports must match them line for line.


def oracle_prelie_coalgebra(delta0, sample, law: str) -> Report:
    """(Id - tau12)(delta0 (x) 1 - 1 (x) delta0) delta0 = 0, subtracted in full."""

    def defect(x):
        d = delta0(x)
        t = d.slot_expand(0, delta0) - d.slot_expand(1, delta0)
        return t - t.permute(TAU12_3)

    return verify_defect(defect, sample, law)


def oracle_lie_coalgebra(delta, sample, law: str) -> Report:
    """Co-antisymmetry, then the cyclic co-Jacobi identity, each summed in full."""
    count = 0
    for x in sorted(sample):
        count += 1
        d = delta(x)
        anti = d + d.permute(TAU12_2)
        if anti:
            return Report(law + " (co-antisymmetry)", count, (x, anti))
        u = d.slot_expand(0, delta)
        jac = u + u.permute(TAU123) + u.permute(TAU132)
        if jac:
            return Report(law + " (co-Jacobi)", count, (x, jac))
    return Report(law, count)


# The morphism defect as two one-slot passes over the source coproduct, the
# first slot and then the second: the oracle for the one-pass body that
# `verify_coalgebra_morphism` and `verify_hopf_morphism` share.


def oracle_morphism_defect(fs, f, delta_src, delta_tgt):
    """x -> (fs (x) fs)(delta_src(x)) - delta_tgt(f(x)), with delta_tgt
    extended linearly over f(x)."""

    def slot_pass(t, i):
        terms = []
        for key, c in t.items():
            for y, cy in fs(key[i]).items():
                terms.append((key[:i] + (y,) + key[i + 1 :], c * cy))
        return Tensor(2, terms)

    def defect(x):
        target = Tensor(
            2, ((k, c * ck) for y, c in f(x).items() for k, ck in delta_tgt(y).items())
        )
        return slot_pass(slot_pass(delta_src(x), 0), 1) - target

    return defect


def oracle_extension(f):
    """The multiplicative extension of a generator map f to a monomial or
    word, each image of f wrapped in that monomial's own type."""
    return lambda m: multiplicative(
        lambda y: LinComb((type(m)((z,)), c) for z, c in f(y).items()), m
    )


# The multiplicative extensions folded from the unit, 1 (x) 1 for a coproduct
# and 1 for a generator map, and the slot permutation with one tuple built per
# key by a generator: the oracles for `symalg.cop_free`,
# `symalg.multiplicative` and `Tensor.permute`.


def oracle_cop_free(gen_cop, m) -> Tensor:
    """The product of m's generator coproducts, in order, from 1 (x) 1."""
    unit = type(m)(())
    out = Tensor.single((unit, unit))
    for x in m.factors:
        add = gen_cop(x).items()
        out = Tensor(
            2,
            (((a * a2, b * b2), c * c2) for (a, b), c in out.items() for (a2, b2), c2 in add),
        )
    return out


def oracle_multiplicative(f, m) -> LinComb:
    """The product of the images f(x) of m's factors, in order, from 1."""
    out = LinComb.single(type(m)(()))
    for x in m.factors:
        out = LinComb((m1 * m2, c1 * c2) for m1, c1 in out.items() for m2, c2 in f(x).items())
    return out


def oracle_permute(t: Tensor, images) -> Tensor:
    """Output slot k holds input slot sigma^(-1)(k), images[i-1] = sigma(i)."""
    n = t.arity
    inv = [0] * n
    for i, s in enumerate(images):
        inv[s - 1] = i
    return Tensor(n, ((tuple(key[inv[k]] for k in range(n)), c) for key, c in t.items()))


# The step-major layer recursion: at step n every generator's coproduct,
# truncated above layer n, is expanded in full on both sides of
# coassociativity and only the terms of layer n + 1 are kept. The oracle for
# `bridge.reconstruct_coproduct`'s degree-ordered pass.


def oracle_reconstruct(basis, degree, rho, max_degree: int) -> dict:
    """The layers dict of the step-major recursion on a valid pre-Lie map."""
    elems = sorted(x for x in basis if degree(x) <= max_degree)
    if not elems:
        return {}
    layers = {1: {x: monomialize(g) for x in elems if (g := rho(x))}}
    result = CoproductLayers(layers)
    n = 1
    bound = max_degree // min(degree(x) for x in elems) + 1
    while True:
        total = functools.cache(result.total)
        cop = functools.cache(lambda m: cop_free(total, m))
        nxt = {}
        for v in elems:
            t = total(v)
            r = Tensor(3, (
                ((m1, m2, m3), c)
                for (m1, m2, m3), c in (t.slot_expand(1, cop) - t.slot_expand(0, cop)).items()
                if len(m1) >= 1 and len(m2) >= 1 and len(m3) == 1 and len(m1) + len(m2) == n + 1
            ))
            if not r:
                continue
            split = Tensor(
                2, (((m1 * m2, m3), c) for (m1, m2, m3), c in r.items() if len(m1) == 1)
            )
            layer = Tensor(2, ((key, _divide(c, n + 1)) for key, c in split.items()))
            assert not (layer.slot_expand(0, delta0_prime) - r), (v, n + 1)
            nxt[v] = layer
        if nxt:
            layers[n + 1] = nxt
        n += 1
        if not nxt:
            return layers
        assert n <= bound, bound


# The recursive tree maps that `trees` replaced by one preorder filled
# backwards, kept as oracles for it: rho, the child-by-child admissible cuts,
# the tree text, and the JSON printer of both tree kinds.


def recursive_rho(t: RootedTree) -> Tensor:
    terms = []
    for idx, (flag, child) in enumerate(t.children):
        rest = t.children[:idx] + t.children[idx + 1 :]
        terms.append(((child, RootedTree(t.label, rest)), 1))
        for (t1, t2), c in recursive_rho(child).items():
            replaced = t.children[:idx] + ((flag, t2),) + t.children[idx + 1 :]
            terms.append(((t1, RootedTree(t.label, replaced)), c))
    return Tensor(2, terms)


def recursive_admissible_cuts(t: RootedTree):
    cuts = [((), ())]
    for flag, child in t.children:
        options = [((child,), ())]
        options += [(sub, ((flag, trunk),)) for sub, trunk in recursive_admissible_cuts(child)]
        cuts = [(comps + c, kids + k) for comps, kids in cuts for c, k in options]
    return [(comps, RootedTree(t.label, kids)) for comps, kids in cuts]


def recursive_text(t: RootedTree) -> str:
    if not t.children:
        return "<%s>" % t.label.text()
    inner = " ".join(("^" if up else "v") + recursive_text(child) for up, child in t.children)
    return "<%s: %s>" % (t.label.text(), inner)


def _recursive_json(node, expand) -> dict:
    """The JSON object below node, expand(node) giving (label, [(up, child), ...])."""
    label, kids = expand(node)
    return {
        "label": label.text(),
        "children": [
            {"orient": "in" if up else "out", "node": _recursive_json(child, expand)}
            for up, child in kids
        ],
    }


def recursive_json_text(t) -> str:
    """{"label": ..., "children": [{"orient", "node"}]} with sorted keys; an
    oriented tree is walked from its canonical root and rotation."""
    if isinstance(t, OrientedTree):
        labels, edges, adj, rot = t.labels, t.edge_list, t.adj, t.canon_rot
        expand = lambda node: (labels[node[0]], _planar_children(edges, adj, *node, rot))
        obj = _recursive_json((t.canon_root, None), expand)
    else:
        obj = _recursive_json(t, lambda node: (node.label, node.children))
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Tree constructors only the tests use: the edgeless tree, and the reader of
# the tree JSON schema that `trees.json_text` writes.


def point(label: Path) -> RootedTree:
    return RootedTree(label)


def tree_from_json(q: Quiver, data: dict) -> RootedTree:
    label = q.parse_path(data["label"])
    children = []
    for entry in data.get("children", ()):
        orient = entry["orient"]
        if orient not in ("in", "out"):
            raise ValueError("orient must be 'in' or 'out', got %r" % orient)
        children.append((orient == "in", tree_from_json(q, entry["node"])))
    return RootedTree(label, tuple(children))


def nested_diagram(loop: Quiver, n: int) -> PathDiagram:
    """The n fully nested chords of a^n a*^n on the quiver `loop` (one loop a
    at v): each chord (i, 2n + 1 - i) encloses the next."""
    a = loop.letter("a")
    word = Path("v", (a,) * n + (a.star(),) * n)
    return PathDiagram(word, Cut((i, 2 * n + 1 - i) for i in range(1, n + 1)))


@st.composite
def small_quivers(draw):
    """Up to three vertices and one to three edges, loops and parallel edges allowed."""
    vertices = ("u", "v", "w")[: draw(st.integers(1, 3))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = draw(st.lists(ends, min_size=1, max_size=3))
    return Quiver(vertices, tuple(("e%d" % k, s, t) for k, (s, t) in enumerate(edges)))


# Path composition and the quiver JSON writer: only the tests use them, to
# check composability and the reader `Quiver.from_dict`.


def compose(p: Path, q: Path):
    """Concatenate paths when the endpoints match; None is the zero marker.

    Distinct vertex idempotents annihilate, so a mismatched concatenation is
    zero in the path algebra rather than an error.
    """
    if p.end != q.start:
        return None
    return Path(p.start, p.letters + q.letters)


def quiver_to_dict(q: Quiver) -> dict:
    """The JSON schema that `Quiver.from_dict` reads."""
    return {
        "vertices": list(q.vertices),
        "edges": [
            {"id": eid, "source": s, "target": t} for eid, (s, t) in sorted(q.edges.items())
        ],
    }
