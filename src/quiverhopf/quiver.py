"""Quivers, double quivers, paths and necklaces.

The double of a quiver adds a reversed letter e* for every edge e. Paths are
composable words of such letters with an explicit start vertex, so the
trivial path at each vertex is a genuine basis element, distinct from the
unit of any symmetric algebra built later. Necklaces are closed paths up to
rotation, stored by their lexicographically minimal rotation.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .linear import BasisElement

_BAD_ID_CHARS = set('*|{}()[]/,;"\' \t\n')


def _check_id(s: str, what: str) -> str:
    if not isinstance(s, str):
        raise ValueError("%s identifier %r must be a string" % (what, s))
    if not s or any(ch in _BAD_ID_CHARS for ch in s):
        raise ValueError("bad %s identifier %r (empty or contains reserved characters)" % (what, s))
    return s


class Letter(NamedTuple):
    """One letter of the double quiver: a base edge id plus a star flag.

    The reverse of a letter swaps source and target and toggles the flag;
    reversing twice gives the letter back. Within one quiver the edge id and
    the flag fix source and target, so the tuple's own equality, hash and
    order are those of (edge id, flag), which fixes all necklace canonical
    forms.
    """

    eid: str
    starred: bool
    src: str
    tgt: str

    def star(self) -> "Letter":
        return Letter(self.eid, not self.starred, self.tgt, self.src)

    def text(self) -> str:
        return self.eid + ("*" if self.starred else "")

    def __repr__(self):
        return self.text()


class Quiver:
    """A finite quiver: vertex ids plus directed edges with unique ids.

    Vertex and edge ids must be disjoint so that path and necklace text forms
    parse unambiguously.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(_check_id(v, "vertex") for v in vertices)
        if not self.vertices:
            raise ValueError("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(self.vertices)
        self.edges = {}
        for eid, src, tgt in edges:
            eid = _check_id(eid, "edge")
            src, tgt = _check_id(src, "source"), _check_id(tgt, "target")
            if eid in self.edges:
                raise ValueError("duplicate edge id %r" % eid)
            if src not in vset or tgt not in vset:
                raise ValueError("edge %r has endpoint outside the vertex set" % eid)
            self.edges[eid] = (src, tgt)
        if vset & set(self.edges):
            raise ValueError("vertex ids and edge ids must be disjoint")

    def letter(self, eid: str, starred: bool = False) -> Letter:
        if eid not in self.edges:
            raise KeyError("unknown edge id %r" % eid)
        src, tgt = self.edges[eid]
        if starred:
            return Letter(eid, True, tgt, src)
        return Letter(eid, False, src, tgt)

    def letters(self):
        """All letters of the double quiver, in canonical order."""
        return sorted(self.letter(eid, starred) for eid in self.edges for starred in (False, True))

    def trivial(self, v: str) -> "Path":
        if v not in self.vertices:
            raise ValueError("unknown vertex %r" % (v,))
        return Path(v, ())

    @classmethod
    def from_dict(cls, data: dict) -> "Quiver":
        """Build from the JSON schema, coercing nothing: a 'vertices' list and an
        'edges' list of {"id", "source", "target"} objects, every id a string."""
        try:
            vertices, edges = data["vertices"], data["edges"]
            if not (isinstance(vertices, list) and isinstance(edges, list)):
                raise TypeError("'vertices' and 'edges' must be lists")
            edges = [(e["id"], e["source"], e["target"]) for e in edges]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "quiver input must have a 'vertices' list and an 'edges' list of objects: %s" % exc
            )
        return cls(vertices, edges)

    @classmethod
    def from_json(cls, text: str) -> "Quiver":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "Quiver":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def _read(self, tok: str, pos: int) -> Letter:
        """The letter a token names; pos is its number among the typed tokens."""
        starred = tok.endswith("*")
        eid = tok[:-1] if starred else tok
        if eid not in self.edges:
            raise ParseError("token %d: %r is not an edge id" % (pos, tok), pos)
        return self.letter(eid, starred)

    def _walk(self, v: str, toks, pos: int) -> "Path":
        """Read letter tokens as a path from vertex v, numbering them from pos."""
        letters = []
        at = v
        for pos, tok in enumerate(toks, start=pos):
            lt = self._read(tok, pos)
            if lt.src != at:
                raise ParseError(
                    "token %d: letter %s starts at %s but the path is at %s"
                    % (pos, lt.text(), lt.src, at),
                    pos,
                )
            letters.append(lt)
            at = lt.tgt
        return Path(v, tuple(letters))

    def parse_path(self, text: str) -> "Path":
        """Parse "v0 e1 e2* ..." with an explicit start vertex."""
        toks = text.split()
        if not toks:
            raise ParseError("empty path (expected a start vertex)", 0)
        if toks[0] not in self.vertices:
            raise ParseError("token 1: %r is not a vertex id" % toks[0], 1)
        return self._walk(toks[0], toks[1:], 2)

    def parse_necklace(self, text: str) -> "Necklace":
        """Parse "[e1 e2* ...]" (start inferred), "[v e1 e2* ...]", or "[v]" for a
        trivial necklace."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError("necklace must be bracketed like [e e*]", 0)
        toks = s[1:-1].split()
        if not toks:
            raise ParseError("empty necklace brackets", 0)
        if toks[0] in self.vertices:
            p = self._walk(toks[0], toks[1:], 2)
        else:
            p = self._walk(self._read(toks[0], 1).src, toks, 1)
        if not p.is_closed():
            raise ParseError("necklace word is not closed (ends at %s, starts at %s)" % (p.end, p.start), 0)
        return Necklace(p)

    def parse_element(self, text: str):
        """Dispatch on the surface form: bracketed = necklace, else path."""
        if text.strip().startswith("["):
            return self.parse_necklace(text)
        return self.parse_path(text)

    def __repr__(self):
        return "Quiver(%s; %s)" % (
            ",".join(self.vertices),
            ",".join("%s:%s->%s" % (e, s, t) for e, (s, t) in sorted(self.edges.items())),
        )


class ParseError(ValueError):
    """Input text failed to parse; carries a 1-based token position."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def omega(a: Letter, b: Letter) -> int:
    """Pairing of double-quiver letters.

    +1 on (e, e*), -1 on (e*, e), and 0 whenever b is not the reverse of a.
    Antisymmetric on matched pairs by construction.
    """
    if b.eid == a.eid and b.starred != a.starred:
        return -1 if a.starred else 1
    return 0


class Path(BasisElement):
    """A composable word of double-quiver letters with an explicit start vertex.

    The empty word at vertex v is the trivial path at v. Validity (letter k
    ends where letter k+1 starts) is enforced at construction.
    """

    __slots__ = ("start", "letters")

    def __init__(self, start: str, letters=()):
        letters = tuple(letters)
        at = start
        for k, lt in enumerate(letters):
            if lt.src != at:
                raise ValueError(
                    "letter %d (%s) starts at %s, expected %s" % (k + 1, lt.text(), lt.src, at)
                )
            at = lt.tgt
        text = " ".join([start] + [lt.text() for lt in letters])
        BasisElement.__init__(self, "P|" + text)
        self.start = start
        self.letters = letters

    @property
    def end(self) -> str:
        return self.letters[-1].tgt if self.letters else self.start

    def is_trivial(self) -> bool:
        return not self.letters

    def is_closed(self) -> bool:
        return self.end == self.start

    def __len__(self):
        return len(self.letters)

    def text(self) -> str:
        return self.skey[2:]


def rotate(p: Path, k: int) -> Path:
    """Rotate a closed path, making letter k+1 (0-based k) the first letter."""
    if not p.is_closed():
        raise ValueError("only closed paths can be rotated")
    if not p.letters:
        return p
    k %= len(p.letters)
    letters = p.letters[k:] + p.letters[:k]
    return Path(letters[0].src, letters)


class Necklace(BasisElement):
    """A closed path up to rotation, stored by its minimal rotation.

    The representative is the rotation whose letter word is lexicographically
    smallest under the global letter order; trivial closed paths are their own
    representatives.
    """

    __slots__ = ("rep",)

    def __init__(self, p: Path):
        if not p.is_closed():
            raise ValueError("necklace requires a closed path, got %s" % p.text())
        rep = p
        if p.letters:
            # Compare rotations of the letter word; min keeps the first on a tie.
            n = len(p.letters)
            word = p.letters * 2
            rep = rotate(p, min(range(n), key=lambda k: word[k : k + n]))
        BasisElement.__init__(self, "N|" + rep.skey[2:])
        self.rep = rep

    def __len__(self):
        return len(self.rep.letters)

    def text(self) -> str:
        if self.rep.is_trivial():
            return "[%s]" % self.rep.start
        return "[%s]" % " ".join(lt.text() for lt in self.rep.letters)


def all_paths(q: Quiver, max_len: int):
    """Every path of length <= max_len, ordered by (length, key)."""
    letters_by_src: dict = {}
    for lt in q.letters():
        letters_by_src.setdefault(lt.src, []).append(lt)
    out = []
    frontier = [Path(v) for v in q.vertices]
    out.extend(frontier)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for lt in letters_by_src.get(p.end, ()):
                nxt.append(Path(p.start, p.letters + (lt,)))
        out.extend(nxt)
        frontier = nxt
    return sorted(out, key=lambda p: (len(p), p.skey))


def all_closed_paths(q: Quiver, max_len: int):
    return [p for p in all_paths(q, max_len) if p.is_closed()]


def all_necklaces(q: Quiver, max_len: int):
    """Every necklace of length <= max_len, deduplicated, in canonical order."""
    return sorted({Necklace(p) for p in all_closed_paths(q, max_len)})


ONE_EDGE_QUIVER = Quiver(("1", "2"), (("e", "1", "2"),))
