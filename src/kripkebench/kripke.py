"""Finite Kripke frames and models, forcing, and frame validity.

A frame is a finite partial order on worlds 0..n-1, stored as one
successor bitmask per world so that order queries and the semantic
clauses reduce to integer bit operations.  All values are immutable
after construction and safe to share between threads; a frame's first
search fills its private search record, each one-chunk search adds its
layout to it, and its first search of several chunks publishes it anew
with the frame's cones, which racing threads build and store equal.
The module keeps the programs of recent formulas by identity, each
entry beside its formula, so a thread never runs another formula's
program.
"""

from __future__ import annotations

from itertools import groupby, permutations, product
from operator import itemgetter

from .formula import And, Atom, Bottom, Formula, Imp, Or, Top, WORLD_LIMIT, _Record, render


class UnknownWorld(ValueError):
    """A world index outside the frame."""

    def __init__(self, world):
        super().__init__(f"unknown world {world!r}")
        self.world = world


class AntisymmetryViolation(ValueError):
    """The closed relation relates two distinct worlds both ways."""

    def __init__(self, pair: tuple[int, int]):
        x, y = pair
        super().__init__(f"not a partial order: {x} <= {y} and {y} <= {x}")
        self.pair = pair


class InvalidModel(ValueError):
    """A valuation that is not a legal monotone valuation on its frame."""


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


class Frame(_Record):
    """Finite partial order: bit j of up[i] is set iff world i <= world j.

    The constructor checks up: AntisymmetryViolation for two worlds each
    below the other, else ValueError if not a tuple of ints ordering 0..n-1.
    Growth and cones skip it (_unchecked_frame).  _tables, not a field,
    holds the frame's _search_tables from its first search on.
    """

    __slots__ = {
        "up": "tuple[int, ...]",
        "_tables": "tuple[list[int], list[tuple[int, int]], dict[int, tuple], tuple[Frame, ...] | None]",
    }

    def __post_init__(self):
        # On closed rows two-way partners pair up, so the first row with one
        # has all of them above it: the pair is make_frame's first i < j.
        up = self.up
        if type(up) is not tuple or not all(type(row) is int for row in up):
            raise ValueError(f"not a partial order: rows must be a tuple of ints, not {up!r}")
        for i, row in enumerate(up):
            if row >> len(up) or not row >> i & 1 or any(up[j] | row != row for j in _bits(row)):
                raise ValueError(f"not a partial order on worlds 0..{len(up) - 1}: row {i}")
            for j in _bits(row ^ 1 << i):
                if up[j] >> i & 1:
                    raise AntisymmetryViolation((i, j))

    @property
    def size(self) -> int:
        return len(self.up)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.up)) - 1

    def le(self, x: int, y: int) -> bool:
        size = len(self.up)
        return self.up[_world(size, x)] >> _world(size, y) & 1 == 1

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i < j in the order, i != j."""
        return [
            (i, j)
            for i in range(self.size)
            for j in _bits(self.up[i] & ~(1 << i))
        ]

    def _down_masks(self) -> list[int]:
        down = [0] * self.size
        for i, row in enumerate(self.up):
            while row:
                low = row & -row
                down[low.bit_length() - 1] |= 1 << i
                row ^= low
        return down

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs: i < j with no world strictly between."""
        down = self._down_masks()
        out = []
        for i, j in self.strict_pairs():
            between = self.up[i] & down[j] & ~(1 << i) & ~(1 << j)
            if between == 0:
                out.append((i, j))
        return out

    def upsets(self) -> list[frozenset[int]]:
        """All upward-closed world sets, ascending in bitmask order."""
        return [_mask_to_set(m) for m in _closed_masks(self.up)]

    def cone(self, x: int) -> tuple[Frame, tuple[int, ...]]:
        """Generated subframe on {y : x <= y} plus the index mapping.

        The mapping sends each new index to the original world it names.
        """
        members = _bits(self.up[_world(self.size, x)])
        # each member renamed to its position; members is an upset, so it
        # lists every successor of each member
        pos = {w: i for i, w in enumerate(members)}
        rows = []
        for w in members:
            m = 0
            for v in _bits(self.up[w]):
                m |= 1 << pos[v]
            rows.append(m)
        return _unchecked_frame(tuple(rows)), tuple(members)

    def depth(self) -> int:
        """Worlds in a longest chain; a single world has depth 1."""
        # Each round removes the maximal worlds of what is left, and with
        # them the top world of every longest chain left.
        left, rounds = self.full_mask, 0
        while left:
            top = 0
            for i in _bits(left):
                if self.up[i] & left == 1 << i:
                    top |= 1 << i
            left ^= top
            rounds += 1
        return rounds

    def width(self) -> int:
        """Largest set of pairwise incomparable worlds.

        By Dilworth's theorem this is the fewest chains covering the
        worlds: the size minus a maximum matching of worlds to strict
        successors (Fulkerson 1956), grown by augmenting paths (Kuhn).
        """
        above = [-1] * self.size  # the successor a world is matched to
        below = [-1] * self.size  # the world matched to a successor
        for root in range(self.size):
            _augment(self.up, root, above, below)
        return above.count(-1)


def _unchecked_frame(up: tuple[int, ...]) -> Frame:
    # A Frame on rows built as a partial order, unchecked: the check took six
    # times as long as growth itself on the 154,283 children at n = 8.
    fr = object.__new__(Frame)
    object.__setattr__(fr, "up", up)
    return fr


def _world(size: int, x) -> int:
    # x, if it is an int naming a world of a size-world frame: a bool,
    # float or str is not.
    if type(x) is not int or not 0 <= x < size:
        raise UnknownWorld(x)
    return x


def _augment(up: tuple[int, ...], root: int, above: list[int], below: list[int]) -> None:
    # Breadth-first search for a shortest alternating path from the
    # unmatched root to an unmatched successor, then flip its edges.
    prev: dict[int, int] = {}  # successor -> the world that reached it
    queue = [root]
    for x in queue:
        for j in _bits(up[x] & ~(1 << x)):
            if j in prev:
                continue
            prev[j] = x
            if below[j] >= 0:
                queue.append(below[j])
                continue
            while j >= 0:
                x = prev[j]
                below[j], above[x], j = x, j, above[x]
            return


def _closed_masks(rows: Iterable[int]) -> list[int]:
    """Every union of the given rows, ascending: the upsets of the up rows,
    the downsets of the down rows (each is the union of the principal
    sets of its members)."""
    masks = {0}
    for row in rows:
        masks |= {m | row for m in masks}
    return sorted(masks)


def make_frame(size: int, pairs: Iterable[tuple[int, int]] = ()) -> Frame:
    """Reflexive-transitive closure of pairs as a partial order.

    Frame's check raises AntisymmetryViolation for the first pair i < j the
    closure relates both ways; an index outside 0..size-1 raises UnknownWorld.
    """
    if size < 1:
        raise ValueError("a frame needs at least one world")
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        up[_world(size, x)] |= 1 << _world(size, y)
    for k in range(size):
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= up[k]
    return Frame(tuple(up))


def chain(n: int) -> Frame:
    """The n-world chain 0 < 1 < ... < n-1."""
    return make_frame(n, [(i, i + 1) for i in range(n - 1)])


def fork() -> Frame:
    """Three worlds with a root below two incomparable ones: 0 < 1, 0 < 2."""
    return make_frame(3, [(0, 1), (0, 2)])


def antichain(n: int) -> Frame:
    """n pairwise incomparable worlds."""
    return make_frame(n)


class Model(_Record):
    """A frame with a monotone valuation.

    The valuation is a sorted tuple of (atom, bitmask) pairs; every mask
    must be upward closed in the frame.  Atoms absent from the valuation
    are forced nowhere.  Use make_model to build one from plain sets.
    """

    __slots__ = {"frame": "Frame", "valuation": "tuple[tuple[str, int], ...]"}

    def __post_init__(self):
        names = [name for name, _ in self.valuation]
        for name in names:
            # On ASCII, isidentifier is exactly [A-Za-z_][A-Za-z0-9_]*, parse's atom names.
            atom = isinstance(name, str) and name.isascii() and name.isidentifier()
            if not atom or name in ("T", "F"):
                raise InvalidModel(f"bad atom name {name!r}")
        if names != sorted(set(names)):
            raise InvalidModel("valuation atoms must be unique and sorted")
        full = self.frame.full_mask
        for name, mask in self.valuation:
            if not isinstance(mask, int) or isinstance(mask, bool):
                raise InvalidModel(f"valuation of {name!r} must be a world bitmask")
            if mask & ~full:
                raise InvalidModel(f"valuation of {name!r} mentions unknown worlds")
            _check_upward_closed(self.frame, mask, name)

    def valuation_dict(self) -> dict[str, frozenset[int]]:
        return {name: _mask_to_set(mask) for name, mask in self.valuation}


def _check_upward_closed(frame: Frame, mask: int, name: str) -> None:
    for x in _bits(mask):
        missing = frame.up[x] & ~mask
        if missing:
            y = _bits(missing)[0]
            raise InvalidModel(
                f"valuation of {name!r} is not upward closed: "
                f"world {x} <= {y} but {y} is not assigned"
            )


def make_model(frame: Frame, valuation: Mapping[str, Iterable[int]]) -> Model:
    """Build a Model from atom -> world-set, validating upward closure."""
    for name in valuation:
        if not isinstance(name, str):
            raise InvalidModel(f"bad atom name {name!r}")
    entries = []
    for name in sorted(valuation):
        worlds = valuation[name]
        if not _iterable(worlds):
            raise InvalidModel(f"valuation of {name!r} must be a set of worlds")
        mask = 0
        for w in worlds:
            if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < frame.size:
                raise InvalidModel(f"valuation of {name!r} names unknown world {w!r}")
            mask |= 1 << w
        entries.append((name, mask))
    return Model(frame, tuple(entries))


def _iterable(obj) -> bool:
    # isinstance(obj, collections.abc.Iterable), which only a world set that
    # is not a list, tuple or set (JSON's and the witnesses' are) imports.
    if isinstance(obj, (list, tuple, set, frozenset)):
        return True
    from collections.abc import Iterable

    return isinstance(obj, Iterable)


class Countermodel(_Record):
    """A model, a world in it, and a formula the world fails to force.

    Construction re-runs the forcing check, so a Countermodel that exists
    is always a genuine refutation.  A world that is not an int naming a
    world of the frame raises UnknownWorld.
    """

    __slots__ = {"model": "Model", "world": "int", "formula": "Formula"}

    def __post_init__(self):
        fr = self.model.frame
        world = _world(fr.size, self.world)
        try:
            below = fr._tables[1]  # a searched frame, as frame_valid's, keeps its rows
        except AttributeError:
            below = _below(fr)
        if _force_mask(self.model, self.formula, below) >> world & 1:
            raise ValueError(f"world {world} forces {render(self.formula)}; not a countermodel")


# A formula compiles to one program over its distinct subterms, which
# _eval runs bottom-up with one int per subterm.  _search packs the world
# bitmasks of a whole chunk of valuations side by side into each int;
# forces and force_set run the same program on a one-valuation chunk.
# Subterms are shared by their compiled node: equal subterms compile to
# equal child indices, so looking up (op, a, b) never hashes a subtree.
# Forcing is monotone in an atom that never sits under an odd number of
# implication antecedents (~A is A -> F), so frame_valid holds each such
# positive-only atom at the empty upset.  Atoms are numbered with those
# that occur negatively first, so a search ranges over a prefix of them
# and reads a zero register for each positive-only one.  refutes, which
# needs only the verdict, searches that program with each negative-only
# atom read as T and its constant subterms folded (_verdict_program).

_Program = list[tuple[str, int, int]]


def _compile(f: Formula) -> tuple[list[str], _Program, int]:
    """The atom names of f, those that occur negatively first and then the
    positive-only ones, each group in name order; its program, whose atom
    nodes hold the index of their name in that list; and the number of
    atoms that occur negatively, the ones a search ranges over."""
    index: dict[tuple[str, int, int], int] = {}  # node -> position in prog
    slot: dict[str, int] = {}  # atom name -> order of first occurrence
    negative: set[str] = set()  # atom names under an odd number of antecedents
    _walk(f, index, slot, negative, False)
    prog = list(index)
    names = sorted(negative) + sorted(slot.keys() - negative)
    if names != list(slot):
        rank = {slot[name]: i for i, name in enumerate(names)}
        prog = [(op, rank[a], b) if op == "atom" else (op, a, b) for op, a, b in prog]
    return names, prog, len(negative)


# The op name of each binary node class in a program.
_OPS = {And: "and", Or: "or", Imp: "imp"}


def _walk(g: Formula, index: dict, slot: dict, negative: set, neg: bool) -> int:
    # g's position in the program, whose nodes index lists in order, each
    # distinct node once, after its operands.  Each occurrence is walked, so
    # an atom under an odd number of antecedents (neg) enters negative.  Not
    # a closure, as formula._climb.
    op = _OPS.get(type(g))
    if op is not None:
        node = (
            op,
            _walk(g.left, index, slot, negative, neg ^ (op == "imp")),
            _walk(g.right, index, slot, negative, neg),
        )
    elif isinstance(g, Atom):
        if neg:
            negative.add(g.name)
        node = ("atom", slot.setdefault(g.name, len(slot)), 0)
    elif isinstance(g, Top):
        node = ("top", 0, 0)
    elif isinstance(g, Bottom):
        node = ("bot", 0, 0)
    else:
        raise TypeError(f"not a formula: {g!r}")
    i = index.get(node)
    if i is None:
        i = index[node] = len(index)
    return i


def _below(fr: Frame) -> list[tuple[int, int]]:
    # (y, worlds strictly below y) for every world y with any.
    return [(y, row ^ 1 << y) for y, row in enumerate(fr._down_masks()) if row != 1 << y]


def _eval(prog, ones: int, every: int, below, atom_regs) -> int:
    # Bit j*n + x of a register: world x forces the subterm under valuation
    # j of the chunk; every sets bit 0 of each valuation.  A -> B fails at x
    # where some y >= x forces A but not B: y's failure bits times the worlds
    # strictly below y (a row below 2**n, so no carry) mark them all at once.
    regs: list[int] = []
    append = regs.append
    for op, a, b in prog:
        if op == "atom":
            append(atom_regs[a])
        elif op == "imp":
            bad = regs[a] & ~regs[b]
            acc = bad
            for y, down in below:
                acc |= (bad >> y & every) * down
            append(ones & ~acc)
        elif op == "and":
            append(regs[a] & regs[b])
        elif op == "or":
            append(regs[a] | regs[b])
        elif op == "top":
            append(ones)
        else:
            append(0)
    return regs[-1]


# The programs of recent formulas, by id: an entry holds its formula, so its
# id names no other object while it is kept, then its _compile, and from
# its first refutes on its _verdict_program.  A search and the re-check of
# its countermodel compile once, and so does a formula object searched again
# within 256 others, as audit_schemas's instances are on each frame.  A
# full memo is cleared at once; nothing iterates over it.
_PROGRAM_FORMULAS = 256
_PROGRAMS: dict[int, tuple] = {}


def _program(f: Formula) -> tuple[list[str], _Program, int]:
    entry = _PROGRAMS.get(id(f))
    if entry is not None:
        return entry[1]
    program = _compile(f)
    if len(_PROGRAMS) >= _PROGRAM_FORMULAS:
        _PROGRAMS.clear()
    _PROGRAMS[id(f)] = (f, program)
    return program


def _force_mask(model: Model, f: Formula, below: list[tuple[int, int]]) -> int:
    # The worlds forcing f; below is the frame's _below.
    names, prog, _ = _program(f)
    valuation = dict(model.valuation)
    return _eval(prog, model.frame.full_mask, 1, below, [valuation.get(name, 0) for name in names])


def forces(model: Model, x: int, f: Formula) -> bool:
    """Forcing at world x.

    Atoms hold by membership in the valuation, T always, F never, & and |
    pointwise, and A -> B holds at x iff every y >= x forcing A forces B.
    """
    _world(model.frame.size, x)
    return _force_mask(model, f, _below(model.frame)) >> x & 1 == 1


def force_set(model: Model, f: Formula) -> frozenset[int]:
    """All worlds forcing f; upward closed for every legal model."""
    return _mask_to_set(_force_mask(model, f, _below(model.frame)))


# Most valuations per chunk in _search: bounds the size of every
# register while holding down the number of Python-level operations.
_CHUNK_VALUATIONS = 4096


def frame_valid(fr: Frame, f: Formula) -> Countermodel | None:
    """Exhaustive search over monotone valuations of f's atoms.

    Each atom independently ranges over the frame's upsets (forcing only
    depends on atoms occurring in f).  Returns None when every world
    forces f under every such valuation, else the first countermodel in
    lexicographic order: upsets ascending per atom with the first atom
    most significant, then lowest world index.

    An atom with no occurrence under an odd number of implication
    antecedents is held at the empty upset, the first: forcing is monotone
    in it, so the first countermodel has it empty, and only the other
    atoms are searched, in the same order.

    A search of more than one chunk of valuations on a frame with several
    minimal worlds first searches the cone of each minimal world, once per
    distinct cone: f is valid on the frame iff it is valid on those cones.
    Only when a cone refutes f is the whole frame searched, so the
    countermodel is the frame's first, as without the cones.  The frame
    keeps its cones, so a later search reads their records too.
    """
    names, prog, searched = _program(f)
    found = _search(fr, searched, prog, len(names) - searched)
    if found is None:
        return None
    regs, bit = found
    n, full = len(fr.up), fr.full_mask
    j, world = divmod(bit, n)
    masks = [reg >> j * n & full for reg in regs]
    return Countermodel(Model(fr, tuple(sorted(zip(names, masks)))), world, f)


def refutes(fr: Frame, f: Formula) -> bool:
    """Whether some monotone valuation refutes f at some world of fr, that
    is, frame_valid(fr, f) is not None, decided without a countermodel.

    The search holds each atom that occurs only positively at the empty
    upset, as frame_valid's does, and each atom that occurs only
    negatively at the full set: forcing is antitone in it, so if any
    upset refutes f at a world, the full set refutes it there too.  The
    subterms this makes constant are folded away (_verdict_program), so
    only the atoms left are searched, with no zero register, and a formula
    that folds to T or F is answered before the frame's search tables are
    built: F, with no atom left, fails at every world of a nonempty frame.
    """
    # f's _verdict_program is built on its first refutes and kept as a third
    # item of its _PROGRAMS entry, so frame_valid, forces and force_set,
    # whose callers often compile each formula once, never build one.
    entry = _PROGRAMS.get(id(f))
    if entry is None or len(entry) == 2:
        program = _program(f)
        entry = _PROGRAMS[id(f)] = (f, program, _verdict_program(program[1], program[2]))
    verdict = entry[2]
    if verdict is None:  # folds to T
        return False
    if verdict[0] == 0:  # folds to F, the one program with no atom
        return fr.size > 0
    return _search(fr, *verdict, 0) is not None


def _verdict_program(prog: _Program, searched: int) -> tuple[int, _Program] | None:
    """refutes' program from a _compile program and its searched count:
    (atoms, program), or None when its root folds to T.  An atom numbered
    searched or later, positive-only, reads as F, and one read only
    negatively as T; then each node with a constant operand, or two equal
    ones, is folded (A -> A is T, A & A is A), the nodes the root no longer
    reads are dropped, and the atoms left are numbered in program order."""
    # The polarities in one reverse pass, operands after the nodes reading
    # them: 1 read positively, 2 negatively, 3 both, so a shared node read
    # at both polarities gets both.  An antecedent swaps 1 and 2.
    sign = [0] * len(prog)
    sign[-1] = 1
    for i in range(len(prog) - 1, -1, -1):
        op, a, b = prog[i]
        if op in ("and", "or", "imp"):
            sign[a] |= (0, 2, 1, 3)[sign[i]] if op == "imp" else sign[i]
            sign[b] |= sign[i]
    # Each node's value: "T", "F" or a position among the folded nodes,
    # which index lists, each distinct node once, after its operands.
    index: dict[tuple[str, int, int], int] = {}
    value: list = []
    for (op, a, b), s in zip(prog, sign):
        if op == "atom":
            v = "F" if a >= searched else "T" if s == 2 else index.setdefault((op, a, 0), len(index))
        elif op == "top" or op == "bot":
            v = "T" if op == "top" else "F"
        else:
            a, b = value[a], value[b]
            v = _fold(op, a, b)
            if v is None:
                if b == "F":  # A -> F
                    b = index.setdefault(("bot", 0, 0), len(index))
                v = index.setdefault((op, a, b), len(index))
        value.append(v)
    root = value[-1]
    if root == "T":
        return None
    if root == "F":
        return 0, [("bot", 0, 0)]
    nodes = list(index)
    read = [False] * root + [True]
    for i in range(root, -1, -1):
        op, a, b = nodes[i]
        if read[i] and op in ("and", "or", "imp"):
            read[a] = read[b] = True
    prog, at, atoms = [], {}, 0
    for i, (op, a, b) in enumerate(nodes[: root + 1]):
        if read[i]:
            if op == "atom":
                a, atoms = atoms, atoms + 1
            elif op != "bot":
                a, b = at[a], at[b]
            at[i] = len(prog)
            prog.append((op, a, b))
    return atoms, prog


def _fold(op: str, a, b):
    # op on two folded operands, each "T", "F" or a folded node's position:
    # the constant or operand it equals, or None where the node stays.
    if a == b:
        return "T" if op == "imp" else a
    if op == "imp":
        return "T" if a == "F" or b == "T" else b if a == "T" else None
    unit, zero = ("T", "F") if op == "and" else ("F", "T")
    if zero in (a, b):
        return zero
    return b if a == unit else a if b == unit else None


def _search_tables(
    fr: Frame,
) -> tuple[list[int], list[tuple[int, int]], dict[int, tuple], tuple[Frame, ...] | None]:
    """The search record of a frame, (ups, below, layouts, cones): its
    upsets, ascending, its strict-below rows (_below), the _layout of each
    of its one-chunk searches so far, by the number of searched atoms, and
    None for the cones, which _search fills in on the frame's first
    search of several chunks."""
    return _closed_masks(fr.up), _below(fr), {}, None


def _search(fr: Frame, atoms: int, prog: _Program, unsearched: int) -> tuple[list[int], int] | None:
    """The first valuation of a program on fr that fails at some world, as
    the registers of its chunk, one per atom, and the index of its lowest
    failing bit, or None.  The first atoms atoms range over fr's upsets,
    and the unsearched ones after them read a zero register each, appended
    once per call.  The frame keeps its _search_tables from its first
    search on, and in them the _layout of a search that fits one chunk, so
    a later one-chunk search of it with as many searched atoms runs only
    _eval.  A search of several chunks keeps no layout: it is shared by
    every chunk, and it holds the widest ints.  It first searches the
    distinct cones of the frame's minimal worlds, when there are several;
    the frame's first such search publishes its record anew with them, so
    each cone builds its own record and layouts once."""
    if not fr.up:
        return None  # no world to fail
    try:
        ups, below, layouts, cones = fr._tables
    except AttributeError:
        tables = _search_tables(fr)
        object.__setattr__(fr, "_tables", tables)  # racing threads store equal ones
        ups, below, layouts, cones = tables
    layout = layouts.get(atoms)
    if layout is None:
        count, n = len(ups), len(fr.up)
        # Valuations are numbered in product(ups, ...) order.  The trailing
        # atoms are bit-sliced: valuation j of a chunk is the j-th valuation
        # of those atoms, while the leading atoms are fixed per chunk and the
        # chunks run in product order, so the lowest failing bit of the first
        # failing chunk is the first countermodel.
        sliced, per_chunk = 0, 1
        while sliced < atoms and per_chunk * count <= _CHUNK_VALUATIONS:
            sliced += 1
            per_chunk *= count
        if sliced < atoms:
            # f is valid iff it is valid on the cone of each minimal world
            # (generation); cones are rooted, so this recurses at most once.
            if cones is None:
                lower = {y for y, _ in below}
                minimal = [x for x in range(n) if x not in lower]
                cones = tuple(dict.fromkeys(fr.cone(x)[0] for x in minimal)) if len(minimal) > 1 else ()
                object.__setattr__(fr, "_tables", (ups, below, layouts, cones))  # racing threads store equal ones
            if cones and not any(_search(cone, atoms, prog, unsearched) for cone in cones):
                return None
        layout = _layout(n, ups, sliced, per_chunk)
        if sliced == atoms:
            layouts[atoms] = layout
    sliced, ones, every, slices = layout
    if unsearched:
        slices = slices + [0] * unsearched
    for combo in product(ups, repeat=atoms - sliced):
        regs = [mask * every for mask in combo] + slices
        root = _eval(prog, ones, every, below, regs)
        if root != ones:
            failing = ones & ~root
            return regs, (failing & -failing).bit_length() - 1
    return None


_CHUNK_BITS: dict[tuple[int, int], tuple[int, int]] = {}  # at most 256 entries


def _chunk_bits(n: int, per_chunk: int) -> tuple[int, int]:
    # ones and every of a chunk of per_chunk valuations on n worlds, shared
    # by the layouts of every frame of that size and chunk.
    bits = _CHUNK_BITS.get((n, per_chunk))
    if bits is None:
        ones = (1 << n * per_chunk) - 1
        bits = ones, ones // ((1 << n) - 1)  # every: bit 0 of each valuation
        if len(_CHUNK_BITS) >= 256:
            _CHUNK_BITS.clear()
        _CHUNK_BITS[n, per_chunk] = bits
    return bits


def _layout(n: int, ups: list[int], sliced: int, per_chunk: int) -> tuple[int, int, int, list[int]]:
    """The layout of a chunk of per_chunk valuations on an n-world frame
    whose last sliced atoms range over ups: (sliced, ones, every, slices),
    where slices holds those atoms' registers."""
    ones, every = _chunk_bits(n, per_chunk)
    count = len(ups)
    slices = []
    block = per_chunk
    for _ in range(sliced):
        # This atom takes upset c on the c-th block of valuations: fill
        # spreads an upset over its block, pattern holds the count blocks,
        # and doubling repeats them until the chunk is full.  Products of
        # two chunk-sized ints, or a quotient, would cost more than _eval.
        block //= count
        span = n * block
        fill = every >> n * (per_chunk - block)
        pattern = 0
        for mask in reversed(ups):
            pattern = pattern << span | mask * fill
        width = span * count
        while width < n * per_chunk:
            pattern |= pattern << width
            width *= 2
        slices.append(pattern & ones)
    return sliced, ones, every, slices


def enumerate_frames(n: int, dedup: bool = False) -> Iterator[Frame]:
    """All partial orders on n labeled worlds, in a fixed order.

    With dedup=True only the first frame of each isomorphism class is
    yielded.  Frame validity and the built-in frame conditions are
    isomorphism-invariant, so dedup never changes an aggregate verdict.
    """
    if type(n) is not int or n < 1:
        raise ValueError("frame enumeration needs n >= 1")
    if dedup:
        return iter(_class_reps((), n)[0])
    # A lazy chain of growth steps: only the frame being extended at each
    # size is held, not the 4,231 labeled 5-world frames behind n = 6.
    frames: Iterable[Frame] = _SEED[0]  # grown from zero worlds
    for _ in range(n):
        frames = _grow(frames)
    return iter(frames)


def _grow(bases: Iterable[Frame]) -> Iterator[Frame]:
    # Add one world to each base, last in the labeling, in each way
    # _extensions lists.
    for base in bases:
        new_bit = 1 << base.size
        for upper, lower in _extensions(base):
            rows = list(base.up)
            for d in _bits(lower):
                rows[d] |= new_bit
            rows.append(upper | new_bit)
            yield _unchecked_frame(tuple(rows))


def _extensions(base: Frame) -> Iterator[tuple[int, int]]:
    # The ways to add a world to base: a strict upper set U and a strict
    # lower set D for it; the extension is a partial order exactly when U
    # is an upset, D a downset, and every world of D lies below every world
    # of U already.  The worlds outside U lying under all of U form a
    # downset, below, so the lower sets D for U are the downsets inside it:
    # the unions of its principal rows.
    down = base._down_masks()
    for upper in _closed_masks(base.up):
        below = base.full_mask & ~upper
        for u in _bits(upper):
            below &= down[u]
        for lower in _closed_masks(down[d] for d in _bits(below)):
            yield upper, lower


def _labeled_count(n: int) -> int:
    """The number of labeled n-world frames, A001035(n), counted from the
    classes on n - 1 worlds: each labeled frame extends the labeled frame
    on its first n - 1 worlds in exactly one way, a class counts its
    labeled members, and isomorphic bases have equally many extensions."""
    if n < 1:
        raise ValueError("frame enumeration needs n >= 1")
    bases, labelings = _class_reps((), n - 1) if n > 1 else _SEED
    return sum(count * sum(1 for _ in _extensions(base)) for base, count in zip(bases, labelings))


# The one store of isomorphism-class representatives, by (conditions, size,
# rooted): the first labeled frame of each class of n-world frames meeting
# every condition (() is every poset), in enumeration order, beside the class's
# labeled members, counted in growth; with rooted, only frames with a least
# world.  Conditions are frame predicates, isomorphism-invariant and
# hereditary, so a size grows from the full list of the size before: it holds
# every class frame less a world, and a class's first labeled frame grows from
# the first labeled frame of its base's class (else relabeling its base would
# give an earlier one).  A labeled frame extends the one on its first n - 1
# worlds in exactly one way, and isomorphic bases extend alike, so each child
# of a base adds the base's count to its class.  Nothing is evicted: ipc at
# bound 8 holds 4,495 frames.
# The entries for rooted and for all frames of one size share the frames of
# the classes both hold, so a frame's search record serves both.
# Threads growing one entry at once all get the first equal tuple stored.
# A frame keeps its search record once a search reads it (_search),
# so frames no search reads get none, and the record goes with the entry.
_Entry = tuple[tuple[Frame, ...], tuple[int, ...]]
_CLASS_REPS: dict[tuple[tuple, int, bool], _Entry] = {}
_SEED: _Entry = ((Frame(()),), (1,))  # the one frame of zero worlds


def _class_reps(conditions, n: int, rooted=False) -> _Entry:
    if n < 1:
        raise ValueError("frame enumeration needs n >= 1")
    entry = _CLASS_REPS.get((conditions, n, rooted))
    if entry is None:
        classes: dict[tuple[int, ...], list] = {}  # key: [first frame, labeled members]
        for base, count in zip(*(_class_reps(conditions, n - 1) if n > 1 else _SEED)):
            for fr in _grow((base,)):
                if rooted and fr.full_mask not in fr.up:
                    continue
                if conditions and not all(cond(fr) for cond in conditions):
                    continue
                classes.setdefault(_canonical_key(fr), [fr, 0])[1] += count
        frames = tuple(fr for fr, _ in classes.values())
        other = _CLASS_REPS.get((conditions, n, not rooted))
        if other is not None:  # both hold a class's first labeled frame: share it
            shared = {fr.up: fr for fr in other[0]}
            frames = tuple(shared.get(fr.up, fr) for fr in frames)
        entry = (frames, tuple(c for _, c in classes.values()))
        entry = _CLASS_REPS.setdefault((conditions, n, rooted), entry)
    return entry


_ROOTED_NEXT: dict[tuple[tuple, int], bool] = {}


def _rooted_next_size(conditions, n: int) -> bool:
    """Whether some rooted class frame has n + 1 worlds.  Deleting a maximal
    non-root world from one leaves a rooted class frame on n worlds, so it
    is isomorphic to a child of a rooted class representative on n worlds.
    Only those children are grown, and none is stored; the answer is kept
    in _ROOTED_NEXT."""
    found = _ROOTED_NEXT.get((conditions, n))
    if found is None:
        full = (1 << n + 1) - 1
        children = _grow(_class_reps(conditions, n, True)[0])
        found = any(full in fr.up and all(cond(fr) for cond in conditions) for fr in children)
        _ROOTED_NEXT[conditions, n] = found
    return found


def _canonical_key(fr: Frame) -> tuple[int, ...]:
    """Isomorphism-invariant key, the minimal relabeled relation matrix.

    Worlds are grouped by (successor count, predecessor count), which every
    isomorphism preserves; only the orders listing the groups in ascending
    order of that pair are tried.  A strict successor has fewer successors,
    so it lies in an earlier group, and a world's relabeled row is its own
    bit above the bits of earlier positions.  So the key is built a group at
    a time: for each kept order of the earlier groups, the group's least
    rows list its worlds by those lower bits, only worlds with equal lower
    bits are placed both ways, and only the orders whose rows still equal
    the least are kept.  Only later groups read the orders, so the last
    group places none.
    """
    up = fr.up
    n = len(up)
    above = [_bits(row ^ 1 << w) for w, row in enumerate(up)]  # strict successors
    # (successor count, predecessor count) as one int: fewer than n predecessors
    rank = [row.bit_count() * n for row in up]
    for succ in above:
        for v in succ:
            rank[v] += 1
    groups: dict[int, list[int]] = {}
    for w in sorted(range(n), key=rank.__getitem__):
        groups.setdefault(rank[w], []).append(w)
    key: list[int] = []
    orders = [[0] * n]  # per kept order: 1 << the position of each world placed
    for group in groups.values():
        start = len(key)
        if len(group) == 1:
            # Most groups are one world: no sort, and no order to copy.
            w = group[0]
            least = None
            for bit in orders:
                low = sum(map(bit.__getitem__, above[w]))
                if least is None or low < least:
                    least, kept = low, [bit]
                elif low == least:
                    kept.append(bit)
            key.append(1 << start | least)
            if len(key) == n:
                break
            for bit in kept:
                bit[w] = 1 << start
            orders = kept
            continue
        # Each kept order lists the group's worlds by their lower bits; the
        # least lists are kept, once per way of ordering the worlds that tie.
        best = None
        for bit in orders:
            ranked = sorted([(sum(map(bit.__getitem__, above[w])), w) for w in group])
            lows = [low for low, _ in ranked]
            if best is None or lows < best:
                best, kept = lows, [(bit, ranked)]
            elif lows == best:
                kept.append((bit, ranked))
        key += [1 << pos | low for pos, low in enumerate(best, start)]
        if len(key) == n:
            break
        orders = []
        for bit, ranked in kept:
            runs = [permutations([w for _, w in run]) for _, run in groupby(ranked, itemgetter(0))]
            for combo in product(*runs):
                placed = bit.copy()
                for pos, w in enumerate([w for part in combo for w in part], start):
                    placed[w] = 1 << pos
                orders.append(placed)
    return tuple(key)


# JSON formats.  Frame: {"worlds": n, "le": [[i, j], ...]} with the pairs
# auto-closed on input and emitted as the full strict order.  Model adds
# {"valuation": {"p": [i, ...], ...}}; upward closure is validated, never
# repaired.

def frame_to_json(fr: Frame) -> dict:
    return {"worlds": fr.size, "le": [list(p) for p in fr.strict_pairs()]}


def frame_from_json(data: object) -> Frame:
    if not isinstance(data, dict):
        raise ValueError("frame JSON must be an object")
    worlds = data.get("worlds")
    if not isinstance(worlds, int) or isinstance(worlds, bool) or worlds < 1:
        raise ValueError('frame JSON needs a positive integer "worlds"')
    if worlds > WORLD_LIMIT:
        raise ValueError(f'frame JSON "worlds" is {worlds}, more than the limit of {WORLD_LIMIT}')
    le = data.get("le", [])
    if not isinstance(le, list):
        raise ValueError('frame JSON "le" must be a list of world pairs')
    pairs = []
    for entry in le:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(w, int) and not isinstance(w, bool) for w in entry)
        ):
            raise ValueError(f"bad relation pair {entry!r}")
        pairs.append((entry[0], entry[1]))
    return make_frame(worlds, pairs)


def model_to_json(model: Model) -> dict:
    data = frame_to_json(model.frame)
    data["valuation"] = {
        name: sorted(worlds) for name, worlds in model.valuation_dict().items()
    }
    return data


def model_from_json(data: object) -> Model:
    frame = frame_from_json(data)  # refuses anything but an object
    valuation = data.get("valuation")
    if not isinstance(valuation, dict):
        raise InvalidModel('model JSON needs a "valuation" object')
    cleaned: dict[str, list[int]] = {}
    for name, worlds in valuation.items():
        if not isinstance(worlds, list):
            raise InvalidModel(f"valuation of {name!r} must be a list of worlds")
        cleaned[name] = worlds
    return make_model(frame, cleaned)


def countermodel_to_json(cm: Countermodel) -> dict:
    data = model_to_json(cm.model)
    data["world"] = cm.world
    data["formula"] = render(cm.formula)
    return data


def to_dot(obj: Frame | Model) -> str:
    """Graphviz source: one node per world, one edge per covering pair.

    With a model, each node label lists the valuation's atoms; a '-'
    prefix strikes out the atoms the world does not force.
    """
    if isinstance(obj, Model):
        fr, model = obj.frame, obj
    else:
        fr, model = obj, None
    lines = ["digraph kripke {", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(fr.size):
        label = f"w{i}"
        if model is not None and model.valuation:
            marks = [
                name if mask >> i & 1 else "-" + name
                for name, mask in model.valuation
            ]
            label += ": " + " ".join(marks)
        lines.append(f'  w{i} [label="{label}"];')
    for i, j in fr.covers():
        lines.append(f"  w{i} -> w{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
