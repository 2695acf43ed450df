"""Finite Kripke frames and models, forcing, and frame validity.

A frame is a finite partial order on worlds 0..n-1, stored as one
successor bitmask per world so that order queries and the semantic
clauses reduce to integer bit operations.  All values are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Mapping

from .formula import And, Atom, Bottom, Formula, Or, Top, render


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


@dataclass(frozen=True)
class Frame:
    """Finite partial order: bit j of up[i] is set iff world i <= world j.

    Build frames with make_frame (which closes and validates the input
    relation) or one of the shape helpers below; the constructor itself
    trusts its argument.
    """

    up: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.up)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.up)) - 1

    def le(self, x: int, y: int) -> bool:
        return self.up[x] >> y & 1 == 1

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i < j in the order, i != j."""
        return [
            (i, j)
            for i in range(self.size)
            for j in _bits(self.up[i] & ~(1 << i))
        ]

    def _down_masks(self) -> list[int]:
        down = [0] * self.size
        for i in range(self.size):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
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
        if not 0 <= x < self.size:
            raise UnknownWorld(x)
        members = _bits(self.up[x])
        pos = {w: i for i, w in enumerate(members)}
        rows = []
        for w in members:
            m = 0
            for v in _bits(self.up[w]):
                m |= 1 << pos[v]
            rows.append(m)
        return Frame(tuple(rows)), tuple(members)

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

    Raises AntisymmetryViolation if the closure relates two distinct
    worlds both ways, and UnknownWorld for an index outside 0..size-1.
    """
    if size < 1:
        raise ValueError("a frame needs at least one world")
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        for w in (x, y):
            if not 0 <= w < size:
                raise UnknownWorld(w)
        up[x] |= 1 << y
    for k in range(size):
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(size):
        for j in range(i + 1, size):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise AntisymmetryViolation((i, j))
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


_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Model:
    """A frame with a monotone valuation.

    The valuation is a sorted tuple of (atom, bitmask) pairs; every mask
    must be upward closed in the frame.  Atoms absent from the valuation
    are forced nowhere.  Use make_model to build one from plain sets.
    """

    frame: Frame
    valuation: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.valuation]
        if names != sorted(set(names)):
            raise InvalidModel("valuation atoms must be unique and sorted")
        full = self.frame.full_mask
        for name, mask in self.valuation:
            if not _ATOM_NAME.match(name) or name in ("T", "F"):
                raise InvalidModel(f"bad atom name {name!r}")
            if mask & ~full:
                raise InvalidModel(f"valuation of {name!r} mentions unknown worlds")
            _check_upward_closed(self.frame, mask, name)

    def atom_mask(self, name: str) -> int:
        for atom, mask in self.valuation:
            if atom == name:
                return mask
        return 0

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
    entries = []
    for name in sorted(valuation):
        mask = 0
        for w in valuation[name]:
            if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < frame.size:
                raise InvalidModel(f"valuation of {name!r} names unknown world {w!r}")
            mask |= 1 << w
        entries.append((name, mask))
    return Model(frame, tuple(entries))


@dataclass(frozen=True)
class Countermodel:
    """A model, a world in it, and a formula the world fails to force.

    Construction re-runs the forcing check, so a Countermodel that exists
    is always a genuine refutation.
    """

    model: Model
    world: int
    formula: Formula

    def __post_init__(self):
        if forces(self.model, self.world, self.formula):
            raise ValueError(
                f"world {self.world} forces {render(self.formula)}; not a countermodel"
            )


# A formula compiles to one program over its distinct subterms, which
# _eval runs bottom-up with one int per subterm.  frame_valid packs the
# world bitmasks of a whole chunk of valuations side by side into each
# int; forces and force_set run the same program on a one-valuation chunk.
# Subterms are shared by their compiled node: equal subterms compile to
# equal child indices, so looking up (op, a, b) never hashes a subtree.

def _compile(f: Formula) -> tuple[list[str], list[tuple[str, int, int]]]:
    """The sorted atom names of f and its program; atom nodes hold the
    index of their name in that list."""
    prog: list[tuple[str, int, int]] = []
    index: dict[tuple[str, int, int], int] = {}
    slot: dict[str, int] = {}  # atom name -> order of first occurrence

    def walk(g: Formula) -> int:
        if isinstance(g, Atom):
            node = ("atom", slot.setdefault(g.name, len(slot)), 0)
        elif isinstance(g, Top):
            node = ("top", 0, 0)
        elif isinstance(g, Bottom):
            node = ("bot", 0, 0)
        else:
            a = walk(g.left)
            b = walk(g.right)
            if isinstance(g, And):
                node = ("and", a, b)
            elif isinstance(g, Or):
                node = ("or", a, b)
            else:
                node = ("imp", a, b)
        i = index.get(node)
        if i is None:
            i = index[node] = len(prog)
            prog.append(node)
        return i

    walk(f)
    names = sorted(slot)
    rank = {slot[name]: i for i, name in enumerate(names)}
    return names, [(op, rank[a], b) if op == "atom" else (op, a, b) for op, a, b in prog]


def _shifts(up: tuple[int, ...]) -> list[tuple[int, int]]:
    # (y - x, mask) with bit x of mask set for every strict pair x < y at
    # that offset.
    offsets: dict[int, int] = {}
    for x, row in enumerate(up):
        row ^= 1 << x
        while row:
            low = row & -row
            d = low.bit_length() - 1 - x
            offsets[d] = offsets.get(d, 0) | 1 << x
            row ^= low
    return list(offsets.items())


def _eval(prog, ones: int, shifts, atom_regs) -> int:
    # Bit j*n + x of a register: world x forces the subterm under valuation
    # j of the chunk.  A -> B fails at x where some y >= x forces A but not
    # B; each (y - x, mask) shift moves bit y of every valuation to bit x
    # for all strict pairs x < y with that offset at once.
    regs: list[int] = []
    append = regs.append
    for op, a, b in prog:
        if op == "atom":
            append(atom_regs[a])
        elif op == "imp":
            bad = regs[a] & ~regs[b]
            acc = bad
            for d, mask in shifts:
                acc |= (bad >> d if d > 0 else bad << -d) & mask
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


def _force_mask(model: Model, f: Formula) -> int:
    names, prog = _compile(f)
    fr = model.frame
    slots = [model.atom_mask(name) for name in names]
    return _eval(prog, fr.full_mask, _shifts(fr.up), slots)


def forces(model: Model, x: int, f: Formula) -> bool:
    """Forcing at world x.

    Atoms hold by membership in the valuation, T always, F never, & and |
    pointwise, and A -> B holds at x iff every y >= x forcing A forces B.
    """
    if not 0 <= x < model.frame.size:
        raise UnknownWorld(x)
    return _force_mask(model, f) >> x & 1 == 1


def force_set(model: Model, f: Formula) -> frozenset[int]:
    """All worlds forcing f; upward closed for every legal model."""
    return _mask_to_set(_force_mask(model, f))


# Most valuations per chunk in frame_valid: bounds the size of every
# register while keeping the number of Python-level operations small.
_CHUNK_VALUATIONS = 4096


def frame_valid(fr: Frame, f: Formula) -> Countermodel | None:
    """Exhaustive search over monotone valuations of f's atoms.

    Each atom independently ranges over the frame's upsets (forcing only
    depends on atoms occurring in f).  Returns None when every world
    forces f under every such valuation, else the first countermodel in
    lexicographic order: upsets ascending per atom with the first atom
    most significant, then lowest world index.
    """
    if not fr.up:
        return None  # no world to fail
    names, prog = _compile(f)
    ups = _closed_masks(fr.up)
    count, n, full = len(ups), fr.size, fr.full_mask
    # Valuations are numbered in product(ups, ...) order.  The trailing
    # atoms are bit-sliced: valuation j of a chunk is the j-th valuation
    # of those atoms, while the leading atoms are fixed per chunk and the
    # chunks run in product order, so the lowest failing bit of the first
    # failing chunk is the first countermodel.
    sliced, per_chunk = 0, 1
    while sliced < len(names) and per_chunk * count <= _CHUNK_VALUATIONS:
        sliced += 1
        per_chunk *= count
    ones = (1 << n * per_chunk) - 1
    every = ones // full  # bit 0 of every valuation
    slices = []
    block = per_chunk
    for _ in range(sliced):
        # This atom takes upset c on the c-th block of valuations: pattern
        # holds one copy per block, fill spreads it over the block, and the
        # count blocks repeat until the chunk is full.
        block //= count
        span = n * block
        pattern = 0
        for mask in reversed(ups):
            pattern = pattern << span | mask
        fill = every >> n * (per_chunk - block)
        slices.append(pattern * fill * (ones // ((1 << span * count) - 1)))
    shifts = [(d, mask * every) for d, mask in _shifts(fr.up)]
    for combo in product(ups, repeat=len(names) - sliced):
        regs = [mask * every for mask in combo] + slices
        root = _eval(prog, ones, shifts, regs)
        if root != ones:
            failing = ones & ~root
            j, world = divmod((failing & -failing).bit_length() - 1, n)
            masks = [reg >> j * n & full for reg in regs]
            return Countermodel(Model(fr, tuple(zip(names, masks))), world, f)
    return None


def enumerate_frames(n: int, dedup: bool = False) -> Iterator[Frame]:
    """All partial orders on n labeled worlds, in a fixed order.

    With dedup=True only the first frame of each isomorphism class is
    yielded.  Frame validity and the built-in frame conditions are
    isomorphism-invariant, so dedup never changes an aggregate verdict.
    """
    if n < 1:
        raise ValueError("frame enumeration needs n >= 1")
    # A lazy chain of growth steps, not _frames_upto: the walk would hold
    # every frame of size n - 1 while it yields size n, 4,231 labeled
    # 5-world frames (about 0.7 MB) for n = 6.
    frames: Iterable[Frame] = (Frame(()),)  # grown from zero worlds
    for _ in range(n):
        frames = _grow(frames, dedup)
    return iter(frames)


def _frames_upto(
    max_n: int, dedup: bool, keep: Callable[[Frame], bool] | None = None
) -> Iterator[Frame]:
    # Every frame _grow yields for sizes 1..max_n, smallest size first.
    # Each size grows from the frames of the size before, the only list
    # kept; the last size is streamed.
    frames = [Frame(())]
    for n in range(1, max_n + 1):
        bases, frames = frames, []
        for fr in _grow(bases, dedup, keep):
            if n < max_n:
                frames.append(fr)
            yield fr


def _grow(
    bases: Iterable[Frame], dedup: bool, keep: Callable[[Frame], bool] | None = None
) -> Iterator[Frame]:
    # Add one world to each base, last in the labeling: the new world gets
    # a strict upper set U and a strict lower set D; the extension is a
    # partial order exactly when U is an upset, D a downset, and every
    # world of D lies below every world of U already.  The worlds outside
    # U lying under all of U form a downset, below, so the lower sets D
    # for U are the downsets inside it: the unions of its principal rows.
    # With dedup only the first candidate of each class is kept.  The
    # first labeled frame of a class has, as its base, the first labeled
    # frame of that base's class (relabeling the base would otherwise give
    # an earlier frame), so growing class representatives only yields
    # exactly the first frame of every class.  Candidates failing keep are
    # skipped before keying.  When keep is isomorphism-invariant and the
    # bases are the dedup frames of a class holding every kept frame with
    # a world deleted, the kept frames are the keep subsequence of the
    # dedup order: a hereditary class grows from its own frames alone.
    seen: set[tuple[int, ...]] = set()
    for base in bases:
        new_bit = 1 << base.size
        down = base._down_masks()
        for upper in _closed_masks(base.up):
            below = base.full_mask & ~upper
            for u in _bits(upper):
                below &= down[u]
            for lower in _closed_masks(down[d] for d in _bits(below)):
                rows = list(base.up)
                for d in _bits(lower):
                    rows[d] |= new_bit
                rows.append(upper | new_bit)
                fr = Frame(tuple(rows))
                if keep is not None and not keep(fr):
                    continue
                if dedup:
                    key = _canonical_key(fr)
                    if key in seen:
                        continue
                    seen.add(key)
                yield fr


def _canonical_key(fr: Frame) -> tuple[int, ...]:
    """Isomorphism-invariant key: minimal relabeled relation matrix.

    Worlds are first partitioned by an iterated up/down neighborhood
    profile; only permutations that respect the partition are tried.
    """
    n = fr.size
    up = fr.up
    down = fr._down_masks()
    inv = [0] * n
    for _ in range(n):
        sig = []
        for i in range(n):
            ups = tuple(sorted(inv[j] for j in _bits(up[i] & ~(1 << i))))
            downs = tuple(sorted(inv[j] for j in _bits(down[i] & ~(1 << i))))
            sig.append((inv[i], ups, downs))
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if new == inv:
            break
        inv = new
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(inv[i], []).append(i)
    blocks = [groups[k] for k in sorted(groups)]
    best: tuple[int, ...] | None = None
    for combo in product(*(permutations(block) for block in blocks)):
        order = [w for block in combo for w in block]
        pos = {w: i for i, w in enumerate(order)}
        rows = []
        for w in order:
            m = 0
            for v in _bits(up[w]):
                m |= 1 << pos[v]
            rows.append(m)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


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
    frame = frame_from_json(data)
    valuation = data.get("valuation") if isinstance(data, dict) else None
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


def to_dot(obj: Frame | Model, graph_name: str = "kripke") -> str:
    """Graphviz source: one node per world, one edge per covering pair.

    With a model, each node label lists the valuation's atoms; a '-'
    prefix strikes out the atoms the world does not force.
    """
    if isinstance(obj, Model):
        fr, model = obj.frame, obj
    else:
        fr, model = obj, None
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
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
