"""Independent reference implementations used to pin expected values.

Nothing here goes through the package's bitmask evaluator or its frame
enumerator: forcing recurses literally over successor lists, partial
orders are found by filtering every candidate relation, and isomorphism
classes are grouped by trying all permutations.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from kripkebench.formula import And, Atom, Bottom, Formula, Imp, Or, Top, atoms


def close_order(n: int, pairs) -> set[tuple[int, int]]:
    """Reflexive-transitive closure of pairs as a set of (x, y)."""
    rel = {(i, i) for i in range(n)}
    rel.update((x, y) for x, y in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b1) in list(rel):
            for (b2, c) in list(rel):
                if b1 == b2 and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def naive_forces(n, pairs, valuation, world, formula) -> bool:
    """Forcing by direct recursion over explicit successor lists.

    pairs is any generating relation (closed here); valuation maps atoms
    to world collections and is assumed monotone.
    """
    return _sat(_successors(n, pairs), valuation, world, formula)


def _successors(n, pairs) -> list[list[int]]:
    rel = close_order(n, pairs)
    return [[y for y in range(n) if (x, y) in rel] for x in range(n)]


def _sat(succ, valuation, x: int, f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return x in set(valuation.get(f.name, ()))
    if isinstance(f, And):
        return _sat(succ, valuation, x, f.left) and _sat(succ, valuation, x, f.right)
    if isinstance(f, Or):
        return _sat(succ, valuation, x, f.left) or _sat(succ, valuation, x, f.right)
    return all(
        not _sat(succ, valuation, y, f.left) or _sat(succ, valuation, y, f.right)
        for y in succ[x]
    )


def naive_first_countermodel(n, pairs, formula, atom_names):
    """The first (valuation, world) refuting formula, or None if the frame
    validates it: every assignment of upsets to the given atoms, upsets
    ascending by bitmask and the first atom most significant, then the
    lowest world that fails to force it."""
    succ = _successors(n, pairs)
    for combo in product(naive_upsets(n, pairs), repeat=len(atom_names)):
        val = dict(zip(atom_names, combo))
        for w in range(n):
            if not _sat(succ, val, w, formula):
                return val, w
    return None


def naive_upsets(n, pairs) -> list[frozenset[int]]:
    """Upward-closed world sets, by filtering all subsets in ascending
    bitmask order."""
    rel = close_order(n, pairs)
    out = []
    for bits in range(1 << n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if all(y in s for (x, y) in rel if x in s):
            out.append(s)
    return out


def naive_width(n, pairs) -> int:
    """Size of the largest set of pairwise incomparable worlds, by trying
    every subset."""
    rel = close_order(n, pairs)
    best = 0
    for bits in range(1 << n):
        s = [i for i in range(n) if bits >> i & 1]
        if all((x, y) not in rel for x in s for y in s if x != y):
            best = max(best, len(s))
    return best


def classical_taut(f: Formula) -> bool:
    """Two-valued truth-table check over the atoms of f."""
    names = sorted(atoms(f))
    for bits in product((False, True), repeat=len(names)):
        if not _truth(f, dict(zip(names, bits))):
            return False
    return True


def _truth(f: Formula, env: dict[str, bool]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, And):
        return _truth(f.left, env) and _truth(f.right, env)
    if isinstance(f, Or):
        return _truth(f.left, env) or _truth(f.right, env)
    return not _truth(f.left, env) or _truth(f.right, env)


def polarities(f: Formula, sign: str = "+") -> dict[str, set[str]]:
    """Each atom of f mapped to the signs of its occurrences: "-" under an
    odd number of implication antecedents, "+" under an even number."""
    if isinstance(f, Atom):
        return {f.name: {sign}}
    if isinstance(f, (Top, Bottom)):
        return {}
    flipped = {"+": "-", "-": "+"}[sign] if isinstance(f, Imp) else sign
    out = polarities(f.left, flipped)
    for name, signs in polarities(f.right, sign).items():
        out.setdefault(name, set()).update(signs)
    return out


def brute_force_posets(n: int) -> list[frozenset[tuple[int, int]]]:
    """All labeled partial orders on n worlds, by filtering every
    candidate relation on the off-diagonal cells."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        rel = {(i, i) for i in range(n)}
        for k, cell in enumerate(cells):
            if bits >> k & 1:
                rel.add(cell)
        if _is_partial_order(n, rel):
            out.append(frozenset(rel))
    return out


def _is_partial_order(n: int, rel) -> bool:
    for (a, b) in rel:
        if a != b and (b, a) in rel:
            return False
    for (a, b1) in rel:
        for (b2, c) in rel:
            if b1 == b2 and (a, c) not in rel:
                return False
    return True


def frame_pairs(frame) -> frozenset[tuple[int, int]]:
    """A frame's full order as a set of pairs, reflexive included."""
    out = set()
    for i in range(frame.size):
        for j in range(frame.size):
            if frame.le(i, j):
                out.add((i, j))
    return frozenset(out)


def iso_classes(frames) -> list[list]:
    """Group frames by isomorphism, testing every permutation."""
    classes: list[list] = []
    for fr in frames:
        placed = False
        for cls in classes:
            if _isomorphic(cls[0], fr):
                cls.append(fr)
                placed = True
                break
        if not placed:
            classes.append([fr])
    return classes


def _isomorphic(a, b) -> bool:
    if a.size != b.size:
        return False
    n = a.size
    for perm in permutations(range(n)):
        if all(
            a.le(i, j) == b.le(perm[i], perm[j]) for i in range(n) for j in range(n)
        ):
            return True
    return False


# Frame conditions, each stated literally over the closed order rel (a set
# of pairs (x, y) meaning x <= y, reflexive included) on worlds 0..n-1.
# Keyed like correspondence.CONDITIONS; k is the bound of DEPTH_LE and
# CONE_SIZE_LE.

def _oracle_lin(n, rel, k) -> bool:
    return all(
        (y, z) in rel or (z, y) in rel
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (x, y) in rel and (x, z) in rel
    )


def _oracle_bd2_paper(n, rel, k) -> bool:
    return all(
        y == x or z == x
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (x, y) in rel and (x, z) in rel and (y, z) in rel
    )


def _oracle_bd2_chain(n, rel, k) -> bool:
    return all(
        x == y or y == z
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (x, y) in rel and (y, z) in rel
    )


def _oracle_discrete(n, rel, k) -> bool:
    return all(x == y for (x, y) in rel)


def _oracle_depth_le(n, rel, k) -> bool:
    # no k + 1 worlds w0 < w1 < ... < wk
    return not any(
        all(a != b and (a, b) in rel for a, b in zip(ws, ws[1:]))
        for ws in product(range(n), repeat=k + 1)
    )


def _oracle_cone_size_le(n, rel, k) -> bool:
    return all(sum((x, y) in rel for y in range(n)) <= k for x in range(n))


CONDITION_ORACLES = {
    "LIN": _oracle_lin,
    "BD2_PAPER": _oracle_bd2_paper,
    "BD2_CHAIN": _oracle_bd2_chain,
    "DISCRETE": _oracle_discrete,
    "DEPTH_LE": _oracle_depth_le,
    "CONE_SIZE_LE": _oracle_cone_size_le,
}


# The lexicographically first triple of each witness shape, or None.

def first_branching(n, rel):
    """x <= y and x <= z with y and z incomparable."""
    return next(
        (
            (x, y, z)
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if (x, y) in rel and (x, z) in rel and (y, z) not in rel and (z, y) not in rel
        ),
        None,
    )


def first_three_chain(n, rel):
    """x < y < z, three distinct worlds."""
    return next(
        (
            (x, y, z)
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if x != y and y != z and (x, y) in rel and (y, z) in rel
        ),
        None,
    )


def first_embedding(n, rel, m, pattern):
    """The lexicographically first injective map phi of the worlds 0..m-1
    into 0..n-1 with (i, j) in pattern iff (phi[i], phi[j]) in rel, or
    None; both orders are closed sets of pairs."""
    return next(
        (
            phi
            for phi in permutations(range(n), m)
            if all(
                ((i, j) in pattern) == ((phi[i], phi[j]) in rel)
                for i in range(m)
                for j in range(m)
            )
        ),
        None,
    )


# Randomized generators for property tests (always seeded by the caller).

def random_frame(rng: random.Random, max_n: int):
    from kripkebench.kripke import make_frame

    n = rng.randint(1, max_n)
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    # Relabel by a random permutation, so that a strict pair x < y occurs
    # with y - x of either sign.
    perm = list(range(n))
    rng.shuffle(perm)
    return make_frame(n, [(perm[i], perm[j]) for i, j in pairs])


def random_model(rng: random.Random, frame, names):
    from kripkebench.kripke import make_model

    valuation = {}
    for name in names:
        seed = [w for w in range(frame.size) if rng.random() < 0.5]
        worlds = set(seed)
        for w in seed:
            worlds.update(v for v in range(frame.size) if frame.le(w, v))
        valuation[name] = sorted(worlds)
    return make_model(frame, valuation)


def random_formula(rng: random.Random, depth: int, names) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.choice(names))
        if roll < 0.9:
            return Top()
        return Bottom()
    op = rng.choice(("and", "or", "imp", "not"))
    if op == "not":
        return Imp(random_formula(rng, depth - 1, names), Bottom())
    left = random_formula(rng, depth - 1, names)
    right = random_formula(rng, depth - 1, names)
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    return Imp(left, right)
