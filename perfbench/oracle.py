"""Input generators and reference checks that do not go through kripkebench.

The benchmark builds the program's inputs here and re-verifies outputs
here, so that neither the workloads nor their correctness checks change
when the program or its own test oracles do.  Formulas are built from
kripkebench's node classes only because the library API takes them.
"""

from __future__ import annotations

import random
from itertools import product

from kripkebench.formula import And, Atom, Bottom, Formula, Imp, Or, Top


def random_formula(rng: random.Random, depth: int, names) -> Formula:
    """Random formula; same draws as the test suite's random_formula."""
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


def random_order(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Generating pairs of a random order on n worlds (i < j only)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def text(f: Formula) -> str:
    """Fully parenthesised concrete syntax; ~A for A -> F."""
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Imp) and isinstance(f.right, Bottom):
        return "~" + text(f.left)
    op = {And: "&", Or: "|", Imp: "->"}[type(f)]
    return f"({text(f.left)} {op} {text(f.right)})"


def atom_names(f: Formula) -> list[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (And, Or, Imp)):
            stack.extend((g.left, g.right))
    return sorted(out)


def truth(f: Formula, env: dict[str, bool]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, And):
        return truth(f.left, env) and truth(f.right, env)
    if isinstance(f, Or):
        return truth(f.left, env) or truth(f.right, env)
    return not truth(f.left, env) or truth(f.right, env)


def classical_taut(f: Formula) -> bool:
    names = atom_names(f)
    return all(
        truth(f, dict(zip(names, bits)))
        for bits in product((False, True), repeat=len(names))
    )


def closure(n: int, pairs) -> list[set[int]]:
    """Successor sets of the reflexive-transitive closure of pairs."""
    succ = [{i} for i in range(n)]
    for x, y in pairs:
        succ[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            wider = set().union(*(succ[y] for y in succ[x]))
            if wider != succ[x]:
                succ[x] = wider
                changed = True
    return succ


def naive_forces(succ: list[set[int]], valuation: dict, world: int, f: Formula) -> bool:
    """Forcing by direct recursion over explicit successor sets."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return world in valuation.get(f.name, ())
    if isinstance(f, And):
        return naive_forces(succ, valuation, world, f.left) and naive_forces(succ, valuation, world, f.right)
    if isinstance(f, Or):
        return naive_forces(succ, valuation, world, f.left) or naive_forces(succ, valuation, world, f.right)
    return all(
        not naive_forces(succ, valuation, y, f.left) or naive_forces(succ, valuation, y, f.right)
        for y in succ[world]
    )


def refutes(cm_json: dict, f: Formula) -> bool:
    """True when a countermodel in the program's JSON form really refutes f:
    every atom's set is upward closed and the named world fails f."""
    n = cm_json["worlds"]
    succ = closure(n, cm_json["le"])
    valuation = {name: set(ws) for name, ws in cm_json["valuation"].items()}
    if any(not succ[w] <= ws for ws in valuation.values() for w in ws):
        return False
    return not naive_forces(succ, valuation, cm_json["world"], f)


def forced_worlds(n: int, pairs, valuation: dict, f: Formula) -> list[int]:
    succ = closure(n, pairs)
    val = {name: set(ws) for name, ws in valuation.items()}
    return [w for w in range(n) if naive_forces(succ, val, w, f)]


def upsets(n: int, pairs) -> list[int]:
    """Upset bitmasks in ascending order."""
    succ = closure(n, pairs)
    masks = [sum(1 << w for w in s) for s in succ]
    return [m for m in range(1 << n) if all(masks[x] & ~m == 0 for x in range(n) if m >> x & 1)]


def valuation_rank(ups: list[int], names: list[str], valuation: dict) -> int:
    """Position of a valuation in frame_valid's documented search order:
    upsets ascending per atom, the first atom most significant."""
    pos = {m: i for i, m in enumerate(ups)}
    rank = 0
    for name in names:
        rank = rank * len(ups) + pos[sum(1 << w for w in valuation.get(name, ()))]
    return rank
