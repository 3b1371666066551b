"""Seeded inputs for the benchmark: rows, SSDL grammar text, SQL query text.

Everything here is a pure function of the seed, so one seed gives the
same inputs on every commit.  The generator is the benchmark's own code
(it does not call the program's workload helpers), so a change to the
program cannot silently change what the benchmark feeds it.  The
program receives only what this module produces:

* ``World.rows`` -- plain dicts, plus the column spec to build a schema;
* ``World.grammars`` -- SSDL source descriptions as text;
* query text, rendered with ``TargetQuery.to_text`` and checked to
  round-trip exactly through ``parse_query``.

A world follows the paper's synthetic setting: ``key`` plus eight
attributes, even ones categorical with Zipf-skewed values, odd ones
numeric; a grammar covers ``richness`` of the atomic-template space and
always has a download rule (``true``), so every query is feasible.

Each run federates ``SOURCES`` independent worlds.  How costly a query
is depends mostly on which templates and export sets its world's
grammar happens to have, so one world per run would make each run's
figures a draw of one grammar; averaging over several worlds keeps the
figures of different seeds comparable.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import And, Condition, Leaf, Or
from repro.query import TargetQuery, parse_query

N_ATTRIBUTES = 8
SOURCES = 4
_CARDINALITIES = (4, 8, 16, 32)
_OPS = {"=": Op.EQ, "<=": Op.LE, ">=": Op.GE}


def derive(seed: int, label: str) -> int:
    """An independent sub-seed for one input stream of a run."""
    return zlib.crc32(f"{seed}:{label}".encode()) & 0x7FFFFFFF


def attribute_names() -> list[str]:
    return [f"a{i}" for i in range(N_ATTRIBUTES)]


def column_spec() -> list[tuple[str, str]]:
    """``(name, type)`` pairs: ``key`` int, even attrs str, odd attrs int."""
    return [("key", "int")] + [
        (name, "str" if i % 2 == 0 else "int")
        for i, name in enumerate(attribute_names())
    ]


def _categorical_pool(index: int) -> list[str]:
    return [f"v{index}_{j}"
            for j in range(_CARDINALITIES[index % len(_CARDINALITIES)])]


def make_rows(n_rows: int, seed: int) -> list[dict]:
    rng = random.Random(derive(seed, "rows"))
    pools = {i: _categorical_pool(i) for i in range(0, N_ATTRIBUTES, 2)}
    weights = {i: [1.0 / (r + 1) for r in range(len(pool))]
               for i, pool in pools.items()}
    rows = []
    for key in range(n_rows):
        row: dict = {"key": key}
        for i, name in enumerate(attribute_names()):
            if i % 2 == 0:
                row[name] = rng.choices(pools[i], weights=weights[i])[0]
            else:
                row[name] = rng.randrange(1000)
        rows.append(row)
    return rows


def template_space() -> list[tuple[str, str]]:
    out = []
    for i, name in enumerate(attribute_names()):
        ops = ("=",) if i % 2 == 0 else ("=", "<=", ">=")
        out.extend((name, op) for op in ops)
    return out


def make_grammar(richness: float, seed: int) -> str:
    """SSDL text covering ``richness`` of the template space.

    One rule per supported template, about half as many conjunctive
    rules of width 2-3 over supported templates, and a download rule.
    Export sets are ``key`` plus each other attribute with p=0.8.
    """
    rng = random.Random(derive(seed, f"grammar:{richness}"))
    templates = template_space()
    supported = rng.sample(templates, max(1, round(richness * len(templates))))

    def rhs(template: tuple[str, str]) -> str:
        attr, op = template
        kind = "$str" if int(attr[1:]) % 2 == 0 else "$num"
        return f"{attr} {op} {kind}"

    def exports() -> str:
        chosen = [a for a in attribute_names() if rng.random() < 0.8]
        return ", ".join(["key"] + chosen)

    rules = [(f"t{i}", rhs(t), exports()) for i, t in enumerate(supported)]
    for i in range(len(supported) // 2):
        chosen = rng.sample(supported, rng.choice((2, 2, 3)))
        if len({attr for attr, _ in chosen}) == len(chosen):
            rules.append((f"c{i}", " and ".join(map(rhs, chosen)), exports()))
    rules.append(("dl", "true", ", ".join(["key"] + attribute_names())))
    lines = ["s -> " + " | ".join(name for name, _, _ in rules)]
    lines += [f"{name} -> {body}" for name, body, _ in rules]
    lines += [f"attributes {name} : {attrs}" for name, _, attrs in rules]
    return "\n".join(lines) + "\n"


def _atom(rng: random.Random) -> Atom:
    attr, op = rng.choice(template_space())
    index = int(attr[1:])
    if index % 2 == 0:
        value: object = rng.choice(_categorical_pool(index))
    else:
        value = rng.randrange(1000)
    return Atom(attr, _OPS[op], value)


def _split(total: int, parts: int, rng: random.Random) -> list[int]:
    sizes = [1] * parts
    for _ in range(total - parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def random_condition(n_atoms: int, rng: random.Random) -> Condition:
    """A random alternating And/Or tree with ``n_atoms`` leaves."""

    def build(count: int, is_or: bool) -> Condition:
        if count == 1:
            return Leaf(_atom(rng))
        sizes = _split(count, min(count, rng.randint(2, 4)), rng)
        children = [build(size, not is_or) for size in sizes]
        return Or(children) if is_or else And(children)

    return build(n_atoms, rng.random() < 0.5)


def source_name(index: int) -> str:
    return f"world{index}"


def render(condition: Condition, source: str, rng: random.Random) -> str:
    """SQL text for ``SP(condition, key + 1-2 attributes, source)``,
    checked to round-trip exactly through the program's parser."""
    extra = rng.sample(attribute_names(), rng.randint(1, 2))
    query = TargetQuery(condition, frozenset(["key"] + extra), source)
    text = query.to_text()
    if parse_query(text) != query:
        raise ValueError(f"query does not round-trip: {text}")
    return text


def make_queries(n: int, min_atoms: int, max_atoms: int, seed: int,
                 label: str, sources: list[str]) -> list[str]:
    """``n`` distinct query texts of ``min_atoms``..``max_atoms`` atoms,
    addressed to ``sources`` in turn."""
    rng = random.Random(derive(seed, label))
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        condition = random_condition(rng.randint(min_atoms, max_atoms), rng)
        text = render(condition, sources[len(out) % len(sources)], rng)
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def rotating_zipf(pools: list[list[str]], n: int, s: float, seed: int,
                  segment: int) -> list[str]:
    """``n`` requests in segments of ``segment``: segment ``k`` is a
    Zipf(``s``) stream over a fresh shuffle of ``pools[k % len(pools)]``.

    Rotating the hot set lets one run see many queries ranked hot, so
    the figures do not rest on which query one shuffle put first.
    """
    draws = random.Random(derive(seed, "draws"))
    out: list[str] = []
    for k in range(-(-n // segment)):
        ranked = list(pools[k % len(pools)])
        random.Random(derive(seed, f"segment{k}")).shuffle(ranked)
        weights = [1.0 / (rank + 1) ** s for rank in range(len(ranked))]
        out += draws.choices(ranked, weights=weights,
                             k=min(segment, n - len(out)))
    return out


@dataclass(frozen=True)
class World:
    """One seeded world: rows plus grammar texts (the first is the
    source's registered grammar; the rest are capability writes)."""

    rows: list[dict]
    grammars: tuple[str, ...]


def make_worlds(n_rows: int, richness: tuple[float, ...],
                seed: int) -> list[World]:
    """``SOURCES`` independent worlds for one run."""
    worlds = []
    for index in range(SOURCES):
        world_seed = derive(seed, source_name(index))
        worlds.append(World(make_rows(n_rows, world_seed),
                            tuple(make_grammar(r, world_seed)
                                  for r in richness)))
    return worlds
