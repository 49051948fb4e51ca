"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same corpus order, the same fresh pairs, the same cluster stream and the
same arrival schedule.  The program under test only ever sees the
generated SQL text.

Each generated input carries the answer it must get, known from how it
was built:

* a fresh pair built by a sound rewrite (join reorder, alias renaming,
  equality flips, filter pushdown into a subquery, DISTINCT self-join
  collapse, UNION ALL branch swap) must be ``proved``;
* a planted near miss (a join on the wrong column, a dropped DISTINCT,
  a changed aggregate, a UNION ALL branch over the wrong table) must be
  ``not_proved`` -- the two queries really differ, so no sound prover
  may prove them;
* the spellings of one cluster shape must land in one group, and
  different shapes in different groups.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Tables of the fresh pairs: structurally identical, no keys, so the
#: bounded model checker fills them freely.
TABLES = ("t1", "t2", "t3", "t4")
AGGREGATES = ("sum", "min", "max", "count")


def fresh_program(tables: Sequence[str]) -> str:
    """The catalog of one fresh pair: only the tables it reads.

    The model checker enumerates small instances of every declared
    table, so declaring unused tables would multiply its work.
    """
    lines = ["schema ts(k:int, a:int, b:int);"]
    lines.extend(f"table {table}(ts);" for table in sorted(set(tables)))
    return "\n".join(lines) + "\n"


#: Catalog of the cluster stream.
CLUSTER_PROGRAM = """
schema rs(a:int, b:int);
schema ss(c:int, d:int);
table r(rs);
table s(ss);
"""

_ALIASES = tuple("uvwxyz") + ("p", "q", "m", "n")


def _aliases(rng: random.Random, count: int) -> List[str]:
    return rng.sample(_ALIASES, count)


def _eq(rng: random.Random, left: str, right: str) -> str:
    """``left = right`` in a random orientation."""
    return f"{left} = {right}" if rng.random() < 0.5 else f"{right} = {left}"


def _where(rng: random.Random, conjuncts: Sequence[str]) -> str:
    conjuncts = list(conjuncts)
    rng.shuffle(conjuncts)
    return " AND ".join(conjuncts)


# ---------------------------------------------------------------------------
# Fresh pairs
# ---------------------------------------------------------------------------
#
# Every template takes the fresh constant ``c``.  It appears as a
# ``<= c`` filter: with ``c`` far outside the model checker's small value
# pool the filter keeps every row, so a near miss still has a small
# counterexample, while no cache tier has seen the constant before.


# Each template reads at most two distinct tables: the model checker
# enumerates every small instance of the catalog, and a third table
# would multiply that work ninefold.
Pair = Tuple[str, str, Tuple[str, ...]]


def _join_chain(rng: random.Random, c: int, near_miss: bool) -> Pair:
    width = rng.randint(2, 4)
    chosen = rng.sample(TABLES, 2)
    tables = [rng.choice(chosen) for _ in range(width)]

    def spell(aliases: List[str], wrong: bool) -> str:
        joins = []
        for i in range(width - 1):
            column = "a" if wrong and i == width - 2 else "k"
            joins.append(_eq(rng, f"{aliases[i]}.k", f"{aliases[i + 1]}.{column}"))
        conjuncts = joins + [f"{aliases[0]}.b <= {c}"]
        froms = [f"{table} {alias}" for table, alias in zip(tables, aliases)]
        rng.shuffle(froms)
        return (
            f"SELECT {aliases[0]}.a AS a, {aliases[-1]}.b AS b "
            f"FROM {', '.join(froms)} WHERE {_where(rng, conjuncts)}"
        )

    left = spell(_aliases(rng, width), False)
    return left, spell(_aliases(rng, width), near_miss), tuple(tables)


def _distinct(rng: random.Random, c: int, near_miss: bool) -> Pair:
    table = rng.choice(TABLES)
    x, y, z = _aliases(rng, 3)
    left = f"SELECT DISTINCT {x}.a AS a FROM {table} {x} WHERE {x}.b <= {c}"
    keyword = "" if near_miss else "DISTINCT "
    if rng.random() < 0.5:
        where = _where(rng, [_eq(rng, f"{y}.a", f"{z}.a"), f"{y}.b <= {c}"])
        right = (
            f"SELECT {keyword}{y}.a AS a FROM {table} {y}, {table} {z} "
            f"WHERE {where}"
        )
    else:
        right = (
            f"SELECT {keyword}{y}.a AS a FROM "
            f"(SELECT * FROM {table} {z} WHERE {z}.b <= {c}) {y}"
        )
    return left, right, (table,)


def _aggregate(rng: random.Random, c: int, near_miss: bool) -> Pair:
    table = rng.choice(TABLES)
    agg = rng.choice(AGGREGATES)
    other = rng.choice([a for a in AGGREGATES if a != agg])
    x, y, z = _aliases(rng, 3)
    left = (
        f"SELECT {x}.a AS a, {agg}({x}.b) AS s FROM {table} {x} "
        f"WHERE {x}.k <= {c} GROUP BY {x}.a"
    )
    right_agg = other if near_miss else agg
    right = (
        f"SELECT {y}.a AS a, {right_agg}({y}.b) AS s FROM "
        f"(SELECT * FROM {table} {z} WHERE {z}.k <= {c}) {y} GROUP BY {y}.a"
    )
    return left, right, (table,)


def _union(rng: random.Random, c: int, near_miss: bool) -> Pair:
    first, second = rng.sample(TABLES, 2)
    x, y, u, v = _aliases(rng, 4)
    left = (
        f"SELECT {x}.a AS a FROM {first} {x} WHERE {x}.b <= {c} "
        f"UNION ALL SELECT {y}.a AS a FROM {second} {y} WHERE {y}.k <= {c}"
    )
    swapped = first if near_miss else second
    right = (
        f"SELECT {v}.a AS a FROM {swapped} {v} WHERE {v}.k <= {c} "
        f"UNION ALL SELECT {u}.a AS a FROM {first} {u} WHERE {u}.b <= {c}"
    )
    return left, right, (first, second)


FRESH_TEMPLATES = {
    "join-chain": _join_chain,
    "distinct": _distinct,
    "aggregate": _aggregate,
    "union": _union,
}


def fresh_pair(
    rng: random.Random, constant: int, name: str, near_miss: bool
) -> Dict[str, object]:
    """One never-seen pair of template ``name`` and the verdict it must get."""
    left, right, tables = FRESH_TEMPLATES[name](rng, constant, near_miss)
    return {
        "left": left,
        "right": right,
        "program": fresh_program(tables),
        "expect": "not_proved" if near_miss else "proved",
        "kind": f"fresh-{name}",
    }


def fresh_constant(seed: int, index: int) -> int:
    """A constant no earlier request of any run with this seed used.

    Far above the model checker's value pool (0..3), so ``<= c`` filters
    keep every generated row.
    """
    return 1_000_000 + (seed % 1000) * 100_000 + index


# ---------------------------------------------------------------------------
# Corpus order and the serving mix
# ---------------------------------------------------------------------------


def shuffled(items: Sequence, seed: int, salt: int = 0) -> List:
    order = list(items)
    random.Random(seed * 1_000_003 + salt).shuffle(order)
    return order


def zipf_weights(count: int) -> List[float]:
    """Zipf(1/rank) weights over ``count`` ranks."""
    return [1.0 / (rank + 1) for rank in range(count)]


#: Requests per block of the serving mix, and never-seen pairs per block.
MIX_BLOCK = 10
FRESH_PER_BLOCK = 2


def serve_mix(rules: Sequence, seed: int, count: int) -> List[Dict[str, object]]:
    """``count`` request payloads: Zipf repeats of corpus rules plus fresh
    pairs.

    The mix is stratified so that seeds differ in order, not in make-up:
    every block of :data:`MIX_BLOCK` requests holds exactly
    :data:`FRESH_PER_BLOCK` never-seen pairs at seeded positions, and the
    fresh pairs cycle through shuffled decks of every (template, near
    miss) combination -- half of them near misses.  The rest are corpus
    rules drawn by Zipf(1/rank); ``rules`` are corpus
    :class:`RewriteRule` records, and their seeded shuffle fixes which
    rule gets which rank.  Each payload carries ``expect`` (the verdict it
    must get) and ``kind`` beside the wire fields; the sender strips both.
    """
    rng = random.Random(seed)
    ranked = shuffled(rules, seed, salt=1)
    weights = zipf_weights(len(ranked))
    deck: List[Tuple[str, bool]] = []
    fresh_at: set = set()
    out: List[Dict[str, object]] = []
    for index in range(count):
        if index % MIX_BLOCK == 0:
            fresh_at = set(rng.sample(range(MIX_BLOCK), FRESH_PER_BLOCK))
        if index % MIX_BLOCK in fresh_at:
            if not deck:
                deck = [(n, m) for n in sorted(FRESH_TEMPLATES) for m in (False, True)]
                rng.shuffle(deck)
            name, near_miss = deck.pop()
            item = fresh_pair(rng, fresh_constant(seed, index), name, near_miss)
        else:
            rule = rng.choices(ranked, weights=weights)[0]
            item = {
                "left": rule.left,
                "right": rule.right,
                "program": rule.program,
                "expect": rule.expectation.value,
                "kind": "corpus",
            }
        item["id"] = f"r{index}"
        out.append(item)
    return out


def poisson_schedule(rate: float, count: int, seed: int) -> List[float]:
    """Due times (seconds from the start) of ``count`` Poisson arrivals at
    ``rate`` per second, conditioned to end at ``count / rate``.

    Conditioning on the end time makes every run offer exactly the same
    number of requests over exactly the same span, so the offered load
    does not vary with the seed; the gaps stay exponential-like.
    """
    rng = random.Random(seed * 7919 + count)
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = (count / rate) / sum(gaps)
    due = []
    clock = 0.0
    for gap in gaps:
        clock += gap * scale
        due.append(clock)
    return due


# ---------------------------------------------------------------------------
# The cluster stream
# ---------------------------------------------------------------------------


def _selection_spellings(rng: random.Random, a: int, b: int) -> List[str]:
    """Equivalent spellings of ``a = <a> AND b = <b>`` over table r."""
    out = []
    for _ in range(3):
        v = rng.choice(_ALIASES)
        out.append(
            f"SELECT * FROM r {v} WHERE "
            f"{_where(rng, [_eq(rng, f'{v}.a', str(a)), _eq(rng, f'{v}.b', str(b))])}"
        )
    for _ in range(3):
        outer, inner = _aliases(rng, 2)
        first, second = (("a", a), ("b", b)) if rng.random() < 0.5 else (
            ("b", b), ("a", a))
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} WHERE "
            f"{_eq(rng, f'{inner}.{first[0]}', str(first[1]))}) {outer} "
            f"WHERE {_eq(rng, f'{outer}.{second[0]}', str(second[1]))}"
        )
    return out


def _join_spellings(rng: random.Random, a: int, b: int) -> List[str]:
    """Equivalent spellings of a join of r and s filtered on ``s.d = <a>``
    and ``r.a = <b>``."""
    out = []
    for _ in range(6):
        x, y = _aliases(rng, 2)
        froms = [f"r {x}", f"s {y}"]
        rng.shuffle(froms)
        where = _where(
            rng,
            [
                _eq(rng, f"{x}.b", f"{y}.c"),
                _eq(rng, f"{y}.d", str(a)),
                _eq(rng, f"{x}.a", str(b)),
            ],
        )
        out.append(
            f"SELECT {x}.a AS a, {y}.d AS d FROM {', '.join(froms)} WHERE {where}"
        )
    return out


def cluster_stream(
    seed: int, shapes: int, spellings: int
) -> Tuple[List[str], List[int]]:
    """An interleaved stream of ``shapes x spellings`` queries.

    Returns the queries and, for each, the index of the shape it spells.
    Shapes differ in their constants (and half of them are joins), so no
    two shapes are equivalent; the spellings of one shape are alpha
    variants and commuted conjuncts of each other.  Spellings are drawn
    round-robin so every round revisits every group.
    """
    rng = random.Random(seed * 31 + 5)
    per_shape: List[List[str]] = []
    constants = rng.sample(range(1, 10_000), 2 * shapes)
    for shape in range(shapes):
        a, b = constants[2 * shape], constants[2 * shape + 1]
        maker = _join_spellings if shape % 2 else _selection_spellings
        pool: List[str] = []
        while len(pool) < spellings:
            pool.extend(maker(rng, a, b))
        per_shape.append(pool[:spellings])
    queries: List[str] = []
    labels: List[int] = []
    order = list(range(shapes))
    for round_index in range(spellings):
        rng.shuffle(order)
        for shape in order:
            queries.append(per_shape[shape][round_index])
            labels.append(shape)
    return queries, labels
